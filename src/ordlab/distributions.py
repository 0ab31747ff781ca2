"""Exact finite probabilistic sequence models.

A :class:`JointSequenceModel` is a sparse probability table over a tuple of
named roles (typically one target plus n context roles).  Everything the
information-theoretic machinery consumes is built from these tables, so
construction validates mass and arity strictly and renormalizes exactly.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._grouping import first_rows, plugin_entropy, roll
from ._rng import substream
from .errors import (
    ArityMismatch,
    EmptySequence,
    InputParseError,
    MassOutOfTolerance,
    NegativeProbability,
    NonStochasticRow,
    RoleOverlap,
    UnknownRole,
)

MASS_TOLERANCE = 1e-12


def check_mass(values, what, error=MassOutOfTolerance):
    """Exact sum of ``values``; raises ``error`` unless it is within 1e-12 of 1.

    A negative value raises NegativeProbability, even when the sum is 1.
    """
    values = list(values)
    for v in values:
        if v < 0:
            raise NegativeProbability(f"{what} has a negative probability {v!r}")
    mass = math.fsum(values)
    if not abs(mass - 1.0) <= MASS_TOLERANCE:  # also rejects nan
        raise error(f"{what} mass {mass!r} not within 1e-12 of 1")
    return mass


def _check_chain(initial, transition):
    """Initial and row masses, and a transition row for every reachable state."""
    check_mass(initial.values(), "initial")
    for state, row in transition.items():
        check_mass(row.values(), f"transition row for {state!r}", NonStochasticRow)
    pending = [s for s, p in initial.items() if p > 0]
    reached = set(pending)
    while pending:
        state = pending.pop()
        if state not in transition:
            raise NonStochasticRow(f"no transition row for reachable state {state!r}")
        for nxt, q in transition[state].items():
            if q > 0 and nxt not in reached:
                reached.add(nxt)
                pending.append(nxt)


@dataclass(frozen=True)
class Alphabet:
    """Ordered list of distinct symbols; order defines canonical indices."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        object.__setattr__(self, "symbols", tuple(self.symbols))

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


class Grouping(NamedTuple):
    """Rows of a model's table grouped by their symbols on some roles.

    ``inverse`` is the group of every row, ``mass`` each group's
    probability, summed in table order, and ``entropy`` the Shannon entropy
    (bits) of those masses.
    """

    inverse: np.ndarray
    mass: np.ndarray
    entropy: float


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class JointSequenceModel:
    """Sparse exact joint table over named roles.

    ``table`` maps full symbol tuples (one symbol per role, in role order)
    to probabilities.  Zero-probability tuples are omitted.  Immutable after
    construction; safe for concurrent reads.

    Exact quantities come from the integer codes of the table (one
    alphabet index per role and row, in table order), which the model's
    constructors pass in, and from one grouping of those rows per role
    tuple, which carries its masses and their entropy.  Groupings are
    derived lazily on first use and memoised on the model; concurrent
    readers may at worst compute one twice.
    """

    roles: tuple[str, ...]
    alphabets: dict[str, Alphabet]
    table: dict[tuple[str, ...], float]
    target_role: str | None = None
    _codes: np.ndarray = field(kw_only=True, compare=False, repr=False)
    _probs: np.ndarray = field(init=False, compare=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        probs = np.fromiter(self.table.values(), np.float64, len(self.table))
        object.__setattr__(self, "_probs", probs)
        _frozen(self._codes, probs)

    def role_index(self, role):
        try:
            return self.roles.index(role)
        except ValueError:
            raise UnknownRole(f"unknown role {role!r}") from None

    def grouping(self, roles):
        """The :class:`Grouping` of the table rows by their ``roles`` symbols.

        A role tuple's group codes are its prefix's group index times the
        last role's alphabet size plus that role's code, so the codes stay
        below K times an alphabet size however many roles there are.
        """
        return self._grouping(tuple(self.role_index(r) for r in roles))

    def _grouping(self, idx):
        group = self._memo.get(idx)
        if group is None:
            if idx:
                prefix = self._grouping(idx[:-1])
                radix = len(self.alphabets[self.roles[idx[-1]]])
                inverse, _ = roll(prefix.inverse, len(prefix.mass), radix,
                                  self._codes[:, idx[-1]])
            else:
                inverse = np.zeros(len(self._probs), np.intp)
            # bincount adds the weights one by one in row order, as the
            # running sums out[key] = out.get(key, 0.0) + p would
            mass = np.bincount(inverse, weights=self._probs)
            group = Grouping(*_frozen(inverse, mass), plugin_entropy(mass))
            self._memo[idx] = group
        return group

    def marginal(self, roles):
        """Summed-out table keeping only ``roles`` (in the given order).

        Keys appear in order of first occurrence in ``table``; the dict is
        the caller's own.
        """
        idx = tuple(self.role_index(r) for r in roles)
        group = self._grouping(idx)
        rows = first_rows(group.inverse, len(group.mass))
        keys = list(self.table)
        return {
            tuple(keys[row][i] for i in idx): p
            for row, p in zip(rows.tolist(), group.mass[group.inverse[rows]].tolist())
        }


def _encode(roles, alphabets, keys):
    """(K, n_roles) int64 alphabet indices of ``keys``, one row per key.

    The one place where a model's symbols meet its alphabets.  A key of the
    wrong arity raises ArityMismatch and a symbol outside its role's
    alphabet UnknownRole.  The first bad key in ``keys`` order wins, and
    within a key arity is checked before symbols.
    """
    n, k = len(roles), len(keys)
    index = [{s: i for i, s in enumerate(alphabets[r])} for r in roles]
    codes = np.empty((n, k), np.int64)
    if set(map(len, keys)) <= {n}:
        try:
            for j, column in enumerate(zip(*keys)):
                codes[j] = np.fromiter(map(index[j].__getitem__, column), np.int64, k)
            return codes.T
        except KeyError:
            pass
    for key in keys:
        if len(key) != n:
            raise ArityMismatch(f"tuple {key!r} has arity {len(key)}, expected {n}")
        for role, known, symbol in zip(roles, index, key):
            if symbol not in known:
                raise UnknownRole(f"symbol {symbol!r} not in alphabet of role {role!r}")


def _validate_and_normalize(roles, alphabets, table, target_role):
    roles = tuple(roles)
    if len(set(roles)) != len(roles):
        raise RoleOverlap(f"duplicate role labels in {roles!r}")
    codes = _encode(roles, alphabets, table)
    mass = check_mass(table.values(), "total")
    clean = {k: p for k, p in table.items() if p > 0.0}
    if len(clean) < len(table):
        codes = codes[np.fromiter(table.values(), np.float64, len(table)) > 0.0]
    if mass != 1.0:
        clean = {k: p / mass for k, p in clean.items()}
        # nudge the heaviest entry so the fsum is exactly 1.0; this makes
        # normalization idempotent and the file format round-trip bit-exact
        largest = max(clean, key=clean.get)
        for _ in range(16):
            residual = 1.0 - math.fsum(clean.values())
            if residual == 0.0:
                break
            clean[largest] += residual
    return JointSequenceModel(roles, dict(alphabets), clean, target_role, _codes=codes)


def make_joint(roles, table, alphabets=None, target_role=None):
    """Build a validated model from an explicit probability table.

    When ``alphabets`` is omitted, each role's alphabet is inferred from the
    symbols observed in the table keys, in sorted order.
    """
    roles = tuple(roles)
    if alphabets is None:
        seen: dict[str, list[str]] = {r: [] for r in roles}
        for key in table:
            if len(key) != len(roles):
                raise ArityMismatch(
                    f"tuple {key!r} has arity {len(key)}, expected {len(roles)}"
                )
            for role, symbol in zip(roles, key):
                if symbol not in seen[role]:
                    seen[role].append(symbol)
        alphabets = {r: Alphabet(tuple(sorted(seen[r]))) for r in roles}
    return _validate_and_normalize(roles, alphabets, table, target_role)


def make_iid(marginal, n_roles, roles=None, target_role=None):
    """Product model of ``n_roles`` independent copies of ``marginal``."""
    if roles is None:
        roles = tuple(f"x{i}" for i in range(1, n_roles + 1))
    roles = tuple(roles)
    if len(roles) != n_roles:
        raise ValueError("roles length must equal n_roles")
    check_mass(marginal.values(), "marginal")
    symbols = tuple(marginal)
    alphabet = Alphabet(symbols)
    table = {}
    for combo in itertools.product(symbols, repeat=n_roles):
        p = math.prod(marginal[s] for s in combo)
        if p > 0:
            table[combo] = p
    alphabets = {r: alphabet for r in roles}
    return _validate_and_normalize(roles, alphabets, table, target_role)


def make_markov(initial, transition, length, roles=None, target_role=None):
    """Joint table of a Markov chain: P(x_1..x_m) = pi(x_1) prod A(x_{k-1},x_k)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    _check_chain(initial, transition)
    if roles is None:
        roles = tuple(f"x{i}" for i in range(1, length + 1))
    roles = tuple(roles)
    all_states = sorted(set(initial) | set(transition))
    alphabet = Alphabet(tuple(all_states))
    table = {}

    def extend(prefix, p):
        if p == 0.0:
            return
        if len(prefix) == length:
            table[prefix] = table.get(prefix, 0.0) + p
            return
        row = transition[prefix[-1]]
        for nxt, q in row.items():
            extend(prefix + (nxt,), p * q)

    for state, p0 in initial.items():
        extend((state,), p0)
    alphabets = {r: alphabet for r in roles}
    return _validate_and_normalize(roles, alphabets, table, target_role)


def marginalize(model, kept_roles):
    """Model over ``kept_roles`` only; mass is preserved exactly."""
    kept = tuple(kept_roles)
    if not kept:
        raise UnknownRole("kept_roles must be non-empty")
    table = model.marginal(kept)
    # the groups' first rows, in first-occurrence order, are the marginal's rows
    group = model.grouping(kept)
    rows = first_rows(group.inverse, len(group.mass))
    codes = model._codes[np.ix_(rows, [model.role_index(r) for r in kept])]
    alphabets = {r: model.alphabets[r] for r in kept}
    target = model.target_role if model.target_role in kept else None
    return JointSequenceModel(kept, alphabets, table, target, _codes=codes)


# ---------------------------------------------------------------------------
# Sequence sources


@dataclass(frozen=True)
class SequenceSource:
    """Generator spec for token sequences (iid/markov/periodic/homogeneous/empirical)."""

    kind: str
    marginal: dict | None = None
    initial: dict | None = None
    transition: dict | None = None
    block: tuple = ()
    symbol: str | None = None
    tokens: tuple = ()
    seed: int = 0

    KINDS = ("iid", "markov", "periodic", "homogeneous", "empirical")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.kind == "iid":
            check_mass(self.marginal.values(), "marginal")
        if self.kind == "markov":
            _check_chain(self.initial, self.transition)
        if self.kind == "periodic" and len(self.block) < 1:
            raise ValueError("periodic block must have length >= 1")
        object.__setattr__(self, "block", tuple(self.block))
        object.__setattr__(self, "tokens", tuple(self.tokens))


def generate(source, length, seed=None):
    """Emit ``length`` tokens from ``source``; pure function of (source, seed)."""
    if length < 0:
        raise ValueError("length must be >= 0")
    if seed is None:
        seed = source.seed
    rng = substream(seed, "generate", source.kind)
    if length == 0:
        return []
    if source.kind == "homogeneous":
        return [source.symbol] * length
    if source.kind == "periodic":
        block = source.block
        offset = int(rng.integers(len(block)))
        return [block[(offset + i) % len(block)] for i in range(length)]
    if source.kind == "empirical":
        toks = source.tokens
        if not toks:
            raise EmptySequence("empirical source has no tokens")
        return [toks[i % len(toks)] for i in range(length)]
    if source.kind == "iid":
        symbols = list(source.marginal)
        probs = [source.marginal[s] for s in symbols]
        idx = rng.choice(len(symbols), size=length, p=probs)
        return [symbols[i] for i in idx.tolist()]
    # markov: precomputed cumulative rows + one batch of uniforms
    states = list(source.initial)
    p0 = [source.initial[s] for s in states]
    out = [states[rng.choice(len(states), p=p0)]]
    rows = {
        s: (list(row), np.cumsum([row[t] for t in row]).tolist())
        for s, row in source.transition.items()
    }
    # bisect_right on the float64 cumulative row is searchsorted(side="right")
    for u in rng.random(length - 1).tolist():
        nxt_states, cumulative = rows[out[-1]]
        out.append(nxt_states[bisect_right(cumulative, u)])
    return out


def scramble(sequence, seed):
    """Uniform random permutation of the tokens; multiset is preserved."""
    rng = substream(seed, "scramble")
    seq = list(sequence)
    perm = rng.permutation(len(seq))
    return [seq[i] for i in perm.tolist()]


# ---------------------------------------------------------------------------
# Model file format (JSON), read/written bit-exactly on round trip


def model_to_json(model):
    # rows in lexicographic order of their codes; lexsort's last key is primary
    keys = model._codes.T[::-1]
    order = np.lexsort(keys).tolist() if len(keys) else range(len(model.table))
    items = list(model.table.items())
    entries = [{"tuple": list(items[i][0]), "p": items[i][1]} for i in order]
    doc = {
        "roles": list(model.roles),
        "alphabets": {r: list(model.alphabets[r].symbols) for r in model.roles},
        "entries": entries,
    }
    if model.target_role is not None:
        doc["target"] = model.target_role
    return json.dumps(doc, indent=2) + "\n"


def model_from_json(text):
    try:
        doc = json.loads(text)
        roles = tuple(doc["roles"])
        alphabets = {r: Alphabet(tuple(doc["alphabets"][r])) for r in roles}
        table = {tuple(e["tuple"]): e["p"] for e in doc["entries"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise InputParseError(f"bad model document: {exc!r}") from None
    for p in table.values():
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise InputParseError(f"bad model document: p = {p!r} is not a number")
        try:
            float(p)
        except OverflowError:
            raise InputParseError("bad model document: an integer p is too large "
                                  "for a float") from None
    return _validate_and_normalize(roles, alphabets, table, doc.get("target"))


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        return model_from_json(fh.read())
