"""Exact finite probabilistic sequence models.

A :class:`JointSequenceModel` is a sparse probability table over a tuple of
named roles (typically one target plus n context roles), stored once as
integer codes, one alphabet index per role and row, and their
probabilities.  Every builder produces those rows directly; only explicit
tables are coded from symbol tuples, and ``model.table`` is a read-only
view decoded from the codes.  Everything the information-theoretic
machinery consumes is built from these rows, so construction validates
mass and arity strictly and renormalizes exactly.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from types import MappingProxyType
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
    """Sparse exact joint table over named roles, stored as rows of codes.

    ``_codes`` holds each row's alphabet index per role and ``_probs`` its
    probability, in table order, with no zero rows; ``table`` is a read-only
    view of them.  The decoded table and the groupings of the rows are
    memoised on first use; concurrent readers may at worst compute one twice.
    """

    roles: tuple[str, ...]
    alphabets: dict[str, Alphabet]
    _codes: np.ndarray = field(compare=False, repr=False)
    _probs: np.ndarray = field(compare=False, repr=False)
    target_role: str | None = None
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        _frozen(self._codes, self._probs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.roles, self.alphabets, self.target_role, self.table)
                == (other.roles, other.alphabets, other.target_role, other.table))

    @property
    def table(self):
        if "table" not in self._memo:
            self._memo["table"] = self.marginal(self.roles)
        return MappingProxyType(self._memo["table"])

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

    def _groups(self, idx):
        """Codes on ``idx`` and mass of each group at its first row, in row order."""
        group = self._grouping(idx)
        rows = first_rows(group.inverse, len(group.mass))
        return self._codes[np.ix_(rows, idx)], group.mass[group.inverse[rows]]

    def marginal(self, roles):
        """The caller's own table summed over ``roles``, keyed in their order.

        Keys appear in order of first occurrence in ``table``.
        """
        idx = tuple(self.role_index(r) for r in roles)
        codes, mass = self._groups(idx)
        columns = [map(self.alphabets[self.roles[i]].symbols.__getitem__, c)
                   for i, c in zip(idx, codes.T.tolist())]
        return dict(zip(zip(*columns) if idx else [()], mass.tolist()))


def _arity_error(key, n):
    return ArityMismatch(f"tuple {key!r} has arity {len(key)}, expected {n}")


def _encode(roles, alphabets, keys):
    """(K, n_roles) int64 alphabet indices of an explicit table's ``keys``.

    A key of the wrong arity raises ArityMismatch and a symbol outside its
    role's alphabet UnknownRole; the first bad key wins, arity before symbols.
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
            raise _arity_error(key, n)
        for role, known, symbol in zip(roles, index, key):
            if symbol not in known:
                raise UnknownRole(f"symbol {symbol!r} not in alphabet of role {role!r}")


def _distinct(roles):
    roles = tuple(roles)
    if len(set(roles)) != len(roles):
        raise RoleOverlap(f"duplicate role labels in {roles!r}")
    return roles


def _model(roles, alphabets, codes, values, target_role):
    """The model of rows ``codes`` with masses ``values``, checked and renormalised."""
    mass = check_mass(values, "total")
    probs = np.array(values, np.float64)
    codes, probs = codes[probs > 0.0], probs[probs > 0.0]
    if mass != 1.0:
        probs /= mass
        # nudge the first heaviest row so the fsum is exactly 1.0; this makes
        # normalization idempotent and the file format round-trip bit-exact
        largest = np.argmax(probs)
        for _ in range(16):
            residual = 1.0 - math.fsum(probs.tolist())
            if residual == 0.0:
                break
            probs[largest] += residual
    return JointSequenceModel(roles, dict(alphabets), codes, probs, target_role)


def make_joint(roles, table, alphabets=None, target_role=None):
    """Build a validated model from an explicit probability table.

    When ``alphabets`` is omitted, each role's alphabet is inferred from the
    symbols observed in the table keys, in sorted order.
    """
    roles = tuple(roles)
    if alphabets is None:
        for key in table:
            if len(key) != len(roles):
                raise _arity_error(key, len(roles))
        columns = list(zip(*table)) or [()] * len(roles)
        alphabets = {r: Alphabet(tuple(sorted(set(c)))) for r, c in zip(roles, columns)}
    roles = _distinct(roles)
    codes = _encode(roles, alphabets, list(table))
    return _model(roles, alphabets, codes, list(table.values()), target_role)


def make_iid(marginal, n_roles, roles=None, target_role=None):
    """Product model of ``n_roles`` independent copies of ``marginal``."""
    if roles is None:
        roles = tuple(f"x{i}" for i in range(1, n_roles + 1))
    roles = tuple(roles)
    if len(roles) != n_roles:
        raise ValueError("roles length must equal n_roles")
    check_mass(marginal.values(), "marginal")
    alphabet = Alphabet(tuple(marginal))
    # rows in itertools.product order; masses multiplied left to right
    v = len(alphabet)
    codes = np.indices((v,) * n_roles, np.int64).reshape(n_roles, v**n_roles).T
    probs = np.multiply.reduce(np.array(list(marginal.values()), np.float64)[codes.T])
    return _model(_distinct(roles), {r: alphabet for r in roles}, codes, probs,
                  target_role)


def make_markov(initial, transition, length, roles=None, target_role=None):
    """Joint table of a Markov chain: P(x_1..x_m) = pi(x_1) prod A(x_{k-1},x_k)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    _check_chain(initial, transition)
    if roles is None:
        roles = tuple(f"x{i}" for i in range(1, length + 1))
    alphabet = Alphabet(tuple(sorted(set(initial) | set(transition))))
    index = {s: i for i, s in enumerate(alphabet)}
    # paths grow depth first, in row order, from a root whose row is initial,
    # and stop at mass 0.0, so they stay on reachable states and off the padding
    rows = [transition.get(s, {}) for s in alphabet] + [initial]
    width = max(map(len, rows))
    nexts = np.zeros((len(rows), width), np.int64)
    steps = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        nexts[i, :len(row)] = [index.get(s, 0) for s in row]
        steps[i, :len(row)] = list(row.values())
    codes, probs = np.full((1, 1), len(rows) - 1), np.ones(1)
    for _ in range(length):
        probs = (probs[:, None] * steps[codes[:, -1]]).ravel()
        codes = np.column_stack((codes.repeat(width, 0), nexts[codes[:, -1]].ravel()))
        codes, probs = codes[probs != 0.0], probs[probs != 0.0]
    codes, roles = codes[:, 1:], _distinct(roles)
    if len(roles) != length and len(codes):
        key = tuple(alphabet.symbols[c] for c in codes[0].tolist())
        raise _arity_error(key, len(roles))
    return _model(roles, {r: alphabet for r in roles}, codes, probs, target_role)


def marginalize(model, kept_roles):
    """Model over ``kept_roles`` only; mass is preserved exactly."""
    kept = tuple(kept_roles)
    if not kept:
        raise UnknownRole("kept_roles must be non-empty")
    codes, mass = model._groups(tuple(model.role_index(r) for r in kept))
    alphabets = {r: model.alphabets[r] for r in kept}
    target = model.target_role if model.target_role in kept else None
    return JointSequenceModel(kept, alphabets, codes, mass, target)


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
    rows = {}
    for s, row in source.transition.items():
        probs = list(row.values())
        last = max(i for i, q in enumerate(probs) if q > 0)
        # partial sums short of the last state with mass: a draw past them all
        # takes that state, also when the float total ends just below 1
        rows[s] = (list(row), np.cumsum(probs[:last]).tolist())
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
    order = np.lexsort(model._codes.T[::-1]).tolist() if model.roles else [0]
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
    roles = _distinct(roles)
    codes = _encode(roles, alphabets, list(table))
    if len(table) < len(doc["entries"]):  # a repeated tuple, even at p = 0
        seen = set()
        for key in (tuple(e["tuple"]) for e in doc["entries"]):
            if key in seen:
                raise InputParseError(f"bad model document: the tuple {key!r} repeats")
            seen.add(key)
    return _model(roles, alphabets, codes, list(table.values()), doc.get("target"))


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        return model_from_json(fh.read())
