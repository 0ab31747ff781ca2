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
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
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
    allocating,
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


def _chain(initial, transition):
    """Check a Markov chain, and read it once into ``(states, nexts, probs, cuts)``.

    ``states`` are initial's states, then the rows', then their entries'.
    Row ``i`` of each array is state ``i``'s row as listed, padded with
    steps of mass 0 that stay put, and the last row is ``initial``.  A row's
    ``cuts`` are its partial sums short of its last state with mass, then inf.
    """
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
    states = tuple(dict.fromkeys([*initial, *transition,
                                  *(t for row in transition.values() for t in row)]))
    index = {s: i for i, s in enumerate(states)}
    rows = [transition.get(s, {}) for s in states] + [initial]
    nexts = np.repeat(np.arange(len(rows))[:, None], max(map(len, rows)), 1)
    probs, cuts = np.zeros(nexts.shape), np.full(nexts.shape, np.inf)
    for i, row in enumerate(rows):
        nexts[i, :len(row)] = [index[t] for t in row]
        probs[i, :len(row)] = list(row.values())
        last = max((j for j, q in enumerate(row.values()) if q > 0), default=0)
        cuts[i, :last] = probs[i, :last].cumsum()
    return states, nexts, probs, cuts


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
    view of them.  The decoded table, the groupings of the rows and, keyed
    by role set, their entropies are memoised on first use; concurrent
    readers may at worst compute one twice.
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

    def entropy(self, roles):
        """Plug-in entropy (bits) of the grouping by ``roles``, memoised by their set.

        An entropy depends only on the set of its roles, and its bits are the
        same for every order of them: each group's mass is summed in row
        order whatever the order of the roles, and the entropy's sum is
        exact.  An unknown role raises before anything is memoised.
        """
        roles = tuple(roles)
        key = frozenset(roles)
        h = self._memo.get(key)
        if h is None:
            h = self._memo[key] = self.grouping(roles).entropy
        return h

    def _grouping(self, idx):
        group = self._memo.get(idx)
        if group is None:
            if idx:
                prefix = self._grouping(idx[:-1])
                radix = len(self.alphabets[self.roles[idx[-1]]])
                inverse = roll(prefix.inverse, len(prefix.mass), radix,
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
    states, nexts, steps, _ = _chain(initial, transition)
    if roles is None:
        roles = tuple(f"x{i}" for i in range(1, length + 1))
    alphabet = Alphabet(tuple(sorted(set(initial) | set(transition))))
    index = {s: i for i, s in enumerate(alphabet)}
    # paths grow depth first, in row order, from a root whose row is initial,
    # and stop at mass 0.0, so they stay on reachable states and off the padding
    width = steps.shape[1]
    codes, probs = np.full((1, 1), len(steps) - 1), np.ones(1)
    for _ in range(length):
        probs = (probs[:, None] * steps[codes[:, -1]]).ravel()
        codes = np.column_stack((codes.repeat(width, 0), nexts[codes[:, -1]].ravel()))
        codes, probs = codes[probs != 0.0], probs[probs != 0.0]
    # a state outside the alphabet is a row entry that no path takes
    codes = np.array([index.get(s, 0) for s in states], np.int64)[codes[:, 1:]]
    roles = _distinct(roles)
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
    """Generator spec for token sequences; ``FIELDS`` names the fields each kind reads.

    A Markov source reads its dicts once, at construction, into ``_markov``.
    """

    kind: str
    marginal: dict | None = None
    initial: dict | None = None
    transition: dict | None = None
    block: tuple = ()
    symbol: str | None = None
    tokens: tuple = ()
    seed: int = 0
    _markov: tuple | None = field(default=None, init=False, compare=False, repr=False)

    FIELDS = {"iid": ("marginal",), "markov": ("initial", "transition"),
              "periodic": ("block",), "homogeneous": ("symbol",),
              "empirical": ("tokens",)}
    KINDS = tuple(FIELDS)

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        missing = [name for name in self.FIELDS[self.kind] if getattr(self, name) is None]
        if missing:
            raise ValueError(f"{self.kind} source needs {' and '.join(missing)}")
        if self.kind == "iid":
            check_mass(self.marginal.values(), "marginal")
        if self.kind == "markov":
            object.__setattr__(self, "_markov", _chain(self.initial, self.transition))
        if self.kind == "periodic" and len(self.block) < 1:
            raise ValueError("periodic block must have length >= 1")
        object.__setattr__(self, "block", tuple(self.block))
        object.__setattr__(self, "tokens", tuple(self.tokens))


class _Corpus(Sequence):
    """An immutable token sequence: the tokens ``symbols[c]`` of read-only ``codes``.

    The codes are of the narrowest unsigned dtype that holds len(symbols).
    Tokens are decoded only when read, 2**16 codes at a time when iterated.
    A slice is a corpus of the sliced codes.  A corpus equals any list or
    corpus of the same tokens.
    """

    __slots__ = ("symbols", "codes")

    def __init__(self, symbols, codes):
        object.__setattr__(self, "symbols", tuple(symbols))
        dtype = np.min_scalar_type(len(self.symbols))
        object.__setattr__(self, "codes", np.asarray(codes, dtype))
        self.codes.setflags(write=False)

    @classmethod
    def of(cls, tokens):
        """The corpus of any token sequence, its symbols in order of first occurrence."""
        index = defaultdict()
        index.default_factory = index.__len__  # a new token gets the next code
        return cls(index, np.fromiter(map(index.__getitem__, tokens), np.intp))

    def __setattr__(self, name, value):
        raise AttributeError(f"a corpus is immutable; cannot set {name!r}")

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _Corpus(self.symbols, self.codes[index])
        return self.symbols[self.codes[index]]

    def __iter__(self):  # np.array would split tuple symbols into a 2-D array
        symbols, codes = np.fromiter(self.symbols, object, len(self.symbols)), self.codes
        return chain.from_iterable(symbols[codes[i:i + 65536]].tolist()
                                   for i in range(0, len(codes), 65536))

    def __eq__(self, other):  # defining it leaves __hash__ None
        if isinstance(other, (list, _Corpus)):
            return list(self) == list(other)
        return NotImplemented

    def __reduce__(self):
        return _Corpus, (self.symbols, self.codes)


# a Markov walk runs this many steps per block; see _walk
_BLOCK = 256


def _buckets(cuts, u):
    """Index of each uniform in ``u`` among the sorted ``cuts``, as an intp array.

    The index of ``x`` is the number of cuts at or below it, which is
    ``np.searchsorted(cuts, u, side="right")``, found in O(1) expected time
    per uniform with a guide table (Chen & Asau 1974).  The table holds the
    index of every ``g / size``; ``size`` is a power of two, so ``g =
    floor(x * size)`` and ``g / size`` are exact and the table's entry is at
    most the index of ``x``.  Correction steps then move every index that
    still has a cut at or below ``x`` one cut on, until none has.  An index
    moves on average fewer than ``len(cuts) / size`` (below 1/4) steps.
    Every ``x`` must lie in [0, 1).
    """
    size = 1 << (4 * len(cuts)).bit_length()
    guide = np.searchsorted(cuts, np.arange(size) / size, side="right")
    idx = guide[(u * size).astype(np.intp)]
    ends = np.append(cuts, np.inf)  # an index past the last cut stays put
    pending = np.flatnonzero(ends[idx] <= u)
    while pending.size:
        idx[pending] += 1
        pending = pending[ends[idx[pending]] <= u[pending]]
    return idx


def _guessed_path(first, nexts, keys):
    """``path[j]``, the state before step ``j``, of walks in blocks from ``first``.

    Step ``j`` goes from state ``s`` to ``nexts[keys[j] + s]``.  Blocks of
    ``_BLOCK`` steps are walked in parallel, one numpy step for all blocks
    at a time, every one from ``first``; only the first block starts where
    the walk does.
    """
    n = len(keys)
    blocks = -(-n // _BLOCK)
    full = n // _BLOCK
    steps = np.zeros((_BLOCK, blocks), np.intp)  # step j of block b at [j, b]
    steps[:, :full] = keys[:full * _BLOCK].reshape(full, _BLOCK).T
    steps[:n - full * _BLOCK, full:] = keys[full * _BLOCK:, None]
    walked = np.empty_like(steps)
    state = np.full(blocks, first, np.intp)
    for step, out in zip(steps, walked):
        np.add(step, state, out=step)
        state = nexts.take(step, out=out, mode="wrap")  # "raise" would copy out
    path = np.empty(1 + blocks * _BLOCK, np.intp)
    path[0] = first
    path[1:].reshape(blocks, _BLOCK)[:] = walked.T
    return path[:n + 1]


def _walk(first, nexts, keys, symbols):
    """``symbols`` of the states of a walk: state ``first``, then one per step.

    Step ``j`` goes from state ``s`` to ``nexts[keys[j] + s]``.  The walk
    starts as the guess of ``_guessed_path``; then each block, in order, is
    walked again in Python from its true start until that walk meets the
    guessed one, after which both agree.  A chain whose walks from
    different starts meet soon costs a few Python steps per block; one
    whose walks never meet costs one Python step per token.
    """
    path = _guessed_path(first, nexts, keys)
    # the repair reads lists, which cost less per step than numpy items: 8
    # steps first, as walks from different states mostly meet soon, then the
    # rest of the block; walks that meet agree from then on, so a window's
    # end tells whether they met
    n, nexts, state = len(keys), nexts.tolist(), first
    for start in range(0, n, _BLOCK):
        stop, j, width = min(start + _BLOCK, n), start, 8
        met = state == first
        while not met and j < stop:
            end = min(j + width, stop)
            # path[end] is read before it is repaired; a comprehension beats a for loop
            guess, path[j + 1:end + 1] = path[end], [state := nexts[key + state]
                                                     for key in keys[j:end].tolist()]
            met, j, width = state == guess, end, _BLOCK
        if met:
            state = int(path[stop])
    return _Corpus(symbols, path)


def _markov_tokens(chain, first, u):
    """Tokens of a walk on ``chain`` from state ``first``, a step per uniform in ``u``.

    Step ``k`` takes the state of the current row whose interval of the
    row's float64 cumulative sums holds ``u[k]``, as ``searchsorted(side=
    "right")`` would; the chain's cuts stop short of the row's last state
    with mass, so a draw past them all takes that state, also when the
    float total ends just below 1.  The cuts of all rows are merged, so a
    uniform's bucket among them fixes the next state from every state, and
    a table of those next states drives the blocked walk of ``_walk``.  A
    short walk, or one on a chain with many dense states, bisects one row
    per step instead; see the comment at the choice.
    """
    states, nexts, _, cuts = chain
    nexts, cuts = nexts[:-1], cuts[:-1]  # the rows of states, not initial's
    # timed on dense chains of 3 to 96 states and 1e3 to 2e5 steps: a table
    # cell costs about 1/8 of a bisect step to fill, and the block walk's
    # _BLOCK numpy steps about 8 * _BLOCK bisect steps, so below this length
    # bisecting is faster; the table then also stays below 8 cells per step
    merged = np.unique(cuts[cuts < np.inf]) if len(u) >= 8 * _BLOCK else ()
    if len(u) < 8 * _BLOCK + (len(merged) + 1) * len(states) / 8:
        nexts, cuts, state = nexts.tolist(), cuts.tolist(), first
        path = [first] + [state := nexts[state][bisect_right(cuts[state], x)]
                          for x in u.tolist()]
        return _Corpus(states, path)
    # a state without a row is never reached; its padding stays put, so the
    # guessed walks of _walk have somewhere to go
    lows = np.append(-np.inf, merged)  # the lowest uniform of every bucket
    table = np.column_stack([row_nexts[np.searchsorted(row_cuts, lows, side="right")]
                             for row_nexts, row_cuts in zip(nexts, cuts)])
    keys = _buckets(merged, u)
    keys *= len(states)
    return _walk(first, table.ravel(), keys, states)


def generate(source, length, seed=None):
    """Emit ``length`` tokens from ``source``; pure function of (source, seed).

    The iid and Markov kinds draw one uniform per token from the source's
    substream (a Markov chain draws its first state with ``rng.choice``):
    an iid token is ``rng.choice(p=marginal)`` of its uniform, and a Markov
    step takes the next state whose interval of the row's cumulative sums,
    as its source read them at construction, holds it.  Time and memory are
    linear in ``length``; a length whose tokens, or their uniforms, cannot
    be allocated raises ResultTooLarge (``errors.allocating``).  Every kind
    returns a :class:`_Corpus`: the other kinds code their block, or their
    one symbol, once and repeat the codes.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    if seed is None:
        seed = source.seed
    rng = substream(seed, "generate", source.kind)
    if length == 0:
        return _Corpus((), ())
    if source.kind == "empirical" and not source.tokens:
        raise EmptySequence("empirical source has no tokens")
    too_large = f"length = {length}: that many tokens do not fit in memory"
    if source.kind in ("periodic", "empirical", "homogeneous"):
        block = (source.symbol,) if source.kind == "homogeneous" else source.tokens
        if source.kind == "periodic":
            offset = int(rng.integers(len(source.block)))
            block = source.block[offset:] + source.block[:offset]
        block = _Corpus.of(block)
        with allocating(too_large):  # whole blocks, then a cut
            codes = np.tile(block.codes, -(-length // len(block)))[:length]
        return _Corpus(block.symbols, codes)
    if source.kind == "iid":
        # the cdf and uniforms of rng.choice(len(marginal), length, p=marginal)
        cdf = np.array(list(source.marginal.values()), np.float64).cumsum()
        cdf /= cdf[-1]
        with allocating(too_large):
            u = rng.random(length)
        return _Corpus(source.marginal, _buckets(cdf, u))
    _, nexts, probs, _ = source._markov
    first = int(nexts[-1, rng.choice(len(probs[-1]), p=probs[-1])])
    with allocating(too_large):
        u = rng.random(length - 1)
    return _markov_tokens(source._markov, first, u)


def scramble(sequence, seed):
    """Uniform random permutation of the tokens; multiset is preserved.

    The tokens are shuffled in place by the seed's substream, which makes the
    swaps of ``perm = rng.permutation(n)``: token ``i`` is ``sequence[perm[i]]``.
    A :class:`_Corpus` shuffles an intp copy of its codes instead (8-byte items
    swap fastest), with the same swaps, and gives a corpus; any other
    sequence gives a list.
    """
    coded = isinstance(sequence, _Corpus)
    # np.array would split tuple tokens
    tokens = sequence.codes.astype(np.intp) if coded else np.fromiter(sequence, object)
    substream(seed, "scramble").shuffle(tokens)
    return _Corpus(sequence.symbols, tokens) if coded else tokens.tolist()


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
