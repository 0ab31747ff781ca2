"""Per-position conditional entropy estimation and entropy-rate diagnostics.

Estimates use the plug-in (maximum likelihood) estimator on sliding-window
block counts: H(X_i | X_1..X_{i-1}) = H_block(i) - H_block(i-1).  Blocks
are found by one sort of packed window keys per chunk of orders (see
:class:`NGramTable`), and their entropy is taken by the code that takes an
exact model's (``ordlab._grouping``).  On top of the estimated profiles sit
the constant-entropy-rate check, the uniform information density
classifier, power-law decay fitting and the peak-cost functional.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import infotheory
from ._grouping import first_rows, plugin_entropy
from .distributions import _Corpus
from .errors import (
    ArityMismatch,
    DegenerateProfile,
    EmptySequence,
    InsufficientData,
    allocating,
)

GAMMA_GRID = np.arange(0.05, 1.5 + 1e-9, 0.005)


class _OrderView(Mapping):
    """Read-only mapping order -> value(order) over orders 1..max_order.

    Values are computed on each access and never stored, so the view holds
    no per-order state however large max_order is.
    """

    def __init__(self, max_order, value):
        self._max_order = max_order
        self._value = value

    def __contains__(self, order):
        return isinstance(order, Integral) and 1 <= order <= self._max_order

    def __getitem__(self, order):
        if order not in self:
            raise KeyError(order)
        return self._value(order)

    def __iter__(self):
        return iter(range(1, self._max_order + 1))

    def __len__(self):
        return self._max_order


class NGramTable:
    """Sliding-window block counts for orders 1..max_order, counted lazily.

    The tokens are held as integer codes into ``vocabulary``: a corpus's
    own (``distributions._Corpus``), or else codes numbered in order of
    first occurrence.  No count depends on the numbering, and a symbol that
    never occurs only leaves a code unused.  Code ``len(vocabulary)`` marks
    a position past a non-cyclic end.  A chunk of orders packs each
    window's codes at those orders, behind the rank of its block at the
    order before the chunk, into one key, int32 if it fits 31 bits and else
    int64, and sorts the keys once; an order's blocks are the runs of keys
    equal in its leading digits.  A chunk is sorted when one of its orders
    is first asked for, and only the last one sorted is kept.  The first
    holds the orders that fit 31 bits, if two or more, until an order past
    them is asked for, and then sorts orders 1.. again, 63 bits' worth.

    ``counts`` maps order -> ``Counter`` of token tuples in order of first
    occurrence, and ``total_positions`` maps order -> number of windows.
    Both are read-only views: a ``Counter`` is built afresh on every access
    to ``counts[k]``, so read it once and keep it when it is needed twice.
    """

    def __init__(self, vocabulary, codes, max_order, cyclic):
        self.max_order = max_order
        self.cyclic = cyclic
        self._vocabulary = vocabulary
        self._n = len(codes)
        self._bits = len(vocabulary).bit_length()  # room for the end marker
        if cyclic:
            # append the wrap-around so every window of every order is a slice
            wrap = codes[:min(self._n, max_order) - 1]
            codes = np.concatenate([codes, wrap])
        self._codes = codes  # narrow: _keys ORs them into the keys
        # the last chunk sorted: [first order, orders, leading ranks or None,
        # sorted keys, XOR of each two adjacent keys, each window's index
        # among the sorted keys once something has asked for it]
        self._chunk = None
        self.counts = _OrderView(max_order, self._counter)
        self.total_positions = _OrderView(max_order, self._windows)

    def _windows(self, order):
        return self._n if self.cyclic else max(0, self._n - order + 1)

    def _column(self, order, windows):
        """Code of the order-th token of every window."""
        start = (order - 1) % self._n
        return self._codes[start:start + windows]

    def _keys(self, first, orders, lead, dtype):
        """Each window's key: its ``lead`` rank, then its codes at the orders."""
        keys = np.zeros(self._n, dtype) if lead is None else lead.astype(dtype)
        for order in range(first, first + orders):
            keys <<= self._bits
            inside = self._windows(order)
            keys[:inside] |= self._column(order, inside)
            keys[inside:] |= len(self._vocabulary)
        return keys

    def _chunk_of(self, order):
        """The sorted chunk holding ``order``, sorting the chunks up to it."""
        chunk = self._chunk
        short = chunk is not None and chunk[0] == 1 and chunk[3].dtype == np.int32
        if chunk is None or order < chunk[0] or short and order > chunk[1]:
            # 32-bit keys sort in about half the time of 64-bit ones
            width = 31 if order <= 31 // self._bits >= 2 else 63
            self._chunk = self._sorted_chunk(1, None, width)
        while order >= self._chunk[0] + self._chunk[1]:
            first = self._chunk[0] + self._chunk[1]
            self._chunk = self._sorted_chunk(first, self._blocks(first - 1), 63)
        return self._chunk

    def _sorted_chunk(self, first, lead, width):
        lead_bits = 0 if lead is None else int(lead.max()).bit_length()
        orders = min((width - lead_bits) // self._bits, self.max_order - first + 1)
        dtype = np.int32 if lead_bits + orders * self._bits <= 31 else np.int64
        keys = self._keys(first, orders, lead, dtype)
        keys.sort()
        return [first, orders, lead, keys, keys[1:] ^ keys[:-1], None]

    def _locate(self, order):
        """The chunk holding ``order``, and the bit where its digit starts."""
        chunk = self._chunk_of(order)
        return chunk, self._bits * (chunk[0] + chunk[1] - 1 - order)

    def _blocks(self, order):
        """Each window's block of an order, numbered in sorted key order."""
        chunk, shift = self._locate(order)
        first, orders, lead, _, xor, place = chunk
        if place is None:  # each window's index among the sorted keys
            place = chunk[5] = np.empty(self._n, np.int64)
            place[np.argsort(self._keys(first, orders, lead, xor.dtype))] = np.arange(self._n)
        return np.concatenate(([0], np.cumsum(xor >= 1 << shift)))[place]

    def _counts_of_counts(self, order):
        """(each distinct count c of the order's blocks, blocks seen c times).

        A block ends where the XOR of adjacent sorted keys reaches the
        order's digit.
        """
        (*_, keys, xor, _), shift = self._locate(order)
        ends = np.append(np.flatnonzero(xor >= 1 << shift), len(keys) - 1)
        blocks_per_count = np.bincount(np.diff(ends, prepend=-1))
        # each window that runs past a non-cyclic end is a block of its own
        blocks_per_count[1] -= self._n - self._windows(order)
        counts = np.flatnonzero(blocks_per_count)
        return counts, blocks_per_count[counts]

    def _counter(self, order):
        windows = self._windows(order)
        if not windows:
            return Counter()
        blocks = self._blocks(order)[:windows]
        sizes = np.bincount(blocks)
        # each block is decoded at its first window, so the blocks come in
        # order of first occurrence
        starts = first_rows(blocks, len(sizes))[:np.count_nonzero(sizes)]
        tokens = np.fromiter(self._vocabulary, object, len(self._vocabulary))
        columns = [tokens[self._column(k, windows)[starts]].tolist()
                   for k in range(1, order + 1)]
        return Counter(dict(zip(zip(*columns), sizes[blocks[starts]].tolist())))


def ngram_counts(sequence, max_order, cyclic=False):
    """Code a sequence for block counting of every order 1..max_order.

    Nothing is counted here: each order is counted on first use (see
    :class:`NGramTable`).  With ``cyclic=True`` windows wrap around the end
    of the sequence, which makes the counts of a perfectly periodic sequence
    exact rather than edge-biased.  The codes of a corpus from ``generate``
    or ``scramble`` are counted as they are, with the symbols they index;
    any other sequence is coded token by token (``_Corpus.of``).
    """
    corpus = sequence if isinstance(sequence, _Corpus) else _Corpus.of(sequence)
    if not len(corpus):
        raise EmptySequence("cannot count n-grams of an empty sequence")
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    return NGramTable(corpus.symbols, corpus.codes, max_order, cyclic)


def block_entropy(table, order):
    """Plug-in entropy (bits) of blocks of the given order."""
    total = table.total_positions[order]
    if total == 0:
        raise InsufficientData(f"no windows of order {order}")
    # blocks seen equally often have equal terms: each distinct count c
    # enters once, with the number of blocks seen c times.  Below 2**53 the
    # float64 quotient equals Python's c / total
    counts, repeats = table._counts_of_counts(order)
    return plugin_entropy(counts / total, repeats)


def conditional_entropy_profile(table, coverage_cap=0.2):
    """Estimated H(X_i | X_1..X_{i-1}) for i = 1..k.

    The profile stops before the first order with no window left, and
    before the first order past 1 whose distinct blocks exceed
    ``coverage_cap`` of the window count (pass None to disable): beyond
    that point plug-in estimates collapse towards zero.  No order past the
    one that stops the profile is counted.

    With cyclic windows every order has the same windows, so an order with
    no more blocks than the one before has the same partition: each
    (k-1)-block determines its next token, every higher order has that
    partition too, and every later value is exactly 0.0.  Counting stops
    there, and the zeros up to ``max_order`` are emitted uncounted (or
    ResultTooLarge raised if they cannot be allocated).
    """
    values = []
    previous = 0.0
    blocks = 0
    for order in range(1, table.max_order + 1):
        total = table.total_positions[order]
        if not total:
            break
        counts, repeats = table._counts_of_counts(order)
        n_blocks = int(repeats.sum())
        if coverage_cap is not None and order > 1 and n_blocks > coverage_cap * total:
            break
        h_block = plugin_entropy(counts / total, repeats)
        values.append(h_block - previous)
        previous = h_block
        if table.cyclic and n_blocks == blocks:
            with allocating(f"max_order = {table.max_order}: a profile of that many "
                            "orders does not fit in memory"):
                values += [0.0] * (table.max_order - order)
                return infotheory.EntropyProfile(values, "rate", strict=False)
        blocks = n_blocks
    if not values:
        raise InsufficientData("sequence too short for any conditional estimate")
    return infotheory.EntropyProfile(values, "rate", strict=False)


def exact_periodic_profile(period, depth):
    """Exact per-position profile of a perfect periodic source with T types.

    An arbitrary subsequence with a uniformly chosen phase (the relaxed
    reading) gives [log2 T, 0, 0, ...].
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    values = [math.log2(period)] + [0.0] * (depth - 1)
    return infotheory.EntropyProfile(values, "rate", strict=False)


# ---------------------------------------------------------------------------
# Diagnostics


@dataclass(frozen=True)
class CerVerdict:
    flat: bool
    spread: float
    max_drop: float
    max_drop_position: int | None  # i such that the drop is values[i-1] -> values[i]


def cer_diagnostic(profile, tolerance):
    """Is the conditional entropy rate constant along the profile?"""
    values = list(profile.values)
    if not values:
        raise EmptySequence("empty profile")
    spread = max(values) - min(values)
    max_drop = 0.0
    position = None
    for i in range(1, len(values)):
        drop = values[i - 1] - values[i]
        if drop > max_drop:
            max_drop = drop
            position = i + 1  # 1-based index of the later profile entry
    return CerVerdict(spread <= tolerance, spread, max_drop, position)


@dataclass(frozen=True)
class UidClassification:
    verdict: str                     # full_uid | strong_uid | neither
    worst_spread: float              # max per-sequence spread over the support
    offending_sequence: tuple | None


def uid_classify(model):
    """Classify a joint model as full_uid / strong_uid / neither.

    strong: every supported sequence has constant conditional probabilities
    along its positions, up to a spread of ``infotheory.TIE_TOLERANCE`` (read
    at call time).  full: strong, and the support is the whole Cartesian
    product of the per-position alphabets.
    """
    if not model.roles:
        raise ArityMismatch("a model without roles has no conditional probabilities")
    # conditionals P(x_i | x_<i) = P(x_<=i) / P(x_<i) of every table row
    highest = lowest = prev = None
    for i in range(1, len(model.roles) + 1):
        group = model.grouping(model.roles[:i])
        joint = group.mass[group.inverse]
        if prev is None:
            highest = lowest = joint
        else:
            conditional = np.divide(joint, prev, out=np.zeros_like(joint),
                                    where=prev > 0)
            highest = np.maximum(highest, conditional)
            lowest = np.minimum(lowest, conditional)
        prev = joint
    spreads = highest - lowest
    worst = 0.0
    offender = None
    if len(spreads):
        row = int(np.argmax(spreads))  # the first row reaching the maximum
        if spreads[row] > 0.0:
            worst = float(spreads[row])
            offender = tuple(model.alphabets[r].symbols[c]
                             for r, c in zip(model.roles, model._codes[row].tolist()))
    if worst > infotheory.TIE_TOLERANCE:
        return UidClassification("neither", worst, offender)
    cardinality = math.prod(len(model.alphabets[r]) for r in model.roles)
    full_support = len(group.mass) == cardinality
    return UidClassification("full_uid" if full_support else "strong_uid", worst, None)


def uid_spread(sequence, model):
    """Max - min of the conditional probabilities of one concrete sequence."""
    if not model.roles:
        raise ArityMismatch("a model without roles has no conditional probabilities")
    if len(sequence) != len(model.roles):
        raise ArityMismatch("sequence length must match the model's role count")
    masses = [
        model.marginal(model.roles[:i]).get(tuple(sequence[:i]), 0.0)
        for i in range(1, len(sequence) + 1)
    ]
    probs = masses[:1] + [
        joint / prev if prev > 0 else 0.0 for prev, joint in zip(masses, masses[1:])
    ]
    return max(probs) - min(probs)


# ---------------------------------------------------------------------------
# Hilberg fitting and peak cost


@dataclass(frozen=True)
class HilbergFit:
    a: float
    gamma: float
    b: float
    variant: str          # pure (b = 0) | relaxed
    rms_residual: float


def hilberg_fit(profile, variant="relaxed"):
    """Least-squares fit of a * i^-gamma (+ b) by gamma grid search.

    Every gamma on the grid is solved in one array pass: row g of
    F = i^-gamma_g holds the regressor, the best nonnegative (a, b) of each
    row follow in closed form, and the first gamma with the smallest RMS
    residual wins.  The free (a, b) fit is solved on the centred F and y,
    which stays accurate where F is nearly constant (small gamma, short
    profiles); where it leaves the nonnegative quadrant, the optimum lies on
    the edge b = 0 or a = 0, whichever has the smaller squared error.
    """
    if variant not in ("pure", "relaxed"):
        raise ValueError(f"unknown variant {variant!r}")
    y = np.asarray(profile.values, dtype=float)
    if len(y) < 3:
        raise InsufficientData("need a profile of length >= 3 to fit")
    if y.max() - y.min() <= 1e-12:
        raise DegenerateProfile("constant profile: gamma is unidentifiable")
    with allocating(f"a gamma grid over {len(y)} values does not fit in memory"):
        i = np.arange(1, len(y) + 1, dtype=float)
        f = i ** -GAMMA_GRID[:, None]  # one row per gamma
        a = np.maximum(0.0, (f @ y) / np.sum(f * f, axis=1))  # best fit with b = 0
        b = np.zeros_like(a)
        if variant == "relaxed":
            y_mean, f_mean = y.mean(), f.mean(axis=1)
            f_centred = f - f_mean[:, None]
            a_free = (f_centred @ (y - y_mean)) / np.sum(f_centred * f_centred, axis=1)
            b_free = y_mean - a_free * f_mean
            b_edge = max(0.0, float(y_mean))
            edge_sse = np.sum((y - a[:, None] * f) ** 2, axis=1)  # on the edge b = 0
            offset_only = np.sum((y - b_edge) ** 2) < edge_sse
            free = (a_free >= 0) & (b_free >= 0)
            a = np.where(free, a_free, np.where(offset_only, 0.0, a))
            b = np.where(free, b_free, np.where(offset_only, b_edge, 0.0))
        rms = np.sqrt(np.mean((y - (a[:, None] * f + b[:, None])) ** 2, axis=1))
    k = int(np.argmin(rms))
    return HilbergFit(float(a[k]), float(GAMMA_GRID[k]), float(b[k]), variant,
                      float(rms[k]))


def peak_cost(profile):
    """Maximum profile value and the first (1-based) index attaining it."""
    values = list(profile.values)
    if not values:
        raise EmptySequence("empty profile")
    peak = max(values)
    return peak, values.index(peak) + 1


# ---------------------------------------------------------------------------
# Cross-module oracle: profile of an exact enumerable model


def model_rate_profile(model):
    """Exact H(X_i | X_1..X_{i-1}) from a joint model's true probabilities."""
    values = []
    previous = 0.0
    for i in range(1, len(model.roles) + 1):
        h_block = infotheory.entropy(model, model.roles[:i])
        values.append(h_block - previous)
        previous = h_block
    return infotheory.EntropyProfile(values, "rate", strict=False)
