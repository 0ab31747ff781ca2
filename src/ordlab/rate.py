"""Per-position conditional entropy estimation and entropy-rate diagnostics.

Estimates use the plug-in (maximum likelihood) estimator on sliding-window
block counts: H(X_i | X_1..X_{i-1}) = H_block(i) - H_block(i-1).  Blocks
are grouped, and their entropy taken, by the code that groups an exact
model's table (``ordlab._grouping``).  On top of the estimated profiles sit
the constant-entropy-rate check, the uniform information density
classifier, power-law decay fitting and the peak-cost functional.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import islice
from numbers import Integral

import numpy as np

from ._grouping import first_rows, plugin_entropy, roll
from .errors import (
    ArityMismatch,
    DegenerateProfile,
    EmptySequence,
    InsufficientData,
    UnsupportedModelSize,
)
from .infotheory import EntropyProfile, entropy

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

    The tokens are held as integer codes numbered in order of first
    occurrence.  An order is counted the first time something asks for it
    and its grouping is kept; orders nobody asks for are never counted.

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
        if cyclic:
            # append the wrap-around so every window of every order is a slice
            wrap = codes[:min(self._n, max_order) - 1]
            codes = np.concatenate([codes, wrap])
        self._codes = codes
        self._groups = {}  # counted order -> (group id per window, group sizes)
        self.counts = _OrderView(max_order, self._counter)
        self.total_positions = _OrderView(max_order, self._windows)

    def _windows(self, order):
        return self._n if self.cyclic else max(0, self._n - order + 1)

    def _column(self, order, windows):
        """Code of the order-th token of every window."""
        start = (order - 1) % self._n
        return self._codes[start:start + windows]

    def _grouping(self, order):
        """(group id of each window, size of each group) for one order.

        Order 1 groups by token code.  Order k rolls the groups of order
        k - 1 forward by one token code and numbers the distinct results in
        sorted order, so counted orders are always 1..m for some m.
        """
        if self._windows(order) == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        if not self._groups:
            # codes number the tokens by first occurrence: they are the groups
            inverse = self._column(1, self._n)
            self._groups[1] = inverse, np.bincount(inverse)
        for k in range(len(self._groups) + 1, order + 1):
            prefix, sizes = self._groups[k - 1]
            windows = self._windows(k)
            self._groups[k] = roll(prefix[:windows], len(sizes),
                                   len(self._vocabulary), self._column(k, windows))
        return self._groups[order]

    def _counter(self, order):
        inverse, sizes = self._grouping(order)
        if not len(inverse):
            return Counter()
        if order == 1:
            keys = [(token,) for token in self._vocabulary]
            return Counter(dict(zip(keys, sizes.tolist())))
        # each block is decoded at its first window, so the blocks come in
        # order of first occurrence
        starts = first_rows(inverse, len(sizes))
        tokens = np.fromiter(self._vocabulary, object, len(self._vocabulary))
        columns = [tokens[self._column(k, len(inverse))[starts]].tolist()
                   for k in range(1, order + 1)]
        return Counter(dict(zip(zip(*columns), sizes[inverse[starts]].tolist())))


def ngram_counts(sequence, max_order, cyclic=False):
    """Code a sequence for block counting of every order 1..max_order.

    Nothing is counted here: each order is counted on first use (see
    :class:`NGramTable`).  With ``cyclic=True`` windows wrap around the end
    of the sequence, which makes the counts of a perfectly periodic sequence
    exact rather than edge-biased.
    """
    index = defaultdict()
    index.default_factory = index.__len__  # a new token gets the next code
    codes = np.fromiter(map(index.__getitem__, sequence), np.int64)
    if not len(codes):
        raise EmptySequence("cannot count n-grams of an empty sequence")
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    return NGramTable(list(index), codes, max_order, cyclic)


def block_entropy(table, order):
    """Plug-in entropy (bits) of blocks of the given order."""
    total = table.total_positions[order]
    if total == 0:
        raise InsufficientData(f"no windows of order {order}")
    # below 2**53 the float64 quotient equals Python's c / total
    return plugin_entropy(table._grouping(order)[1] / total)


def conditional_entropy_profile(table, min_windows=1, coverage_cap=0.2):
    """Estimated H(X_i | X_1..X_{i-1}) for i = 1..k.

    The profile is truncated once distinct blocks exceed ``coverage_cap``
    of the window count (pass None to disable): beyond that point plug-in
    estimates collapse towards zero.  Raises InsufficientData when not even
    the unigram estimate clears ``min_windows``.  No order past the one
    that stops the profile is counted.
    """
    values = []
    previous = 0.0
    for order in range(1, table.max_order + 1):
        total = table.total_positions[order]
        if total < min_windows:
            break
        if (
            coverage_cap is not None
            and order > 1
            and len(table._grouping(order)[1]) > coverage_cap * total
        ):
            break
        h_block = block_entropy(table, order)
        values.append(h_block - previous)
        previous = h_block
    if not values:
        raise InsufficientData("sequence too short for any conditional estimate")
    return EntropyProfile(values, "rate", strict=False)


def exact_periodic_profile(period, depth, reading="relaxed"):
    """Exact per-position profile of a perfect periodic source with T types.

    relaxed reading (arbitrary subsequence, uniformly chosen phase):
    [log2 T, 0, 0, ...].  full-history reading (position 1 is always the
    block start): all zeros.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    if reading == "full":
        return EntropyProfile([0.0] * depth, "rate", strict=False)
    if reading != "relaxed":
        raise ValueError(f"unknown reading {reading!r}")
    values = [math.log2(period)] + [0.0] * (depth - 1)
    return EntropyProfile(values, "rate", strict=False)


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


def uid_classify(model, tolerance=1e-9, enumeration_cap=200_000):
    """Classify a joint model as full_uid / strong_uid / neither.

    strong: every supported sequence has constant conditional probabilities
    along its positions.  full: strong, and the support is the whole
    Cartesian product of the per-position alphabets.
    """
    if not model.roles:
        raise ArityMismatch("a model without roles has no conditional probabilities")
    cardinality = math.prod(len(model.alphabets[r]) for r in model.roles)
    if cardinality > enumeration_cap:
        raise UnsupportedModelSize(
            f"support enumeration over {cardinality} tuples exceeds the cap"
        )
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
            offender = next(islice(model.table, row, None))
    if worst > tolerance:
        return UidClassification("neither", worst, offender)
    full_support = len(model.table) == cardinality
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

    For each gamma on the grid the best nonnegative (a, b) follow from a
    closed-form linear solve; the gamma with the smallest RMS residual wins.
    """
    if variant not in ("pure", "relaxed"):
        raise ValueError(f"unknown variant {variant!r}")
    y = np.asarray(profile.values, dtype=float)
    if len(y) < 3:
        raise InsufficientData("need a profile of length >= 3 to fit")
    if y.max() - y.min() <= 1e-12:
        raise DegenerateProfile("constant profile: gamma is unidentifiable")
    i = np.arange(1, len(y) + 1, dtype=float)
    best = None
    for gamma in GAMMA_GRID:
        f = i ** -gamma
        a, b = max(0.0, float(f @ y) / float(f @ f)), 0.0  # best fit with b = 0
        if variant == "relaxed":
            design = np.column_stack([f, np.ones_like(f)])
            coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
            if coef[0] >= 0 and coef[1] >= 0:
                a, b = float(coef[0]), float(coef[1])
            else:  # the nonnegative optimum lies on the edge b = 0 or a = 0
                b_edge = max(0.0, float(y.mean()))
                if np.sum((y - b_edge) ** 2) < np.sum((y - a * f) ** 2):
                    a, b = 0.0, b_edge
        residual = y - (a * f + b)
        rms = float(np.sqrt(np.mean(residual**2)))
        if best is None or rms < best.rms_residual:
            best = HilbergFit(a, float(gamma), b, variant, rms)
    return best


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
        h_block = entropy(model, model.roles[:i])
        values.append(h_block - previous)
        previous = h_block
    return EntropyProfile(values, "rate", strict=False)
