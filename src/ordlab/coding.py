"""Optimal-coding reduction machinery.

Code lengths are integers (symbol counts); the ideal fractional length
-log2 p is exposed as a diagnostic only.  Contextual tables extend plain
type tables with a preceding context block, and the Kendall tau condition
tau(p, l) <= 0 characterizes optimal assignments in both settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import check_mass
from .errors import (
    AllTied,
    ArityMismatch,
    InputParseError,
    LengthBelowFloor,
    UnknownTarget,
    ZeroProbability,
    ZeroTargetMass,
)


def _check_floor(lengths, allow_full_reduction):
    floor = 0 if allow_full_reduction else 1
    if any(l < floor for l in lengths):
        raise LengthBelowFloor(f"lengths must be >= {floor}")


@dataclass(frozen=True)
class TypeTable:
    """Per-type probability and integer code length."""

    probabilities: tuple[float, ...]
    lengths: tuple[int, ...]
    allow_full_reduction: bool = False

    def __post_init__(self):
        object.__setattr__(self, "probabilities", tuple(self.probabilities))
        object.__setattr__(self, "lengths", tuple(self.lengths))
        if len(self.probabilities) != len(self.lengths):
            raise ArityMismatch("probabilities and lengths must align")
        check_mass(self.probabilities, "type table")
        _check_floor(self.lengths, self.allow_full_reduction)

    def pairs(self):
        """(probability, length) per type."""
        return zip(self.probabilities, self.lengths)


@dataclass(frozen=True)
class ContextTable:
    """Per-(context block, target) probability and length.

    ``entries`` maps (context tuple, target) to (probability, length), read
    once, at construction; unseen combinations carry zero mass and are omitted.
    """

    entries: dict[tuple[tuple, str], tuple[float, int]]
    context_order: int
    allow_full_reduction: bool = False

    def __post_init__(self):
        terms = {}
        for (context, y), (p, l) in self.entries.items():
            if len(context) != self.context_order:
                raise ArityMismatch("context arity mismatch")
            terms.setdefault(y, []).append((p * l, p))
        check_mass((p for p, _ in self.entries.values()), "context table")
        _check_floor((l for _, l in self.pairs()), self.allow_full_reduction)
        object.__setattr__(self, "_sums", {  # y: (L_n(y), p(y)), each rounded once
            y: tuple(map(math.fsum, zip(*t))) for y, t in terms.items()})

    def pairs(self):
        """(probability, length) per (context, target) entry."""
        return self.entries.values()

    def targets(self):
        return sorted(self._sums)

    def target_mass(self, y):
        return self._sums[y][1] if y in self._sums else 0.0


def ideal_lengths(probabilities):
    """Fractional -log2 p diagnostic column."""
    probabilities = tuple(probabilities)
    if not all(p > 0 for p in probabilities):
        raise ZeroProbability("all probabilities must be positive")
    return tuple(0.0 - math.log2(p) for p in probabilities)  # p = 1 gives +0.0


def optimal_lengths(probabilities, allow_full_reduction=False):
    """Shannon code lengths: l = ceil(-log2 p) per type.

    ``math.log2`` is exact on powers of two, so these satisfy the Kraft
    inequality and come within one symbol of the entropy, but are not
    always the minimum mean length (for p = (0.9, 0.1) they give (1, 4),
    Huffman gives (1, 1)).  Without the full-reduction flag, lengths are
    floored at 1 (non-singular coding).
    """
    lengths = []
    for ideal in ideal_lengths(probabilities):
        length = math.ceil(ideal)
        if not allow_full_reduction:
            length = max(1, length)
        lengths.append(max(0, length))
    return tuple(lengths)


def mean_length(table):
    """L = sum p l over the table's pairs; L_n on a context table (L when n = 0)."""
    return math.fsum(p * l for p, l in table.pairs())


def per_target_length(table, y):
    """L_n(y): the y-slice of the contextual mean length."""
    if y not in table._sums:
        raise UnknownTarget(f"target {y!r} not present in the table")
    return table._sums[y][0]


def renormalized_length(table, y):
    """M_n(y) = L_n(y) / p(y), the mean length of y across its contexts."""
    length, mass = per_target_length(table, y), table.target_mass(y)
    if mass <= 0:
        raise ZeroTargetMass(f"target {y!r} has zero total mass")
    return length / mass


def _tied_pairs(values):
    _, counts = np.unique(values, return_counts=True, axis=0)
    return int((counts * (counts - 1) // 2).sum())


def _inversions(ranks):
    """Pairs i < j with ranks[i] > ranks[j], counted with a Fenwick tree."""
    tree = [0] * (len(ranks) + 1)  # dense ranks are < len(ranks)
    count = 0
    for seen, rank in enumerate(ranks.tolist()):
        count += seen
        k = rank + 1
        while k:  # minus the earlier elements ranked <= rank
            count -= tree[k]
            k &= k - 1
        k = rank + 1
        while k < len(tree):
            tree[k] += 1
            k += k & -k
    return count


def kendall_tau(pairs):
    """Tie-corrected Kendall tau-b over (probability, length) pairs.

    Knight's O(n log n) count: sorted by (p, l), the discordant pairs are the
    inversions of the l ranks.  The arithmetic is scipy's, bit for bit.
    """
    pairs = np.array(list(pairs), dtype=float).reshape(-1, 2)
    n = len(pairs)
    if n < 2:
        raise ValueError("need at least 2 pairs")
    p, l = pairs[:, 0], pairs[:, 1]
    _, l_ranks = np.unique(l[np.lexsort((l, p))], return_inverse=True)
    # n0 pairs in all; n1 tied in p, n2 tied in l, n3 tied in both
    n0 = n * (n - 1) // 2
    n1, n2, n3 = _tied_pairs(p), _tied_pairs(l), _tied_pairs(pairs)
    if n1 == n0 or n2 == n0:
        raise AllTied("correlation undefined: one of the variables is constant")
    concordant_minus_discordant = n0 - n1 - n2 + n3 - 2 * _inversions(l_ranks)
    tau = concordant_minus_discordant / math.sqrt(n0 - n1) / math.sqrt(n0 - n2)
    return min(1.0, max(-1.0, tau))


@dataclass(frozen=True)
class AbbreviationVerdict:
    holds: bool
    tau: float | None
    all_tied: bool


def abbreviation_check(table):
    """Zipf's law of abbreviation at optimal coding: tau(p, l) <= 0.

    An all-tied table, one type included, has no defined correlation; the
    verdict then holds vacuously.
    """
    pairs = list(table.pairs())
    if len(pairs) < 2:
        return AbbreviationVerdict(True, None, True)
    try:
        tau = kendall_tau(pairs)
    except AllTied:
        return AbbreviationVerdict(True, None, True)
    return AbbreviationVerdict(tau <= 0.0, tau, False)


def kraft_sum(lengths):
    """sum 2^-l; <= 1 for any uniquely decipherable code."""
    return math.fsum(2.0 ** -l for l in lengths)


def report(types, probabilities, contexts, lengths=None, allow_full_reduction=False):
    """Data rows (context, type, p, length, ideal length) and summary rows.

    Each context is a tuple, () in a plain table; missing lengths are the
    Shannon lengths of ``optimal_lengths``.
    Summary: L, or L_n then L_n(y), M_n(y) per sorted target; tau, verdict.
    """
    check_mass(probabilities, "coding table")
    if lengths is None:
        lengths = optimal_lengths(probabilities, allow_full_reduction)
    rows = list(zip(map(",".join, contexts), types, probabilities, lengths,
                    ideal_lengths(probabilities)))
    if not contexts[0]:
        table = TypeTable(probabilities, lengths, allow_full_reduction)
        summary = [("L", mean_length(table))]
    else:
        entries = {}
        for key, p, l in zip(zip(contexts, types), probabilities, lengths):
            if key in entries:
                raise InputParseError(f"coding table repeats (context, type) {key!r}")
            entries[key] = (p, l)
        table = ContextTable(entries, len(contexts[0]), allow_full_reduction)
        summary = [("L_n", mean_length(table))]
        for y in table.targets():
            summary.append(("L_n_y", y, per_target_length(table, y)))
            summary.append(("M_n_y", y, renormalized_length(table, y)))
    verdict = abbreviation_check(table)
    tau = "undefined" if verdict.tau is None else verdict.tau
    return rows, summary + [("tau", tau), ("abbreviation_holds", int(verdict.holds))]
