"""The six S/V/O orders as a permutation ring, plus evolution machinery.

Two orders are adjacent when one is reached from the other by swapping two
adjacent constituents; on three constituents that relation is exactly a
6-cycle.  Transition kernels put a decaying weight on ring distance,
optionally reshaped by multiplicative word-order filters, and drive a
seeded ensemble simulator whose output can be compared against the
reference frequency dataset embedded below.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._rng import substream
from .errors import DegenerateRow, UnsupportedSource, allocating


class WordOrder(enum.Enum):
    SOV = "SOV"
    SVO = "SVO"
    VSO = "VSO"
    VOS = "VOS"
    OVS = "OVS"
    OSV = "OSV"

    def __str__(self):
        return self.value


# canonical listing (most to least frequent in the reference dataset), which
# is also the ring: consecutive entries differ by one adjacent swap, and the
# list wraps around
ORDERS = (
    WordOrder.SOV,
    WordOrder.SVO,
    WordOrder.VSO,
    WordOrder.VOS,
    WordOrder.OVS,
    WordOrder.OSV,
)


def as_order(value):
    if isinstance(value, WordOrder):
        return value
    return WordOrder(str(value).upper())


def ring_distance(a, b):
    """Minimum number of adjacent swaps turning one order into the other (0..3)."""
    i, j = ORDERS.index(as_order(a)), ORDERS.index(as_order(b))
    d = abs(i - j)
    return min(d, 6 - d)


def neighbors(order):
    """The two ring-adjacent orders."""
    i = ORDERS.index(as_order(order))
    return frozenset({ORDERS[i - 1], ORDERS[(i + 1) % 6]})


def triple_optimal_orders(target):
    """The two orders placing the given constituent last (uncertainty-optimal)."""
    last_letter = {"verb": "V", "object": "O", "subject": "S"}
    try:
        letter = last_letter[target]
    except KeyError:
        raise ValueError(f"target must be verb/object/subject, got {target!r}") from None
    return frozenset(o for o in ORDERS if o.value.endswith(letter))


# word-order filters: each names the set of destination orders it favours
FILTER_SETS = {
    "dlm": frozenset({WordOrder.SVO, WordOrder.OVS}),              # central verb
    "verb_uncertainty": frozenset({WordOrder.SOV, WordOrder.OSV}),  # verb last
    "nominal_uncertainty": frozenset({WordOrder.VSO, WordOrder.VOS}),  # verb first
    "agent_first": frozenset({WordOrder.SOV, WordOrder.SVO}),       # subject first
}


def predicted_destinations(source, use_ring, use_filter=None):
    """Most likely transition destinations from SOV or SVO.

    ring-only: nearest ring neighbours.  filter-only: the filter's optimal
    set.  both: the intersection.  Only the two documented sources are
    supported.
    """
    source = as_order(source)
    if source not in (WordOrder.SOV, WordOrder.SVO):
        raise UnsupportedSource(f"no documented predictions for source {source}")
    if not use_ring and use_filter is None:
        raise ValueError("need the ring, a filter, or both")
    if use_filter is not None and use_filter not in FILTER_SETS:
        raise ValueError(f"unknown filter {use_filter!r}")
    candidates = set(ORDERS)
    if use_ring:
        candidates &= neighbors(source)
    if use_filter is not None:
        candidates &= FILTER_SETS[use_filter]
    return tuple(o for o in ORDERS if o in candidates)


# ---------------------------------------------------------------------------
# Transition kernels and evolution


def _is_real(value):  # a JSON true is not the number 1
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class RingKernel:
    """Transition weights: decay(ring distance) times active filter boosts.

    decay kinds: exponential (e^{-beta d}), inverse_power (d^{-alpha}),
    tabulated ({1: w1, 2: w2, 3: w3}).  ``filters`` maps filter names to
    multiplicative weights applied to the orders each filter favours.
    """

    decay_kind: str = "exponential"
    decay_param: float | dict = 1.0
    filters: dict = field(default_factory=dict)
    self_weight: float = 0.0

    def __post_init__(self):
        if self.decay_kind not in ("exponential", "inverse_power", "tabulated"):
            raise ValueError(f"unknown decay kind {self.decay_kind!r}")
        if self.decay_kind == "tabulated":
            if not (isinstance(self.decay_param, dict)
                    and {1, 2, 3} <= set(self.decay_param)):
                raise ValueError(
                    "tabulated decay needs weights for distances 1, 2 and 3"
                )
            params = self.decay_param.values()
        else:
            params = [self.decay_param]
        if not all(_is_real(v) and math.isfinite(v) for v in params):
            raise ValueError(
                f"decay parameter {self.decay_param!r} is not a finite number"
            )
        if self.decay_kind == "tabulated" and any(v < 0 for v in params):
            raise ValueError("tabulated decay weights must be >= 0")
        if not _is_real(self.self_weight):
            raise ValueError(f"self_weight {self.self_weight!r} is not numeric")
        if self.self_weight < 0:
            raise ValueError("self_weight must be >= 0")
        if not math.isfinite(self.self_weight):
            raise ValueError(f"self_weight {self.self_weight!r} is not finite")
        if not isinstance(self.filters, dict):
            raise ValueError(f"filters {self.filters!r} are not a mapping")
        for name, weight in self.filters.items():
            if name not in FILTER_SETS:
                raise ValueError(f"unknown filter {name!r}")
            if not _is_real(weight):
                raise ValueError(f"filter weight {weight!r} is not numeric")
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(f"filter weight {weight!r} must be finite and >= 0")

    def decay(self, distance):
        # math, not numpy: np.exp's last bit depends on the CPU's SIMD kernels
        try:
            if self.decay_kind == "exponential":
                return math.exp(-self.decay_param * distance)
            if self.decay_kind == "inverse_power":
                return float(distance) ** -self.decay_param
        except OverflowError:
            # the result, or an integer exponent, is too large for a float.
            # The exponent has the sign of -param (distance >= 1, and a power
            # of 1 never overflows), so the weight is inf or 0.0 by that sign
            return math.inf if self.decay_param < 0 else 0.0
        return float(self.decay_param[distance])

    def destination_multiplier(self, order):
        mult = 1.0
        for name, weight in self.filters.items():
            if order in FILTER_SETS[name]:
                mult *= weight
        return mult


# ring distances between ORDERS, as indices into a row of decays
_DISTANCES = np.array([[ring_distance(a, b) for b in ORDERS] for a in ORDERS])


def transition_matrix(kernel):
    """Row-stochastic 6x6 matrix over ORDERS.

    Off the diagonal, cell (i, j) is decay(ring distance) times ORDERS[j]'s
    filter multiplier, each taken once; the diagonal is the self weight.
    Weights are finite and >= 0, so only a row total of zero, inf or nan
    fails to normalise: the first such row raises DegenerateRow.
    """
    decays = np.array([0.0, *map(kernel.decay, (1, 2, 3))])
    multipliers = [kernel.destination_multiplier(o) for o in ORDERS]
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = decays[_DISTANCES] * multipliers
        np.fill_diagonal(matrix, kernel.self_weight)
        totals = matrix.sum(axis=1)
    for src, total in zip(ORDERS, totals.tolist()):
        if total <= 0.0:
            raise DegenerateRow(f"all transition weights from {src} are zero")
        if not math.isfinite(total):
            raise DegenerateRow(
                f"transition weights from {src} overflow to a total of {total!r}"
            )
    matrix /= totals[:, None]
    return matrix


@dataclass(frozen=True)
class Trajectory:
    """Per-step empirical distribution over ORDERS for an evolved ensemble.

    Column j of ``frequencies`` is the share of chains in ``ORDERS[j]``.
    """

    frequencies: np.ndarray  # shape (steps + 1, 6), rows sum to 1

    def distribution(self, step):
        return dict(zip(ORDERS, self.frequencies[step]))


def evolve(kernel, start, steps, ensemble_size, seed):
    """Run an ensemble of independent chains; deterministic per seed.

    Chains are exchangeable, so only the number of chains in each state is
    kept.  Each step splits the chains in every state among their
    destinations with one multinomial draw over that state's row of
    ``transition_matrix(kernel)``, state by state in ``ORDERS`` order (a
    state with no chains draws nothing), and the next counts are the sums
    of those draws.  A step costs the same whatever ``ensemble_size`` is,
    and no array grows with it; a trajectory too large to allocate raises
    ResultTooLarge (``errors.allocating``).
    """
    if steps < 0 or ensemble_size < 1:
        raise ValueError("steps must be >= 0 and ensemble_size >= 1")
    start_idx = ORDERS.index(as_order(start))
    matrix = transition_matrix(kernel)
    rng = substream(seed, "ring", "evolve")
    counts = np.zeros(6, dtype=np.int64)
    counts[start_idx] = ensemble_size
    with allocating(f"steps = {steps}: a trajectory of {steps + 1} x 6 "
                    "frequencies does not fit in memory"):
        freqs = np.zeros((steps + 1, 6))
    freqs[0] = counts / ensemble_size
    for step in range(1, steps + 1):
        # row s of the draw is the multinomial(counts[s], matrix[s]) split
        counts = rng.multinomial(counts, matrix).sum(axis=0)
        freqs[step] = counts / ensemble_size
    return Trajectory(freqs)


# ---------------------------------------------------------------------------
# Reference frequency dataset (dominant word orders in world languages,
# counts per language and per family, with the percentages as printed)


@dataclass(frozen=True)
class ReferenceRow:
    language_count: int
    language_pct: float   # as printed (rounded to one decimal)
    family_count: int
    family_pct: float
    misprint_language_pct: bool = False


REFERENCE = {
    WordOrder.SOV: ReferenceRow(2275, 43.3, 239, 65.3),
    WordOrder.SVO: ReferenceRow(2117, 40.3, 55, 15.0),
    WordOrder.VSO: ReferenceRow(503, 9.6, 27, 7.4),
    WordOrder.VOS: ReferenceRow(174, 3.3, 15, 4.1),
    WordOrder.OVS: ReferenceRow(40, 0.8, 3, 0.8),
    WordOrder.OSV: ReferenceRow(19, 0.4, 1, 0.3),
}

NO_DOMINANT = ReferenceRow(124, 2.4, 26, 7.1)

# grouped rows by verb placement; the printed 13.9 for verb-initial
# languages disagrees with its own counts (677/5252 = 12.9) and with the
# table's column sum, hence the misprint flag
GROUPED = {
    "**V": ReferenceRow(2294, 43.7, 240, 65.6),
    "*V*": ReferenceRow(2157, 41.1, 58, 15.8),
    "V**": ReferenceRow(677, 13.9, 42, 11.5, misprint_language_pct=True),
}

TOTAL_LANGUAGES = 5252
TOTAL_FAMILIES = 366


def reference_distribution():
    """Table counts renormalized over the six dominant orders."""
    total = sum(row.language_count for row in REFERENCE.values())
    return {o: REFERENCE[o].language_count / total for o in ORDERS}


def compare_to_reference(distribution):
    """Total variation distance to the reference plus per-pair rank agreement.

    ``distribution`` maps the six orders to probabilities.  The distance is
    half the exact sum of the six absolute gaps, rounded once.  Rank agreement
    is reported for every ordered pair (a, b) with a more frequent than b
    in the reference: True when the given distribution also has a > b.
    """
    dist = {as_order(o): p for o, p in distribution.items()}
    ref = reference_distribution()
    tv = 0.5 * math.fsum(abs(dist.get(o, 0.0) - ref[o]) for o in ORDERS)
    agreements = []
    for i, a in enumerate(ORDERS):
        for b in ORDERS[i + 1:]:
            agreements.append(((a, b), dist.get(a, 0.0) > dist.get(b, 0.0)))
    return tv, agreements
