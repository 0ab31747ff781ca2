"""Dependency-length cost landscapes for a single head with n dependents.

The sequence has m positions (1-indexed); one holds the head, the other
m - 1 hold atomic dependents.  Cost is the exact sum over dependents of a
strictly increasing function of the head-dependent distance, rounded once
to a float unless every term is an int; mirror positions cost the same.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import (CostOverflow, NonMonotoneTransducer, PositionOutOfRange,
                     allocating)
from .infotheory import IDENTITY


@dataclass(frozen=True)
class DependencyLandscape:
    """Cost per head position 1..m plus a verified quasi-convexity flag."""

    m: int
    costs: tuple[float, ...]
    quasi_convex: bool

    def min_positions(self):
        best = min(self.costs)
        return frozenset(p + 1 for p, c in enumerate(self.costs) if c == best)

    def max_positions(self):
        worst = max(self.costs)
        return frozenset(p + 1 for p, c in enumerate(self.costs) if c == worst)


def _check_args(m, transducer):
    if m < 2:
        raise PositionOutOfRange(f"sequence length m={m} must be >= 2")
    if transducer.direction != "increasing":
        raise NonMonotoneTransducer("edge-cost transducer must be increasing")


def _costs(m, values, positions):
    """Costs S(p - 1) + S(m - p) at head positions p, S(k) = g(1) + ... + g(k).

    ``values`` holds g(1), g(2), ... as far as the positions need.  A finite
    float is an integer over a power of two, so the edge costs, as floats,
    are scaled to one denominator and summed exactly as ints; ``int / int``
    then rounds each cost once, correctly.
    """
    exact = all(type(v) is int for v in values)
    if not exact:
        try:
            ratios = list(map(float.as_integer_ratio, map(float, values)))
        except (OverflowError, ValueError):  # an inf or nan is a term of every cost
            raise CostOverflow(f"cost at head position {positions[0]} of m={m} "
                               f"is {sum(values)!r}") from None
        den = max(d for _, d in ratios)
        values = [n * (den // d) for n, d in ratios]
    prefix = list(itertools.accumulate(values, initial=0))
    if exact:
        return [prefix[p - 1] + prefix[m - p] for p in positions]
    costs = []
    for p in positions:
        total = prefix[p - 1] + prefix[m - p]
        try:
            costs.append(total / den)
        except OverflowError:
            raise CostOverflow(f"cost at head position {p} of m={m} is "
                               f"{'inf' if total > 0 else '-inf'}") from None
    return costs


def min_dependency_sum(m):
    """Closed-form minimum: D = (m^2 - m mod 2) / 4 at the center position(s)."""
    _check_args(m, IDENTITY)
    value = (m * m - m % 2) // 4
    if m % 2 == 1:
        positions = frozenset({(m + 1) // 2})
    else:
        positions = frozenset({m // 2, m // 2 + 1})
    return value, positions


def max_dependency_sum(m):
    """Closed-form maximum: D = m(m-1)/2 at the extreme positions {1, m}."""
    _check_args(m, IDENTITY)
    return m * (m - 1) // 2, frozenset({1, m})


def _is_quasi_convex(costs):
    # no interior strict local maximum: costs must fall (weakly) to a single
    # basin and rise (weakly) after it
    falling = True
    for a, b in zip(costs, costs[1:]):
        if falling:
            if b > a:
                falling = False
        elif b < a:
            return False
    return True


def landscape(m, transducer=IDENTITY):
    """Full per-position cost list with an exhaustive quasi-convexity check.

    The transducer's map is applied once per distance, g(1) .. g(m - 1), in
    that order.  Each cost is the exact sum of its terms: an integer when
    every edge cost is an int, else the exact sum of the edge costs as
    floats, rounded once to a float, so mirror positions have equal costs,
    bit for bit.  The m - 1 edge costs are allocated in one step, so an m
    too large for memory raises ResultTooLarge at once instead of growing.
    """
    _check_args(m, transducer)
    with allocating(f"m = {m}: {m - 1} edge costs do not fit in memory"):
        values = [None] * (m - 1)
    values[:] = transducer._each(range(1, m))
    costs = tuple(_costs(m, values, range(1, m + 1)))
    return DependencyLandscape(m, costs, _is_quasi_convex(costs))
