"""Dependency-length cost landscapes for a single head with n dependents.

The sequence has m positions (1-indexed); one holds the head, the other
m - 1 hold atomic dependents.  Cost is the sum over dependents of a
strictly increasing function of the head-dependent distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CostOverflow, NonMonotoneTransducer, PositionOutOfRange
from .infotheory import IDENTITY, CostTransducer


@dataclass(frozen=True)
class DependencyLandscape:
    """Cost per head position 1..m plus a verified quasi-convexity flag."""

    m: int
    costs: tuple[float, ...]
    transducer: CostTransducer
    quasi_convex: bool

    def min_positions(self):
        best = min(self.costs)
        tol = 1e-12 * max(1.0, abs(best))
        return frozenset(p + 1 for p, c in enumerate(self.costs) if c <= best + tol)

    def max_positions(self):
        worst = max(self.costs)
        tol = 1e-12 * max(1.0, abs(worst))
        return frozenset(p + 1 for p, c in enumerate(self.costs) if c >= worst - tol)


def dependency_sum(m, head_pos):
    """Sum of |head_pos - d| over the m - 1 dependent positions."""
    return dependency_cost(m, head_pos)


def dependency_cost(m, head_pos, transducer=IDENTITY):
    """Sum of g(|head_pos - d|) for a strictly increasing edge-cost g."""
    if m < 2:
        raise PositionOutOfRange(f"sequence length m={m} must be >= 2")
    if not 1 <= head_pos <= m:
        raise PositionOutOfRange(f"head position {head_pos} not in 1..{m}")
    if transducer.direction != "increasing":
        raise NonMonotoneTransducer("edge-cost transducer must be increasing")
    total = sum(
        transducer(abs(head_pos - d)) for d in range(1, m + 1) if d != head_pos
    )
    if isinstance(total, float) and not math.isfinite(total):
        raise CostOverflow(f"cost at head position {head_pos} of m={m} is {total!r}")
    return total


def min_dependency_sum(m):
    """Closed-form minimum: D = (m^2 - m mod 2) / 4 at the center position(s)."""
    if m < 2:
        raise PositionOutOfRange(f"sequence length m={m} must be >= 2")
    value = (m * m - m % 2) // 4
    if m % 2 == 1:
        positions = frozenset({(m + 1) // 2})
    else:
        positions = frozenset({m // 2, m // 2 + 1})
    return value, positions


def max_dependency_sum(m):
    """Closed-form maximum: D = m(m-1)/2 at the extreme positions {1, m}."""
    if m < 2:
        raise PositionOutOfRange(f"sequence length m={m} must be >= 2")
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
    """Full per-position cost list with an exhaustive quasi-convexity check."""
    costs = tuple(dependency_cost(m, p, transducer) for p in range(1, m + 1))
    return DependencyLandscape(m, costs, transducer, _is_quasi_convex(costs))
