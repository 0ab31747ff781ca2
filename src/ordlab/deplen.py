"""Dependency-length cost landscapes for a single head with n dependents.

The sequence has m positions (1-indexed); one holds the head, the other
m - 1 hold atomic dependents.  Cost is the sum over dependents of a
strictly increasing function of the head-dependent distance.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

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
        tol = 1e-12 * max(1.0, abs(best))
        return frozenset(p + 1 for p, c in enumerate(self.costs) if c <= best + tol)

    def max_positions(self):
        worst = max(self.costs)
        tol = 1e-12 * max(1.0, abs(worst))
        return frozenset(p + 1 for p, c in enumerate(self.costs) if c >= worst - tol)


def _check_args(m, transducer, head_pos=1):
    if m < 2:
        raise PositionOutOfRange(f"sequence length m={m} must be >= 2")
    if not 1 <= head_pos <= m:
        raise PositionOutOfRange(f"head position {head_pos} not in 1..{m}")
    if transducer.direction != "increasing":
        raise NonMonotoneTransducer("edge-cost transducer must be increasing")


def _check_finite(m, head_pos, total):
    if isinstance(total, float) and not math.isfinite(total):
        raise CostOverflow(f"cost at head position {head_pos} of m={m} is {total!r}")
    return total


def dependency_cost(m, head_pos, transducer=IDENTITY):
    """Sum of g(|head_pos - d|) for a strictly increasing edge-cost g.

    The terms are added left to right in position order d = 1..m (an
    explicit fold: float ``sum()`` is compensated from CPython 3.12 on).
    """
    _check_args(m, transducer, head_pos)
    terms = (transducer(abs(head_pos - d)) for d in range(1, m + 1) if d != head_pos)
    return _check_finite(m, head_pos, reduce(operator.add, terms, 0))


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


def _float_costs(m, values):
    # mirrored edge costs h[m - 1 + j] = g(|j|), with -0.0 (an exact additive
    # identity) at the head's own position; the slice for d adds g(|p - d|)
    # to every row p, so each row receives its terms in position order
    g = np.array(values, np.float64)
    h = np.empty(2 * m - 1)
    h[m:] = g
    h[:m - 1] = g[::-1]
    h[m - 1] = -0.0
    acc = np.zeros(m)
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(1, m + 1):
            acc += h[m - d:2 * m - d]
    bad = np.flatnonzero(~np.isfinite(acc))
    if bad.size:
        _check_finite(m, int(bad[0]) + 1, float(acc[bad[0]]))
    return tuple(acc.tolist())


def landscape(m, transducer=IDENTITY):
    """Full per-position cost list with an exhaustive quasi-convexity check.

    Equals ``dependency_cost`` at every position.  The transducer is called
    once per distance, g(1) .. g(m - 1), in that order.  Integer edge costs
    give exact integer costs from prefix sums; float costs are summed in
    position order, one vectorised sweep per position d, so every cost has
    the same bits as the left-to-right fold (mixed edge costs count as
    floats).  The m - 1 edge costs are allocated in one step, so an m too
    large for memory raises ResultTooLarge at once instead of growing.
    """
    _check_args(m, transducer)
    with allocating(f"m = {m}: {m - 1} edge costs do not fit in memory"):
        values = [None] * (m - 1)
    values[:] = map(transducer, range(1, m))
    if all(type(v) is int for v in values):
        prefix = list(itertools.accumulate(values, initial=0))
        costs = tuple(prefix[p - 1] + prefix[m - p] for p in range(1, m + 1))
    else:
        costs = _float_costs(m, values)
    return DependencyLandscape(m, costs, _is_quasi_convex(costs))
