"""Uncertainty minimization versus dependency length minimization.

Puts both objectives on a shared axis: the head position p in 1..m.  The
dependency cost comes from a star landscape; the head's uncertainty is its
conditional entropy given the p - 1 dependents already produced.  Following
elements never enter the conditioning.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import deplen
from .infotheory import _optimum_set, uncertainty_profile


@dataclass(frozen=True)
class ConflictReport:
    """Per-head-position dependency cost and head uncertainty (bits)."""

    m: int
    dep_costs: tuple[float, ...]      # indexed by head position 1..m
    uncertainties: tuple[float, ...]  # H(head | first p-1 dependents)

    def positions(self):
        return range(1, self.m + 1)

    def row(self, p):
        return self.dep_costs[p - 1], self.uncertainties[p - 1]


def conflict_report(model, context_order, target=None):
    """Cost table over all head positions for one model and dependent order."""
    profile = uncertainty_profile(model, context_order, target)
    m = len(profile)  # the head plus its dependents
    dep_costs = deplen.landscape(m).costs
    uncertainties = tuple(profile.values)  # profile[i] with i = p - 1
    return ConflictReport(m, dep_costs, uncertainties)


def pareto_front(report):
    """Head positions not dominated in (dependency cost, uncertainty)."""
    rows = [(p, *report.row(p)) for p in report.positions()]
    front = set()
    for p, dep, unc in rows:
        dominated = any(
            (d2 <= dep and u2 <= unc) and (d2 < dep or u2 < unc)
            for q, d2, u2 in rows
            if q != p
        )
        if not dominated:
            front.add(p)
    return frozenset(front)


def _minmax(column):
    lo, hi = min(column), max(column)
    if hi - lo <= 0.0:
        return [0.0] * len(column)
    return [(v - lo) / (hi - lo) for v in column]


def weighted_optimum(report, lam):
    """Argmin set of lam * dep_hat + (1 - lam) * H_hat.

    Both columns are min-max normalized first: bits and word distances are
    incommensurable and no exchange rate is given.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    dep_hat = _minmax(report.dep_costs)
    unc_hat = _minmax(report.uncertainties)
    scores = [lam * d + (1.0 - lam) * u for d, u in zip(dep_hat, unc_hat)]
    return _optimum_set(scores, maximize=False, start=1)


@dataclass(frozen=True)
class AsymmetryVerdict:
    """extreme_is_worst_for_dlm always holds; the converse is checked.

    ``center_is_worst_for_uncertainty`` is None (not applicable) when the
    uncertainty column is flat, i.e. every position ties with the least
    uncertainty: the dependents carry no information about the head.
    """

    extreme_is_worst_for_dlm: bool
    center_is_worst_for_uncertainty: bool | None


def asymmetry_check(model, context_order, target=None):
    report = conflict_report(model, context_order, target)
    worst_dep = max(report.dep_costs)
    extreme_worst = report.dep_costs[0] == worst_dep == report.dep_costs[-1]
    if len(_optimum_set(report.uncertainties, maximize=False)) == report.m:
        return AsymmetryVerdict(extreme_worst, None)
    _, centers = deplen.min_dependency_sum(report.m)
    worst_unc = _optimum_set(report.uncertainties, maximize=True, start=1)
    return AsymmetryVerdict(extreme_worst, centers <= worst_unc)
