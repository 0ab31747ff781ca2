import math

import pytest

from conftest import random_joint_model
from ordlab import conflict, deplen, distributions as d, infotheory as it


def make_report(model):
    order = tuple(r for r in model.roles if r != "y")
    return conflict.conflict_report(model, order)


class TestConflictReport:
    def test_columns_match_component_modules(self, and_model):
        report = make_report(and_model)
        prof = it.uncertainty_profile(and_model, ("x1", "x2"))
        assert report.uncertainties == tuple(prof.values)
        assert report.dep_costs == deplen.landscape(report.m).costs

    def test_m_counts_head_and_dependents(self, and_model):
        report = make_report(and_model)
        assert report.m == 3
        assert len(report.dep_costs) == 3
        assert len(report.uncertainties) == 3

    def test_row_accessor(self, and_model):
        report = make_report(and_model)
        assert report.row(1) == (report.dep_costs[0], report.uncertainties[0])


class TestParetoFront:
    def test_brute_force_oracle(self):
        for seed in range(30):
            m = random_joint_model(seed)
            report = make_report(m)
            got = conflict.pareto_front(report)
            # quadratic domination check written independently
            rows = {p: report.row(p) for p in report.positions()}
            want = set()
            for p, (dep, unc) in rows.items():
                dominated = False
                for q, (d2, u2) in rows.items():
                    if q == p:
                        continue
                    if d2 <= dep and u2 <= unc and (d2 < dep or u2 < unc):
                        dominated = True
                        break
                if not dominated:
                    want.add(p)
            assert got == frozenset(want)

    def test_front_nonempty(self):
        for seed in range(30):
            assert conflict.pareto_front(make_report(random_joint_model(seed)))

    def test_flat_uncertainty_front_is_dlm_optimum(self):
        m = d.make_iid({"a": 0.5, "b": 0.5}, 4, target_role="x1")
        report = conflict.conflict_report(m, ("x2", "x3", "x4"), "x1")
        _, centers = deplen.min_dependency_sum(4)
        assert conflict.pareto_front(report) == centers


class TestWeightedOptimum:
    def test_lambda_one_recovers_dlm(self):
        for seed in range(20):
            m = random_joint_model(seed)
            report = make_report(m)
            _, centers = deplen.min_dependency_sum(report.m)
            assert conflict.weighted_optimum(report, 1.0) == centers

    def test_lambda_zero_recovers_uncertainty_optimum(self):
        for seed in range(20):
            m = random_joint_model(seed)
            order = tuple(r for r in m.roles if r != "y")
            report = conflict.conflict_report(m, order)
            placements = it.optimal_target_placement(m, order, "uncertainty")
            # placement index i corresponds to head position i + 1
            want = frozenset(i + 1 for i in placements)
            assert conflict.weighted_optimum(report, 0.0) == want

    def test_optimum_lies_on_pareto_front(self):
        for seed in range(20):
            report = make_report(random_joint_model(seed))
            front = conflict.pareto_front(report)
            for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
                assert conflict.weighted_optimum(report, lam) <= front

    def test_lambda_out_of_range(self, and_model):
        report = make_report(and_model)
        with pytest.raises(ValueError):
            conflict.weighted_optimum(report, 1.5)
        with pytest.raises(ValueError):
            conflict.weighted_optimum(report, -0.1)

    def test_flat_column_yields_all_positions_at_pure_weight(self):
        m = d.make_iid({"a": 0.5, "b": 0.5}, 3, target_role="x1")
        report = conflict.conflict_report(m, ("x2", "x3"), "x1")
        assert conflict.weighted_optimum(report, 0.0) == frozenset({1, 2, 3})

    def test_tie_boundary(self):
        # at lam = 0 the scores are the normalised uncertainties (1, TIE, 0):
        # a score exactly TIE_TOLERANCE above the best ties, the next float not
        tie = it.TIE_TOLERANCE
        report = conflict.ConflictReport(3, (2.0, 1.0, 2.0), (1.0, tie, 0.0))
        assert conflict.weighted_optimum(report, 0.0) == frozenset({2, 3})
        beyond = math.nextafter(tie, 1.0)
        report = conflict.ConflictReport(3, (2.0, 1.0, 2.0), (1.0, beyond, 0.0))
        assert conflict.weighted_optimum(report, 0.0) == frozenset({3})


class TestAsymmetry:
    def test_informative_model(self, and_model):
        verdict = conflict.asymmetry_check(and_model, ("x1", "x2"))
        assert verdict.extreme_is_worst_for_dlm is True
        assert verdict.center_is_worst_for_uncertainty in (True, False)

    def test_flat_profile_not_applicable(self):
        m = d.make_iid({"a": 0.5, "b": 0.5}, 4, target_role="x1")
        verdict = conflict.asymmetry_check(m, ("x2", "x3", "x4"), "x1")
        assert verdict.extreme_is_worst_for_dlm is True
        assert verdict.center_is_worst_for_uncertainty is None

    def test_extremes_always_worst_over_seeds(self):
        for seed in range(30):
            m = random_joint_model(seed)
            order = tuple(r for r in m.roles if r != "y")
            verdict = conflict.asymmetry_check(m, order)
            assert verdict.extreme_is_worst_for_dlm is True

    def test_tie_boundary(self, monkeypatch, and_model):
        # the center is worst while it lies exactly TIE_TOLERANCE below the
        # worst uncertainty (2 * TIE - TIE is exact), and not one float lower
        tie = it.TIE_TOLERANCE

        def center_worst(center):
            report = conflict.ConflictReport(3, (2.0, 1.0, 2.0), (2 * tie, center, 0.0))
            monkeypatch.setattr(conflict, "conflict_report", lambda *a: report)
            verdict = conflict.asymmetry_check(and_model, ("x1", "x2"))
            return verdict.center_is_worst_for_uncertainty

        assert center_worst(tie) is True
        assert center_worst(math.nextafter(tie, 0.0)) is False

    def test_monotone_profile_makes_center_not_worst(self, and_model):
        # AND-model uncertainty strictly decreases, so the worst position is
        # the first, never the center
        verdict = conflict.asymmetry_check(and_model, ("x1", "x2"))
        assert verdict.center_is_worst_for_uncertainty is False
