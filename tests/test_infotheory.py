import itertools
import math

import pytest

from conftest import random_joint_model
from ordlab import conflict, rate
from ordlab import distributions as d
from ordlab import infotheory as it
from ordlab.errors import (
    NonMonotoneTransducer,
    NotAPermutation,
    RoleOverlap,
    UnknownRole,
)


def brute_force_conditional_entropy(model, target, context):
    """Independent oracle: -sum p(y, x) log2 p(y | x) over all outcomes."""
    joint = model.marginal((target,) + tuple(context))
    ctx = model.marginal(tuple(context)) if context else None
    total = 0.0
    for key, p in joint.items():
        if p <= 0:
            continue
        p_ctx = ctx[key[1:]] if context else 1.0
        total -= p * math.log2(p / p_ctx)
    return total


def brute_force_mutual_information(model, target, context):
    """Oracle via the Kullback-Leibler form sum p(y,x) log p(y,x)/(p(y)p(x))."""
    if not context:
        return 0.0
    joint = model.marginal((target,) + tuple(context))
    py = model.marginal((target,))
    px = model.marginal(tuple(context))
    return math.fsum(
        p * math.log2(p / (py[(key[0],)] * px[key[1:]]))
        for key, p in joint.items()
        if p > 0
    )


class TestEntropy:
    def test_fair_coin(self):
        m = d.make_iid({"a": 0.5, "b": 0.5}, 2)
        assert m.entropy(("x1",)) == 1.0

    def test_point_mass(self):
        m = d.make_iid({"a": 1.0}, 2)
        assert m.entropy(("x1",)) == 0.0

    def test_deterministic_model_has_positive_zero_entropy(self):
        m = d.make_joint(("y", "x1"), {("a", "b"): 1.0})
        for roles in (("y",), ("x1",), ("y", "x1")):
            h = m.entropy(roles)
            assert h == 0.0
            assert math.copysign(1.0, h) == 1.0

    def test_dyadic_three_symbols(self):
        m = d.make_iid({"a": 0.5, "b": 0.25, "c": 0.25}, 1)
        assert m.entropy(("x1",)) == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_order_of_a_role_set_gives_the_same_bits(self, seed):
        model = random_joint_model(seed)
        for k in range(len(model.roles) + 1):
            for subset in itertools.combinations(model.roles, k):
                # grouping memoises by role order, so each order is computed anew
                bits = {model.grouping(p).entropy.hex()
                        for p in itertools.permutations(subset)}
                assert len(bits) == 1
                for order in itertools.permutations(subset):
                    assert model.entropy(order).hex() in bits

    def test_a_memo_hit_still_checks_roles(self):
        model = random_joint_model(1)
        h = model.entropy(("y", "x1"))
        assert model.entropy(iter(("x1", "y"))) == h
        assert model.entropy(("x1", "y", "x1")) == h
        for roles in (("x1", "nope"), ("y", "x1", "nope"), ("nope",)):
            with pytest.raises(UnknownRole):
                model.entropy(roles)


class TestConditionalEntropy:
    def test_iid_context_is_irrelevant(self):
        m = d.make_iid({"a": 0.3, "b": 0.7}, 3)
        h = m.entropy(("x1",))
        assert it.conditional_entropy(m, "x1", ("x2", "x3")) == pytest.approx(
            h, abs=1e-12
        )

    def test_copy_is_fully_determined(self):
        table = {("a", "a"): 0.5, ("b", "b"): 0.5}
        m = d.make_joint(("y", "x1"), table)
        assert it.conditional_entropy(m, "y", ("x1",)) == pytest.approx(0.0, abs=1e-12)

    def test_against_brute_force(self):
        for seed in range(25):
            m = random_joint_model(seed, n_roles=3)
            got = it.conditional_entropy(m, "y", ("x1", "x2"))
            want = brute_force_conditional_entropy(m, "y", ("x1", "x2"))
            assert got == pytest.approx(want, abs=1e-12)

    def test_role_overlap(self):
        m = d.make_iid({"a": 1.0}, 2)
        with pytest.raises(RoleOverlap):
            it.conditional_entropy(m, "x1", ("x1",))


class TestMutualInformation:
    def test_iid_zero(self):
        m = d.make_iid({"a": 0.4, "b": 0.6}, 3)
        assert it.mutual_information(m, "x1", ("x2", "x3")) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_perfect_copy(self):
        m = d.make_joint(("y", "x1"), {("a", "a"): 0.5, ("b", "b"): 0.5})
        assert it.mutual_information(m, "y", ("x1",)) == pytest.approx(1.0, abs=1e-12)

    def test_empty_context_is_zero(self):
        m = d.make_iid({"a": 0.4, "b": 0.6}, 2)
        assert it.mutual_information(m, "x1", ()) == 0.0

    def test_against_kl_oracle(self):
        for seed in range(25):
            m = random_joint_model(seed, n_roles=3)
            got = it.mutual_information(m, "y", ("x1", "x2"))
            want = brute_force_mutual_information(m, "y", ("x1", "x2"))
            assert got == pytest.approx(want, abs=1e-12)


class TestConditionalMutualInformation:
    def test_iid_zero(self):
        m = d.make_iid({"a": 0.5, "b": 0.5}, 3)
        assert it.conditional_mutual_information(m, "x1", "x2", ("x3",)) == 0.0

    def test_markov_chain_step_is_zero(self):
        t = {"a": {"a": 0.8, "b": 0.2}, "b": {"a": 0.3, "b": 0.7}}
        m = d.make_markov({"a": 0.6, "b": 0.4}, t, 3)
        cmi = it.conditional_mutual_information(m, "x3", "x1", ("x2",))
        assert abs(cmi) <= 1e-12

    def test_parity_is_one_bit(self, parity_model):
        cmi = it.conditional_mutual_information(parity_model, "y", "x1", ("x2",))
        assert cmi == pytest.approx(1.0, abs=1e-12)

    def test_nonnegative_over_seeds(self):
        for seed in range(100):
            m = random_joint_model(seed, n_roles=3)
            assert it.conditional_mutual_information(m, "y", "x1", ("x2",)) >= 0.0

    def test_role_overlap(self):
        m = d.make_iid({"a": 1.0}, 3)
        with pytest.raises(RoleOverlap):
            it.conditional_mutual_information(m, "x1", "x1", ("x2",))


class TestProfiles:
    def test_iid_uncertainty_constant(self):
        m = d.make_iid({"a": 0.3, "b": 0.7}, 4, target_role="x1")
        prof = it.uncertainty_profile(m, ("x2", "x3", "x4"))
        h = m.entropy(("x1",))
        assert all(v == pytest.approx(h, abs=1e-12) for v in prof.values)

    def test_copy_role_late_in_order(self):
        # y copies x2; independent noise x1
        table = {}
        for y in "ab":
            for x1 in "ab":
                table[(y, x1, y)] = 0.25
        m = d.make_joint(("y", "x1", "x2"), table, target_role="y")
        prof = it.uncertainty_profile(m, ("x1", "x2"))
        assert prof.values[0] == pytest.approx(1.0, abs=1e-12)
        assert prof.values[1] == pytest.approx(1.0, abs=1e-12)
        assert prof.values[2] == pytest.approx(0.0, abs=1e-12)

    def test_random_models_monotone(self):
        for seed in range(50):
            m = random_joint_model(seed)
            order = tuple(r for r in m.roles if r != "y")
            assert it.uncertainty_profile(m, order).is_monotone()
            assert it.predictability_profile(m, order).is_monotone()

    def test_chain_identity(self):
        for seed in range(20):
            m = random_joint_model(seed, n_roles=4)
            order = tuple(r for r in m.roles if r != "y")
            h = it.uncertainty_profile(m, order)
            i_prof = it.predictability_profile(m, order)
            hy = m.entropy(("y",))
            for a, b in zip(h.values, i_prof.values):
                assert a + b == pytest.approx(hy, abs=1e-12)

    def test_not_a_permutation(self):
        m = d.make_iid({"a": 1.0}, 3, target_role="x1")
        with pytest.raises(NotAPermutation):
            it.uncertainty_profile(m, ("x2", "x2"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", ["uncertainty", "predictability", "rate"])
    def test_non_finite_value_refused(self, kind, bad):
        with pytest.raises(ValueError, match="nan or infinite"):
            it.EntropyProfile([1.0, bad, 0.5], kind, strict=False)


class TestPlacement:
    def test_iid_all_tie(self):
        m = d.make_iid({"a": 0.5, "b": 0.5}, 4, target_role="x1")
        got = it.optimal_target_placement(m, ("x2", "x3", "x4"), "uncertainty")
        assert got == frozenset({0, 1, 2, 3})

    def test_copy_of_first_context(self):
        table = {}
        for y in "ab":
            for x2 in "ab":
                table[(y, y, x2)] = 0.25
        m = d.make_joint(("y", "x1", "x2"), table, target_role="y")
        got = it.optimal_target_placement(m, ("x1", "x2"), "uncertainty")
        assert got == frozenset({1, 2})

    def test_strictly_decreasing(self, and_model):
        got = it.optimal_target_placement(and_model, ("x1", "x2"), "uncertainty")
        assert got == frozenset({2})

    @pytest.mark.parametrize("place", [
        it.optimal_target_placement,
        lambda *a: it.optimal_placement_with_transducer(*a, it.IDENTITY),
    ])
    def test_unknown_objective(self, and_model, place):
        with pytest.raises(ValueError, match="unknown objective"):
            place(and_model, ("x1", "x2"), "surprisal")

    def test_last_position_always_optimal(self):
        for seed in range(50):
            m = random_joint_model(seed)
            order = tuple(r for r in m.roles if r != "y")
            n = len(order)
            for objective in ("uncertainty", "predictability"):
                assert n in it.optimal_target_placement(m, order, objective)


# a value exactly TIE_TOLERANCE from the best ties with it; the next float
# beyond does not (2 * TIE and TIE are exact doubles of one another)
TIE = it.TIE_TOLERANCE


class TestTieBoundary:
    @pytest.mark.parametrize("objective, values, beyond", [
        ("uncertainty", (2 * TIE, TIE, 0.0), math.inf),
        ("predictability", (0.0, TIE, 2 * TIE), 0.0),
    ])
    def test_optimal_target_placement(self, monkeypatch, and_model, objective,
                                      values, beyond):
        def placement(values):
            profile = it.EntropyProfile(values, objective)
            monkeypatch.setattr(it, f"{objective}_profile", lambda *a: profile)
            return it.optimal_target_placement(and_model, ("x1", "x2"), objective)

        assert placement(values) == frozenset({1, 2})
        moved = (values[0], math.nextafter(values[1], beyond), values[2])
        assert placement(moved) == frozenset({2})


class TestOneTolerance:
    """Every tie between computed entropies follows TIE_TOLERANCE at call time."""

    UID_MODEL = d.make_markov(
        {"a": 1}, {"a": {"a": 0.8, "b": 0.2}, "b": {"a": 0.5, "b": 0.5}}, 2
    )

    def verdicts(self, model):
        return (
            it.optimal_target_placement(model, ("x1", "x2"), "uncertainty"),
            it.optimal_target_placement(model, ("x1", "x2"), "predictability"),
            conflict.asymmetry_check(model, ("x1", "x2")).center_is_worst_for_uncertainty,
            rate.uid_classify(self.UID_MODEL).verdict,
            it.is_markov_equality(model, "y", "x2", ("x1",)),
        )

    def test_every_tie_follows_the_tolerance(self, monkeypatch, and_model):
        assert self.verdicts(and_model) == ({2}, {2}, False, "neither", False)
        monkeypatch.setattr(it, "TIE_TOLERANCE", 2.0)
        assert self.verdicts(and_model) == (
            {0, 1, 2}, {0, 1, 2}, None, "strong_uid", True
        )

    def test_cmi_clamp_follows_the_tolerance(self, monkeypatch, and_model):
        # H(y | x1) = 0.5 and a stubbed H(y | x1, x2) = 2.0: a CMI of -1.5
        real = it.conditional_entropy
        monkeypatch.setattr(
            it, "conditional_entropy",
            lambda m, t, c: 2.0 if len(c) == 2 else real(m, t, c),
        )
        assert it.conditional_mutual_information(and_model, "y", "x2", ("x1",)) == -1.5
        monkeypatch.setattr(it, "TIE_TOLERANCE", 2.0)
        assert it.conditional_mutual_information(and_model, "y", "x2", ("x1",)) == 0.0


INCREASING = [
    it.IDENTITY,
    it.CostTransducer("affine", (2.0, 1.0)),
    it.CostTransducer("power", (3.0,)),
    it.CostTransducer("exponential", (1.5,)),
    it.CostTransducer("tabulated", ((0.0, 1.0, 5.0, 10.0), (0.0, 0.5, 7.0, 50.0))),
]
DECREASING = [
    it.CostTransducer("affine", (-1.0, 5.0)),
    it.CostTransducer("exponential", (-1.0,)),
    it.CostTransducer("exponential", (-0.3,)),
    it.CostTransducer("affine", (-2.5, 0.0)),
    it.CostTransducer("tabulated", ((0.0, 2.0, 10.0), (4.0, 1.0, -3.0))),
]


class TestTransducers:
    def test_identity_matches_untransduced(self, and_model):
        raw = it.optimal_target_placement(and_model, ("x1", "x2"), "uncertainty")
        got = it.optimal_placement_with_transducer(
            and_model, ("x1", "x2"), "uncertainty", it.IDENTITY
        )
        assert got == raw

    @pytest.mark.parametrize("transducer", INCREASING)
    def test_uncertainty_set_invariant(self, transducer):
        for seed in range(10):
            m = random_joint_model(seed)
            order = tuple(r for r in m.roles if r != "y")
            raw = it.optimal_target_placement(m, order, "uncertainty")
            got = it.optimal_placement_with_transducer(
                m, order, "uncertainty", transducer
            )
            assert got == raw

    @pytest.mark.parametrize("transducer", DECREASING)
    def test_predictability_set_invariant(self, transducer):
        for seed in range(10):
            m = random_joint_model(seed)
            order = tuple(r for r in m.roles if r != "y")
            raw = it.optimal_target_placement(m, order, "predictability")
            got = it.optimal_placement_with_transducer(
                m, order, "predictability", transducer
            )
            assert got == raw

    def test_direction_mismatch_rejected(self, and_model):
        with pytest.raises(NonMonotoneTransducer):
            it.optimal_placement_with_transducer(
                and_model, ("x1", "x2"), "uncertainty", DECREASING[0]
            )

    @pytest.mark.parametrize("x, want", [
        (-2.0, -1.0),  # before the first knot: the first segment extended
        (0.0, 0.0), (1.0, 0.5), (5.0, 7.0), (9.0, 15.0),  # at the knots
        (3.0, 3.75), (7.0, 11.0),  # between knots
        (13.0, 23.0),  # past the last knot: the last segment extended
    ])
    def test_tabulated_values(self, x, want):
        g = it.CostTransducer("tabulated", ((0.0, 1.0, 5.0, 9.0), (0.0, 0.5, 7.0, 15.0)))
        assert g(x) == want

    def test_non_monotone_construction_rejected(self):
        with pytest.raises(NonMonotoneTransducer):
            it.CostTransducer("affine", (0.0, 1.0))
        with pytest.raises(NonMonotoneTransducer):
            it.CostTransducer("tabulated", ((0.0, 1.0, 2.0), (0.0, 2.0, 1.0)))


class TestMarkovEquality:
    def test_markov_chain_true(self):
        t = {"a": {"a": 0.8, "b": 0.2}, "b": {"a": 0.3, "b": 0.7}}
        m = d.make_markov({"a": 0.6, "b": 0.4}, t, 3)
        assert it.is_markov_equality(m, "x3", "x1", ("x2",))

    def test_parity_false(self, parity_model):
        assert not it.is_markov_equality(parity_model, "y", "x1", ("x2",))

    def test_independent_true(self):
        m = d.make_iid({"a": 0.5, "b": 0.5}, 3)
        assert it.is_markov_equality(m, "x1", "x2", ("x3",))

    def test_profile_flat_exactly_where_equality_holds(self):
        t = {"a": {"a": 0.8, "b": 0.2}, "b": {"a": 0.3, "b": 0.7}}
        m = d.make_markov({"a": 0.6, "b": 0.4}, t, 4)
        # target x4; in order (x3, x2, x1) the first element screens the rest
        prof = it.uncertainty_profile(m, ("x3", "x2", "x1"), target="x4")
        assert prof.values[0] > prof.values[1] + 1e-6
        assert prof.values[1] == pytest.approx(prof.values[2], abs=1e-9)
        assert prof.values[2] == pytest.approx(prof.values[3], abs=1e-9)
        assert it.is_markov_equality(m, "x4", "x2", ("x3",))
        assert it.is_markov_equality(m, "x4", "x1", ("x3", "x2"))
