import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import kendalltau

from ordlab import coding
from ordlab.errors import (
    AllTied,
    LengthBelowFloor,
    UnknownTarget,
    ZeroProbability,
    ZeroTargetMass,
)


def random_probs(seed, n):
    rng = np.random.default_rng(seed)
    return [float(p) for p in rng.dirichlet(np.ones(n))]


def entropy(probs):
    return -math.fsum(p * math.log2(p) for p in probs if p > 0)


class TestOptimalLengths:
    def test_dyadic(self):
        assert coding.optimal_lengths((0.5, 0.25, 0.25)) == (1, 2, 2)

    def test_near_uniform_three(self):
        assert coding.optimal_lengths((0.4, 0.3, 0.3)) == (2, 2, 2)

    def test_floor_at_one(self):
        assert coding.optimal_lengths((1.0,)) == (1,)

    def test_full_reduction_allows_zero(self):
        assert coding.optimal_lengths((1.0,), allow_full_reduction=True) == (0,)

    def test_exact_powers_not_overshot(self):
        # ceil(-log2 p) must not round 2.0 up to 3 through float noise
        probs = [2.0**-k for k in range(1, 11)]
        probs.append(1.0 - math.fsum(probs))
        lengths = coding.optimal_lengths(sorted(probs, reverse=True))
        assert lengths[:3] == (1, 2, 3)

    def test_zero_probability(self):
        with pytest.raises(ZeroProbability):
            coding.optimal_lengths((1.0, 0.0))

    def test_matches_ideal_ceiling(self):
        for seed in range(20):
            probs = random_probs(seed, 6)
            lengths = coding.optimal_lengths(probs, allow_full_reduction=True)
            for p, l in zip(probs, lengths):
                assert l == math.ceil(-math.log2(p))

    def test_ideal_just_above_an_integer_rounds_up(self):
        # -log2 0.49999999999 is 1 + 2.9e-11: rounding that down to 1 gives
        # a Kraft sum above 1 and a mean length below the entropy
        probs = (0.49999999999, 0.49999999999, 0.00000000002)
        lengths = coding.optimal_lengths(probs)
        assert lengths == (2, 2, 36)
        assert coding.kraft_sum(lengths) <= 1.0
        table = coding.TypeTable(probs, lengths)
        assert coding.mean_length(table) >= entropy(probs)


class TestKraftAndBounds:
    @pytest.mark.parametrize("seed", range(25))
    def test_kraft_inequality(self, seed):
        probs = random_probs(seed, 8)
        lengths = coding.optimal_lengths(probs, allow_full_reduction=True)
        assert coding.kraft_sum(lengths) <= 1.0 + 1e-12

    @pytest.mark.parametrize("seed", range(25))
    def test_entropy_bounds(self, seed):
        probs = random_probs(seed, 8)
        lengths = coding.optimal_lengths(probs, allow_full_reduction=True)
        table = coding.TypeTable(probs, lengths, allow_full_reduction=True)
        h = entropy(probs)
        mean = coding.mean_length(table)
        assert h - 1e-9 <= mean < h + 1.0

    def test_kraft_hand_value(self):
        assert coding.kraft_sum((1, 2, 2)) == 1.0
        assert coding.kraft_sum((2, 2, 2)) == 0.75


def brute_force_min_mean_length(probs, allow_full_reduction=False):
    """Exhaustive optimum over all Kraft-feasible length assignments."""
    n = len(probs)
    floor = 0 if allow_full_reduction else 1
    best = None
    for lengths in itertools.product(range(floor, n + floor + 1), repeat=n):
        if coding.kraft_sum(lengths) > 1.0 + 1e-12:
            continue
        mean = math.fsum(p * l for p, l in zip(probs, lengths))
        if best is None or mean < best[0] - 1e-12:
            best = (mean, lengths)
    return best


class TestBruteForceOptimality:
    @pytest.mark.parametrize("seed", range(8))
    def test_brute_force_optimum_satisfies_abbreviation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        probs = [float(p) for p in rng.dirichlet(np.ones(n))]
        _, lengths = brute_force_min_mean_length(probs)
        table = coding.TypeTable(probs, lengths)
        verdict = coding.abbreviation_check(table)
        assert verdict.holds

    def test_ceiling_lengths_near_optimal(self):
        for seed in range(8):
            probs = random_probs(seed, 4)
            best_mean, _ = brute_force_min_mean_length(probs)
            lengths = coding.optimal_lengths(probs)
            mean = math.fsum(p * l for p, l in zip(probs, lengths))
            assert mean < best_mean + 1.0


class TestKendallTau:
    def test_perfectly_opposed(self):
        assert coding.kendall_tau([(0.5, 1), (0.3, 2), (0.2, 3)]) == -1.0

    def test_perfectly_aligned(self):
        assert coding.kendall_tau([(0.2, 1), (0.3, 2), (0.5, 3)]) == 1.0

    def test_partial_ties_negative(self):
        tau = coding.kendall_tau([(0.5, 1), (0.25, 2), (0.25, 2)])
        assert tau == pytest.approx(-1.0, abs=1e-12)

    def test_all_lengths_tied(self):
        with pytest.raises(AllTied):
            coding.kendall_tau([(0.4, 2), (0.3, 2), (0.3, 2)])

    def test_all_probs_tied(self):
        with pytest.raises(AllTied):
            coding.kendall_tau([(0.25, 1), (0.25, 2), (0.25, 3), (0.25, 1)])

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            coding.kendall_tau([(1.0, 1)])

    @given(st.integers(0, 1000), st.integers(3, 200), st.booleans())
    def test_matches_scipy_on_random_tables(self, seed, n, tied):
        rng = np.random.default_rng(seed)
        if tied:
            # few distinct values per column: ties in p, in l and in (p, l)
            levels = rng.dirichlet(np.ones(int(rng.integers(2, 6))))
            probs = [float(p) for p in rng.choice(levels, size=n)]
            lengths = [int(l) for l in rng.integers(1, 5, size=n)]
        else:
            probs = [float(p) for p in rng.dirichlet(np.ones(n))]
            lengths = coding.optimal_lengths(probs)
        if len(set(probs)) == 1 or len(set(lengths)) == 1:
            return
        want = float(kendalltau(probs, lengths).statistic)
        assert coding.kendall_tau(list(zip(probs, lengths))) == want


class TestAbbreviationCheck:
    def test_optimal_lengths_always_pass(self):
        for seed in range(40):
            probs = random_probs(seed, 7)
            lengths = coding.optimal_lengths(probs)
            table = coding.TypeTable(probs, lengths)
            assert coding.abbreviation_check(table).holds

    def test_vacuous_when_all_tied(self):
        table = coding.TypeTable((0.4, 0.3, 0.3), (2, 2, 2))
        verdict = coding.abbreviation_check(table)
        assert verdict.holds
        assert verdict.all_tied
        assert verdict.tau is None

    @pytest.mark.parametrize("allow_full_reduction", [False, True])
    def test_vacuous_for_one_type(self, allow_full_reduction):
        lengths = coding.optimal_lengths((1.0,), allow_full_reduction)
        for table in (coding.TypeTable((1.0,), lengths, allow_full_reduction),
                      coding.ContextTable({(("a",), "only"): (1.0, lengths[0])}, 1,
                                          allow_full_reduction)):
            verdict = coding.abbreviation_check(table)
            assert verdict.holds
            assert verdict.all_tied
            assert verdict.tau is None

    def test_anti_optimal_fails(self):
        table = coding.TypeTable((0.5, 0.25, 0.25), (3, 2, 1))
        verdict = coding.abbreviation_check(table)
        assert not verdict.holds
        assert verdict.tau > 0


class TestTypeTable:
    def test_mass_check(self):
        with pytest.raises(ValueError):
            coding.TypeTable((0.5, 0.4), (1, 1))

    def test_length_floor(self):
        with pytest.raises(ValueError):
            coding.TypeTable((0.5, 0.5), (0, 1))
        coding.TypeTable((0.5, 0.5), (0, 1), allow_full_reduction=True)

    def test_alignment(self):
        with pytest.raises(ValueError):
            coding.TypeTable((1.0,), (1, 2))

    def test_mean_length_hand_value(self):
        table = coding.TypeTable((0.5, 0.25, 0.25), (1, 2, 2))
        assert coding.mean_length(table) == 1.5


CONTEXT = coding.ContextTable(
    {
        (("a",), "x"): (0.3, 1),
        (("a",), "y"): (0.2, 2),
        (("b",), "x"): (0.1, 2),
        (("b",), "y"): (0.4, 1),
    },
    context_order=1,
)


class TestContextTable:
    def test_contextual_mean(self):
        want = 0.3 * 1 + 0.2 * 2 + 0.1 * 2 + 0.4 * 1
        assert coding.mean_length(CONTEXT) == pytest.approx(want)

    def test_per_target(self):
        assert coding.per_target_length(CONTEXT, "x") == pytest.approx(0.5)
        assert coding.per_target_length(CONTEXT, "y") == pytest.approx(0.8)

    def test_renormalized(self):
        # p(x) = 0.4, p(y) = 0.6
        assert coding.renormalized_length(CONTEXT, "x") == pytest.approx(1.25)
        assert coding.renormalized_length(CONTEXT, "y") == pytest.approx(0.8 / 0.6)

    def test_decomposition_identity(self):
        # L_n = sum over y of L_n(y) = sum over y of p(y) M_n(y)
        total = coding.mean_length(CONTEXT)
        by_target = math.fsum(
            coding.per_target_length(CONTEXT, y) for y in CONTEXT.targets()
        )
        by_renormalized = math.fsum(
            CONTEXT.target_mass(y) * coding.renormalized_length(CONTEXT, y)
            for y in CONTEXT.targets()
        )
        assert by_target == pytest.approx(total, abs=1e-12)
        assert by_renormalized == pytest.approx(total, abs=1e-12)

    def test_unknown_target(self):
        with pytest.raises(UnknownTarget):
            coding.per_target_length(CONTEXT, "z")

    def test_absent_target_is_unknown_to_renormalized_length(self):
        # an absent target has no mass, but it is unknown before it is massless
        assert CONTEXT.target_mass("z") == 0.0
        with pytest.raises(UnknownTarget):
            coding.renormalized_length(CONTEXT, "z")

    def test_zero_target_mass(self):
        table = coding.ContextTable(
            {(("a",), "x"): (1.0, 1), (("a",), "y"): (0.0, 3)}, context_order=1
        )
        with pytest.raises(ZeroTargetMass):
            coding.renormalized_length(table, "y")

    def test_context_arity_mismatch(self):
        with pytest.raises(ValueError):
            coding.ContextTable({(("a", "b"), "x"): (1.0, 1)}, context_order=1)

    def test_abbreviation_on_context_table(self):
        verdict = coding.abbreviation_check(CONTEXT)
        assert verdict.holds
        assert verdict.tau < 0

    def test_length_floor(self):
        with pytest.raises(LengthBelowFloor):
            coding.ContextTable({(("a",), "x"): (0.5, 0), (("b",), "x"): (0.5, 1)}, 1)
        coding.ContextTable({(("a",), "x"): (0.5, 0), (("b",), "x"): (0.5, 1)}, 1,
                            allow_full_reduction=True)
        with pytest.raises(LengthBelowFloor):
            coding.ContextTable({(("a",), "x"): (1.0, -1)}, 1,
                                allow_full_reduction=True)

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=12), st.data(),
           st.sampled_from([(), ("c",), ("c", "d")]), st.booleans())
    def test_one_shared_context_reduces_to_the_type_table(
        self, weights, data, context, allow_full_reduction
    ):
        probs = [w / math.fsum(weights) for w in weights]
        lengths = data.draw(st.lists(st.integers(int(not allow_full_reduction), 6),
                                     min_size=len(probs), max_size=len(probs)))
        plain = coding.TypeTable(probs, lengths, allow_full_reduction)
        shared = coding.ContextTable(
            {(context, f"t{i}"): (p, l) for i, (p, l) in enumerate(zip(probs, lengths))},
            len(context), allow_full_reduction,
        )
        assert coding.mean_length(shared) == coding.mean_length(plain)
        assert coding.abbreviation_check(shared) == coding.abbreviation_check(plain)


def scan_length(entries, y):
    """L_n(y) by a scan of every entry."""
    return math.fsum(p * l for (_, t), (p, l) in entries.items() if t == y)


def scan_mass(entries, y):
    """p(y) by a scan of every entry."""
    return math.fsum(p for (_, t), (p, _) in entries.items() if t == y)


@st.composite
def contextual_tables(draw):
    """(types, probabilities, contexts, lengths or None) of a contextual table.

    One or two context columns; the first row's target, "yew", sorts after
    every other target and has one context only; the other rows come in
    any order, and each of their targets is seen in one context or more.
    """
    order = draw(st.integers(1, 2))
    contexts = draw(st.lists(st.tuples(*[st.sampled_from("abc")] * order),
                             min_size=1, max_size=4, unique=True))
    cells = [(contexts[0], "yew")]
    for y in draw(st.lists(st.sampled_from(["ash", "elm", "fir", "oak"]), unique=True)):
        seen = draw(st.lists(st.sampled_from(contexts), min_size=1, unique=True))
        cells += [(c, y) for c in seen]
    cells[1:] = draw(st.permutations(cells[1:]))
    weights = draw(st.lists(st.integers(1, 50), min_size=len(cells), max_size=len(cells)))
    probs = [w / sum(weights) for w in weights]
    lengths = draw(st.none() | st.lists(st.integers(1, 8), min_size=len(cells),
                                        max_size=len(cells)))
    return [y for _, y in cells], probs, [c for c, _ in cells], lengths


class TestPerTargetSumsAgainstScans:
    """L_n(y), p(y) and M_n(y) equal per-entry fsum scans, bit for bit."""

    @given(contextual_tables(), st.booleans())
    def test_report_and_table_match_the_scans(self, table_rows, allow_full_reduction):
        types, probs, contexts, lengths = table_rows
        rows, summary = coding.report(types, probs, contexts, lengths,
                                      allow_full_reduction)
        entries = {(c, y): (p, l) for c, y, p, l in
                   zip(contexts, types, probs, (row[3] for row in rows))}
        table = coding.ContextTable(entries, len(contexts[0]), allow_full_reduction)
        targets = sorted(set(types))
        assert table.targets() == targets
        want = []
        for y in targets:
            length, mass = scan_length(entries, y), scan_mass(entries, y)
            assert coding.per_target_length(table, y) == length
            assert table.target_mass(y) == mass
            assert coding.renormalized_length(table, y) == length / mass
            want += [("L_n_y", y, length), ("M_n_y", y, length / mass)]
        assert summary[1:-2] == want
        assert table.target_mass("absent") == scan_mass(entries, "absent") == 0.0


class TestIdealLengths:
    def test_values(self):
        got = coding.ideal_lengths((0.5, 0.25))
        assert got == (1.0, 2.0)

    def test_certain_type_has_positive_zero_length(self):
        (length,) = coding.ideal_lengths((1.0,))
        assert math.copysign(1.0, length) == 1.0
