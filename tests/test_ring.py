import itertools
import math
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordlab import ring
from ordlab.errors import DegenerateRow, ResultTooLarge, UnsupportedSource
from ordlab.ring import WordOrder as W


def swap_graph_distances():
    """BFS oracle on the adjacent-transposition graph of S, V, O."""
    nodes = ["".join(p) for p in itertools.permutations("SVO")]
    edges = {n: [] for n in nodes}
    for n in nodes:
        for k in range(2):
            swapped = list(n)
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            edges[n].append("".join(swapped))
    dist = {}
    for start in nodes:
        seen = {start: 0}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nxt in edges[cur]:
                if nxt not in seen:
                    seen[nxt] = seen[cur] + 1
                    queue.append(nxt)
        for end, d in seen.items():
            dist[(start, end)] = d
    return dist


class TestGeometry:
    def test_distance_matches_bfs_oracle(self):
        oracle = swap_graph_distances()
        for a in ring.ORDERS:
            for b in ring.ORDERS:
                assert ring.ring_distance(a, b) == oracle[(a.value, b.value)]

    def test_cycle_consecutive_entries_are_swaps(self):
        cycle = ring.ORDERS
        for i, order in enumerate(cycle):
            nxt = cycle[(i + 1) % 6]
            assert ring.ring_distance(order, nxt) == 1

    def test_neighbors_are_the_distance_one_set(self):
        for order in ring.ORDERS:
            want = frozenset(
                o for o in ring.ORDERS if ring.ring_distance(order, o) == 1
            )
            assert ring.neighbors(order) == want

    def test_antipode_at_distance_three(self):
        assert ring.ring_distance("SOV", "VOS") == 3
        assert ring.ring_distance("SVO", "OVS") == 3

    def test_case_insensitive_parsing(self):
        assert ring.as_order("sov") is W.SOV
        assert ring.ring_distance("sov", "svo") == 1


class TestTripleOptima:
    def test_verb_last(self):
        assert ring.triple_optimal_orders("verb") == {W.SOV, W.OSV}

    def test_object_last(self):
        assert ring.triple_optimal_orders("object") == {W.SVO, W.VSO}

    def test_subject_last(self):
        assert ring.triple_optimal_orders("subject") == {W.VOS, W.OVS}

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            ring.triple_optimal_orders("adverb")


class TestPredictedDestinations:
    def test_sov_ring_only(self):
        assert ring.predicted_destinations("SOV", True) == (W.SVO, W.OSV)

    def test_sov_filter_only(self):
        assert ring.predicted_destinations("SOV", False, "dlm") == (W.SVO, W.OVS)

    def test_sov_both(self):
        assert ring.predicted_destinations("SOV", True, "dlm") == (W.SVO,)

    def test_svo_ring_only(self):
        assert ring.predicted_destinations("SVO", True) == (W.SOV, W.VSO)

    def test_svo_filter_only(self):
        got = ring.predicted_destinations("SVO", False, "nominal_uncertainty")
        assert got == (W.VSO, W.VOS)

    def test_svo_both(self):
        got = ring.predicted_destinations("SVO", True, "nominal_uncertainty")
        assert got == (W.VSO,)

    def test_unsupported_source(self):
        with pytest.raises(UnsupportedSource):
            ring.predicted_destinations("OSV", True)

    def test_needs_ring_or_filter(self):
        with pytest.raises(ValueError):
            ring.predicted_destinations("SOV", False, None)


def reference_transition_matrix(kernel):
    """The matrix cell by cell, each with its own decay and multiplier."""
    matrix = np.zeros((6, 6))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, src in enumerate(ring.ORDERS):
            for j, dst in enumerate(ring.ORDERS):
                if i == j:
                    matrix[i, j] = kernel.self_weight
                else:
                    matrix[i, j] = kernel.decay(
                        ring.ring_distance(src, dst)
                    ) * kernel.destination_multiplier(dst)
            total = float(matrix[i].sum())
            if total <= 0.0:
                raise DegenerateRow(f"all transition weights from {src} are zero")
            if not math.isfinite(total):
                raise DegenerateRow(
                    f"transition weights from {src} overflow to a total of {total!r}"
                )
            matrix[i] /= total
    return matrix


# finite weights >= 0, with the edges that meet in a row: zeros (-0.0 too),
# subnormals, and weights whose products or sums overflow
_WEIGHT = st.one_of(
    st.sampled_from([0, 1, 0.0, -0.0, 1.0, 5e-324, 1e300, 1e308, 10**308]),
    st.floats(0, 1e308), st.integers(0, 10**6),
)
# decay parameters of either sign: 0, integers, and ones that overflow
_PARAM = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1, -1, 744.0, -745.0, 2000, -2000, 1e308,
                     -1e308, 10**308, -10**308]),
    st.floats(-1e308, 1e308), st.integers(-10**6, 10**6),
)
_FILTERS = st.dictionaries(st.sampled_from(sorted(ring.FILTER_SETS)), _WEIGHT)
_KERNELS = st.one_of(
    st.builds(ring.RingKernel, st.sampled_from(["exponential", "inverse_power"]),
              _PARAM, _FILTERS, _WEIGHT),
    st.builds(ring.RingKernel, st.just("tabulated"),
              st.fixed_dictionaries({1: _WEIGHT, 2: _WEIGHT, 3: _WEIGHT}),
              _FILTERS, _WEIGHT),
)


class TestKernel:
    def test_exponential_rows_stochastic(self):
        matrix = ring.transition_matrix(ring.RingKernel(decay_param=1.0))
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert (matrix >= 0).all()

    def test_exponential_hand_computed_row(self):
        kernel = ring.RingKernel(decay_param=1.0)
        matrix = ring.transition_matrix(kernel)
        i = ring.ORDERS.index(W.SOV)
        weights = [
            math.exp(-ring.ring_distance(W.SOV, o)) if o is not W.SOV else 0.0
            for o in ring.ORDERS
        ]
        total = sum(weights)
        for j, w in enumerate(weights):
            assert matrix[i, j] == pytest.approx(w / total, abs=1e-15)

    def test_zero_beta_is_uniform_off_diagonal(self):
        matrix = ring.transition_matrix(ring.RingKernel(decay_param=0.0))
        off = matrix[0, 1:]
        assert np.allclose(off, 0.2)
        assert matrix[0, 0] == 0.0

    def test_filter_boost_reshapes_row(self):
        kernel = ring.RingKernel(decay_param=1.0, filters={"dlm": 2.0})
        matrix = ring.transition_matrix(kernel)
        i = ring.ORDERS.index(W.SOV)
        j_svo = ring.ORDERS.index(W.SVO)
        assert matrix[i].argmax() == j_svo

    def test_self_weight_diagonal(self):
        kernel = ring.RingKernel(decay_param=1.0, self_weight=10.0)
        matrix = ring.transition_matrix(kernel)
        assert (matrix.argmax(axis=1) == np.arange(6)).all()

    def test_inverse_power(self):
        kernel = ring.RingKernel(decay_kind="inverse_power", decay_param=2.0)
        matrix = ring.transition_matrix(kernel)
        i = ring.ORDERS.index(W.SOV)
        j1 = ring.ORDERS.index(W.SVO)   # distance 1
        j3 = ring.ORDERS.index(W.VOS)   # distance 3
        assert matrix[i, j1] / matrix[i, j3] == pytest.approx(9.0, rel=1e-12)

    def test_tabulated_degenerate_row(self):
        kernel = ring.RingKernel(
            decay_kind="tabulated", decay_param={1: 0.0, 2: 0.0, 3: 0.0}
        )
        with pytest.raises(DegenerateRow):
            ring.transition_matrix(kernel)

    def test_unknown_filter_rejected(self):
        with pytest.raises(ValueError):
            ring.RingKernel(filters={"typo": 1.0})

    @pytest.mark.parametrize("kwargs", [
        {"decay_param": "x"},
        {"decay_param": float("nan")},
        {"decay_kind": "inverse_power", "decay_param": None},
        {"decay_kind": "tabulated", "decay_param": 1.0},
        {"decay_kind": "tabulated", "decay_param": {1: 1.0, 2: "x", 3: 1.0}},
        {"self_weight": "x"},
        {"filters": ["dlm"]},
        {"filters": {"dlm": "x"}},
        {"filters": {"dlm": -1.0}},
        {"filters": {"dlm": float("nan")}},
        {"filters": {"agent_first": float("inf")}},
        {"self_weight": float("nan")},
        {"self_weight": float("inf")},
        {"decay_kind": "tabulated", "decay_param": {1: 1.0, 2: -0.1, 3: 0.1}},
    ])
    def test_malformed_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ring.RingKernel(**kwargs)

    @pytest.mark.parametrize("kernel", [
        ring.RingKernel(decay_param=-1000.0),
        ring.RingKernel(decay_kind="inverse_power", decay_param=-2000.0),
        ring.RingKernel(filters={"dlm": 1e308, "agent_first": 1e308}),
        ring.RingKernel(decay_kind="tabulated",
                        decay_param={1: 1e308, 2: 1e308, 3: 1e308}),
    ])
    def test_overflowing_row_is_degenerate(self, kernel):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            with pytest.raises(DegenerateRow, match="overflow"):
                ring.transition_matrix(kernel)

    @pytest.mark.parametrize("kind", ["exponential", "inverse_power"])
    @pytest.mark.parametrize("beta", [10**308, -10**308, 2000, -2000])
    def test_integer_parameter_decays_as_its_float(self, kind, beta):
        # -beta * d of an integer beta can be an integer too large for a
        # float, which math.exp rejects with OverflowError on either side
        as_int = ring.RingKernel(decay_kind=kind, decay_param=beta)
        as_float = ring.RingKernel(decay_kind=kind, decay_param=float(beta))
        for d in (1, 2, 3):
            assert as_int.decay(d) == as_float.decay(d)
        assert as_int.decay(3) == (0.0 if beta > 0 else math.inf)

    @pytest.mark.parametrize("kernel", [
        ring.RingKernel(decay_param=0.3, filters={"dlm": 0.0, "agent_first": 4.0}),
        ring.RingKernel(decay_kind="tabulated", decay_param={1: 0.0, 2: 1.0, 3: 0.0},
                        self_weight=0.5),
        ring.RingKernel(decay_param=744.0),
    ])
    def test_rows_are_valid_probability_rows(self, kernel):
        # what rng.choice used to check on every draw
        matrix = ring.transition_matrix(kernel)
        assert np.isfinite(matrix).all() and (matrix >= 0).all()
        assert np.abs(matrix.sum(axis=1) - 1.0).max() <= 1e-12

    @settings(max_examples=400, deadline=None)
    @given(kernel=_KERNELS)
    def test_matrix_matches_the_per_cell_loop(self, kernel):
        try:
            expected = reference_transition_matrix(kernel)
        except DegenerateRow as exc:
            with pytest.raises(DegenerateRow) as raised:
                ring.transition_matrix(kernel)
            assert str(raised.value) == str(exc)
        else:
            matrix = ring.transition_matrix(kernel)
            assert matrix.shape == (6, 6) and matrix.dtype == np.float64
            assert matrix.tobytes() == expected.tobytes()


class TestEvolve:
    def test_reproducible(self):
        kernel = ring.RingKernel(decay_param=1.0)
        a = ring.evolve(kernel, "SOV", 5, 500, seed=3)
        b = ring.evolve(kernel, "SOV", 5, 500, seed=3)
        assert (a.frequencies == b.frequencies).all()

    def test_step_zero_is_point_mass(self):
        kernel = ring.RingKernel(decay_param=1.0)
        traj = ring.evolve(kernel, "VSO", 2, 100, seed=0)
        dist = traj.distribution(0)
        assert dist[W.VSO] == 1.0
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_matches_matrix_power_oracle(self):
        kernel = ring.RingKernel(decay_param=0.7, filters={"agent_first": 1.5})
        matrix = ring.transition_matrix(kernel)
        steps, n = 4, 60_000
        traj = ring.evolve(kernel, "SOV", steps, n, seed=11)
        exact = np.zeros(6)
        exact[ring.ORDERS.index(W.SOV)] = 1.0
        for _ in range(steps):
            exact = exact @ matrix
        # 4-sigma binomial band per cell
        for j in range(6):
            sigma = math.sqrt(max(exact[j] * (1 - exact[j]), 1e-12) / n)
            assert abs(traj.frequencies[steps][j] - exact[j]) <= 4 * sigma + 1e-9

    @pytest.mark.parametrize("steps", [10**12, 2**63 - 1, 2**64])
    def test_trajectory_too_large_for_memory(self, steps):
        with pytest.raises(ResultTooLarge, match=f"steps = {steps}"):
            ring.evolve(ring.RingKernel(), "SOV", steps, 10, seed=0)

    def test_rows_sum_to_one(self):
        kernel = ring.RingKernel(decay_param=1.0)
        traj = ring.evolve(kernel, "SOV", 3, 97, seed=1)
        assert np.allclose(traj.frequencies.sum(axis=1), 1.0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.9, True, 1.0, "1"])
    def test_refuses_a_seed_that_aliases_another(self, seed):
        with pytest.raises(ValueError, match="seed"):
            ring.evolve(ring.RingKernel(), "SOV", 3, 97, seed)

    def test_numpy_integer_seeds_draw_what_ints_draw(self):
        kernel = ring.RingKernel(decay_param=1.0)
        traj = ring.evolve(kernel, "SOV", 3, 97, 2**64 - 1)
        again = ring.evolve(kernel, "SOV", 3, 97, np.uint64(2**64 - 1))
        assert (traj.frequencies == again.frequencies).all()


class TestReferenceData:
    def test_language_counts(self):
        counts = [ring.REFERENCE[o].language_count for o in ring.ORDERS]
        assert counts == [2275, 2117, 503, 174, 40, 19]

    def test_family_counts(self):
        counts = [ring.REFERENCE[o].family_count for o in ring.ORDERS]
        assert counts == [239, 55, 27, 15, 3, 1]

    def test_totals(self):
        langs = (
            sum(r.language_count for r in ring.REFERENCE.values())
            + ring.NO_DOMINANT.language_count
        )
        assert langs == ring.TOTAL_LANGUAGES == 5252
        fams = (
            sum(r.family_count for r in ring.REFERENCE.values())
            + ring.NO_DOMINANT.family_count
        )
        assert fams == ring.TOTAL_FAMILIES == 366

    def test_grouped_counts_consistent(self):
        assert ring.GROUPED["**V"].language_count == 2275 + 19
        assert ring.GROUPED["*V*"].language_count == 2117 + 40
        assert ring.GROUPED["V**"].language_count == 503 + 174

    def test_percentages_match_counts(self):
        for row in ring.REFERENCE.values():
            true_pct = 100.0 * row.language_count / ring.TOTAL_LANGUAGES
            assert abs(row.language_pct - true_pct) <= 0.05
            true_fam = 100.0 * row.family_count / ring.TOTAL_FAMILIES
            assert abs(row.family_pct - true_fam) <= 0.05

    def test_grouped_misprint_flagged(self):
        row = ring.GROUPED["V**"]
        assert row.misprint_language_pct
        true_pct = 100.0 * row.language_count / ring.TOTAL_LANGUAGES
        # the printed value is exactly one point above the true rounded value
        assert abs((row.language_pct - 1.0) - true_pct) <= 0.05
        for label in ("**V", "*V*"):
            other = ring.GROUPED[label]
            assert not other.misprint_language_pct
            assert (
                abs(other.language_pct - 100.0 * other.language_count / 5252) <= 0.05
            )

    def test_reference_distribution_normalized(self):
        dist = ring.reference_distribution()
        assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        assert dist[W.SOV] == pytest.approx(2275 / 5128, abs=1e-15)

    def test_compare_to_itself(self):
        tv, agreements = ring.compare_to_reference(ring.reference_distribution())
        assert tv == pytest.approx(0.0, abs=1e-15)
        assert len(agreements) == 15
        assert all(ok for _, ok in agreements)

    def test_compare_tv_hand_value(self):
        uniform = {o: 1 / 6 for o in ring.ORDERS}
        ref = ring.reference_distribution()
        want = 0.5 * sum(abs(1 / 6 - ref[o]) for o in ring.ORDERS)
        tv, _ = ring.compare_to_reference(uniform)
        assert tv == pytest.approx(want, abs=1e-15)
