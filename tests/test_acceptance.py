"""Acceptance gate: twelve end-to-end criteria with pinned tolerances.

Each test prints exactly one ``[acceptance N] PASS/FAIL`` line so the gate
can be read off the run log directly.
"""

import contextlib
import itertools
import math
import time

import numpy as np

from conftest import random_joint_model
from ordlab import (
    coding,
    conflict,
    deplen,
    distributions as d,
    infotheory as it,
    rate,
    ring,
)
from ordlab.infotheory import CostTransducer, EntropyProfile
from ordlab.ring import WordOrder as W


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[acceptance {number:02d}] FAIL: {title}")
        raise
    print(f"[acceptance {number:02d}] PASS: {title}")


def test_01_dependency_closed_forms():
    with criterion(1, "dependency closed forms, m = 2..64"):
        start = time.perf_counter()
        for m in range(2, 65):
            costs = dict(enumerate(deplen.landscape(m).costs, 1))
            max_value = max(costs.values())
            min_value = min(costs.values())
            assert max_value == m * (m - 1) // 2
            assert min_value == (m * m - m % 2) // 4
            got_max, max_pos = deplen.max_dependency_sum(m)
            got_min, min_pos = deplen.min_dependency_sum(m)
            assert got_max == max_value and got_min == min_value
            assert max_pos <= {p for p, c in costs.items() if c == max_value}
            assert {1, m} <= max_pos
            assert min_pos == {p for p, c in costs.items() if c == min_value}
        assert time.perf_counter() - start < 1.0


SWEEP_SEEDS = range(1000)


def _context(model):
    return tuple(r for r in model.roles if r != "y")


def test_02_monotone_profiles():
    with criterion(2, "monotone profiles over 1000 seeded models"):
        start = time.perf_counter()
        for seed in SWEEP_SEEDS:
            model = random_joint_model(seed)
            order = _context(model)
            n = len(order)
            h = it.uncertainty_profile(model, order)
            i_prof = it.predictability_profile(model, order)
            for a, b in zip(h.values, h.values[1:]):
                assert b <= a + 1e-9
            for a, b in zip(i_prof.values, i_prof.values[1:]):
                assert b >= a - 1e-9
            assert n in it.optimal_target_placement(model, order, "uncertainty")
            assert n in it.optimal_target_placement(model, order, "predictability")
        assert time.perf_counter() - start < 30.0


INCREASING = [
    it.IDENTITY,
    CostTransducer("affine", (2.0, 1.0)),
    CostTransducer("power", (3.0,)),
    CostTransducer("exponential", (1.5,)),
    CostTransducer("tabulated", ((0.0, 1.0, 5.0, 10.0), (0.0, 0.5, 7.0, 50.0))),
]
DECREASING = [
    CostTransducer("affine", (-1.0, 5.0)),
    CostTransducer("exponential", (-1.0,)),
    CostTransducer("exponential", (-0.3,)),
    CostTransducer("affine", (-2.5, 0.0)),
    CostTransducer("tabulated", ((0.0, 2.0, 10.0), (4.0, 1.0, -3.0))),
]


def test_03_transducer_invariance():
    with criterion(3, "placement-set invariance under 10 monotone transducers"):
        for seed in SWEEP_SEEDS:
            model = random_joint_model(seed)
            order = _context(model)
            raw_h = it.optimal_target_placement(model, order, "uncertainty")
            raw_i = it.optimal_target_placement(model, order, "predictability")
            for g in INCREASING:
                assert (
                    it.optimal_placement_with_transducer(
                        model, order, "uncertainty", g
                    )
                    == raw_h
                )
            for g in DECREASING:
                assert (
                    it.optimal_placement_with_transducer(
                        model, order, "predictability", g
                    )
                    == raw_i
                )


def test_04_markov_equality():
    with criterion(4, "Markov equality condition and parity counterexample"):
        transition = {"a": {"a": 0.8, "b": 0.2}, "b": {"a": 0.3, "b": 0.7}}
        model = d.make_markov({"a": 0.6, "b": 0.4}, transition, 4)
        # given the immediately preceding state, earlier states carry nothing
        assert it.is_markov_equality(model, "x3", "x1", ("x2",))
        assert it.is_markov_equality(model, "x4", "x2", ("x3",))
        assert it.is_markov_equality(model, "x4", "x1", ("x3", "x2"))
        assert (
            abs(it.conditional_mutual_information(model, "x4", "x2", ("x3",)))
            <= 1e-9
        )
        # without the screening state the dependence is real
        assert it.conditional_mutual_information(model, "x3", "x1", ()) > 1e-6
        # parity: pairwise independent inputs, jointly determining
        table = {}
        for x1 in "01":
            for x2 in "01":
                y = str((int(x1) + int(x2)) % 2)
                table[(y, x1, x2)] = 0.25
        parity = d.make_joint(("y", "x1", "x2"), table, target_role="y")
        assert not it.is_markov_equality(parity, "y", "x1", ("x2",))
        assert it.conditional_mutual_information(parity, "y", "x1", ("x2",)) > 1e-6


def test_05_conflict_witness():
    with criterion(5, "dependency vs uncertainty optima: disjoint for m >= 3"):
        checked = 0
        for seed in SWEEP_SEEDS:
            model = random_joint_model(seed)
            order = _context(model)
            m = len(order) + 1
            i_prof = it.predictability_profile(model, order)
            gains = [
                b - a for a, b in zip(i_prof.values, i_prof.values[1:])
            ]
            if min(gains) <= 1e-6:  # needs nonzero prefix MI at every step
                continue
            placements = it.optimal_target_placement(model, order, "uncertainty")
            head_positions = frozenset(i + 1 for i in placements)
            _, centers = deplen.min_dependency_sum(m)
            assert m >= 3
            assert not head_positions & centers
            checked += 1
        assert checked >= 100
        # m = 2: a single informative dependent; the sets must intersect
        for seed in range(20):
            rng = np.random.default_rng(seed)
            probs = rng.dirichlet(np.ones(4))
            table = {
                combo: float(p)
                for combo, p in zip(itertools.product("ab", repeat=2), probs)
            }
            model = d.make_joint(("y", "x1"), table, target_role="y")
            placements = it.optimal_target_placement(model, ("x1",), "uncertainty")
            head_positions = frozenset(i + 1 for i in placements)
            _, centers = deplen.min_dependency_sum(2)
            assert head_positions & centers


def test_06_destination_tables():
    with criterion(6, "all six documented (source, constraint) cells"):
        assert ring.predicted_destinations("SOV", True) == (W.SVO, W.OSV)
        assert ring.predicted_destinations("SOV", False, "dlm") == (W.SVO, W.OVS)
        assert ring.predicted_destinations("SOV", True, "dlm") == (W.SVO,)
        assert ring.predicted_destinations("SVO", True) == (W.SOV, W.VSO)
        assert ring.predicted_destinations("SVO", False, "nominal_uncertainty") == (
            W.VSO,
            W.VOS,
        )
        assert ring.predicted_destinations("SVO", True, "nominal_uncertainty") == (
            W.VSO,
        )


def test_07_ring_geometry():
    with criterion(7, "ring is the 6-cycle; distances match a BFS oracle"):
        # BFS oracle on the adjacent-transposition graph of S, V, O
        nodes = ["".join(p) for p in itertools.permutations("SVO")]
        adjacency = {
            n: [
                "".join(n[:k] + n[k + 1] + n[k] + n[k + 2:])
                for k in range(2)
            ]
            for n in nodes
        }
        oracle = {}
        for startnode in nodes:
            frontier, dist = [startnode], {startnode: 0}
            while frontier:
                nxt = []
                for cur in frontier:
                    for nb in adjacency[cur]:
                        if nb not in dist:
                            dist[nb] = dist[cur] + 1
                            nxt.append(nb)
                frontier = nxt
            oracle[startnode] = dist
        for a in ring.ORDERS:
            degree_one = {
                o for o in ring.ORDERS if oracle[a.value][o.value] == 1
            }
            assert ring.neighbors(a) == degree_one
            assert len(degree_one) == 2
            for b in ring.ORDERS:
                assert ring.ring_distance(a, b) == oracle[a.value][b.value]
        assert ring.ring_distance("SOV", "SVO") == 1
        assert ring.ring_distance("SOV", "OVS") == 2


def test_08_reference_dataset():
    with criterion(8, "reference dataset sums and printed percentages"):
        language_total = (
            sum(r.language_count for r in ring.REFERENCE.values())
            + ring.NO_DOMINANT.language_count
        )
        family_total = (
            sum(r.family_count for r in ring.REFERENCE.values())
            + ring.NO_DOMINANT.family_count
        )
        assert language_total == 5252
        assert family_total == 366
        assert ring.GROUPED["**V"].language_count == 2294
        assert ring.GROUPED["*V*"].language_count == 2157
        assert ring.GROUPED["V**"].language_count == 677
        rows = list(ring.REFERENCE.values()) + [ring.NO_DOMINANT] + list(
            ring.GROUPED.values()
        )
        for row in rows:
            true_lang = 100.0 * row.language_count / language_total
            true_fam = 100.0 * row.family_count / family_total
            if row.misprint_language_pct:
                # the one flagged cell: printed value is a digit typo, one
                # full point above the correctly rounded figure
                assert abs((row.language_pct - 1.0) - true_lang) <= 0.05
            else:
                assert abs(row.language_pct - true_lang) <= 0.05
            assert abs(row.family_pct - true_fam) <= 0.05


def test_09_rate_counterexamples():
    with criterion(9, "flat-rate counterexamples and scramble diagnostics"):
        start = time.perf_counter()
        homogeneous = rate.ngram_counts(["a"] * 1000, 4, cyclic=True)
        profile = rate.conditional_entropy_profile(homogeneous, coverage_cap=None)
        assert all(v == 0.0 for v in profile.values)
        periodic = rate.exact_periodic_profile(3, 3)
        assert periodic.values == (math.log2(3), 0.0, 0.0)
        estimated = rate.conditional_entropy_profile(
            rate.ngram_counts(["a", "b", "c"] * 2000, 3, cyclic=True),
            coverage_cap=None,
        )
        assert estimated.values[0] == periodic.values[0]
        assert estimated.values[1] == 0.0 and estimated.values[2] == 0.0

        # structured corpus vs its scramble, 1e5 tokens
        source = d.SequenceSource(
            kind="markov",
            initial={"a": 0.5, "b": 0.5},
            transition={"a": {"a": 0.9, "b": 0.1}, "b": {"a": 0.1, "b": 0.9}},
        )
        corpus = d.generate(source, 100_000, seed=42)

        def spread(tokens):
            table = rate.ngram_counts(tokens, 3)
            values = rate.conditional_entropy_profile(table).values
            return max(values) - min(values)

        original_spread = spread(corpus)
        scrambled_spread = spread(d.scramble(corpus, seed=1))
        # noise band: spreads of i.i.d. resamples from the unigram frequencies
        counts = {s: corpus.count(s) for s in set(corpus)}
        marginal = {s: c / len(corpus) for s, c in counts.items()}
        iid = d.SequenceSource(kind="iid", marginal=marginal)
        band = max(
            spread(d.generate(iid, 100_000, seed=s)) for s in range(100, 120)
        )
        assert scrambled_spread <= 3.0 * band
        assert original_spread > 10.0 * band
        assert time.perf_counter() - start < 10.0


def test_10_hilberg_recovery():
    with criterion(10, "Hilberg fit recovery and peak cost"):
        a, gamma, b = 10.0, 0.5, 1.0
        i = np.arange(1, 17, dtype=float)
        clean = a * i**-gamma + b
        fit = rate.hilberg_fit(EntropyProfile(clean, "rate", strict=False))
        assert abs(fit.gamma - gamma) <= 0.005
        for seed in range(20):
            rng = np.random.default_rng(seed)
            noisy = clean + rng.normal(0.0, 0.05, size=len(clean))
            fit = rate.hilberg_fit(EntropyProfile(noisy, "rate", strict=False))
            assert abs(fit.gamma - gamma) <= 0.05
        peak, index = rate.peak_cost(EntropyProfile(clean, "rate", strict=False))
        assert index == 1
        assert peak == a + b


def test_11_coding_optimality():
    with criterion(11, "Kraft, entropy bounds, brute-force tau, identities"):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 10))
            probs = [float(p) for p in rng.dirichlet(np.ones(n))]
            lengths = coding.optimal_lengths(probs)
            assert coding.kraft_sum(lengths) <= 1.0 + 1e-12
            h = -math.fsum(p * math.log2(p) for p in probs)
            mean = math.fsum(p * l for p, l in zip(probs, lengths))
            assert h - 1e-9 <= mean < h + 1.0

        # every brute-force-minimal assignment on tables of <= 6 types
        # satisfies tau <= 0
        for n in range(2, 7):
            for seed in range(10):
                rng = np.random.default_rng(1000 * n + seed)
                probs = [float(p) for p in rng.dirichlet(np.ones(n))]
                best_mean, minimizers = None, []
                for lengths in itertools.product(range(1, n + 2), repeat=n):
                    if coding.kraft_sum(lengths) > 1.0 + 1e-12:
                        continue
                    mean = math.fsum(p * l for p, l in zip(probs, lengths))
                    if best_mean is None or mean < best_mean - 1e-12:
                        best_mean, minimizers = mean, [lengths]
                    elif abs(mean - best_mean) <= 1e-12:
                        minimizers.append(lengths)
                for lengths in minimizers:
                    table = coding.TypeTable(probs, lengths)
                    assert coding.abbreviation_check(table).holds

        # decomposition identities on random contextual tables
        for seed in range(20):
            rng = np.random.default_rng(seed)
            contexts = [("a",), ("b",), ("c",)]
            targets = ["x", "y"]
            cells = [(c, t) for c in contexts for t in targets]
            mass = rng.dirichlet(np.ones(len(cells)))
            entries = {
                cell: (float(p), int(rng.integers(1, 6)))
                for cell, p in zip(cells, mass)
            }
            table = coding.ContextTable(entries, context_order=1)
            total = coding.mean_length(table)
            by_target = math.fsum(
                coding.per_target_length(table, y) for y in table.targets()
            )
            assert abs(by_target - total) <= 1e-12
            for y in table.targets():
                lhs = coding.renormalized_length(table, y)
                rhs = coding.per_target_length(table, y) / table.target_mass(y)
                assert abs(lhs - rhs) <= 1e-12


def test_12_simulator_correctness():
    with criterion(12, "ensemble simulator vs exact kernel rows"):
        kernel = ring.RingKernel(
            decay_kind="exponential", decay_param=1.0, filters={"dlm": 2.0}
        )
        matrix = ring.transition_matrix(kernel)
        ensemble = 100_000
        for start in ("SOV", "SVO", "VOS"):
            trajectory = ring.evolve(kernel, start, 1, ensemble, seed=123)
            row = matrix[ring.ORDERS.index(ring.as_order(start))]
            empirical = trajectory.frequencies[1]
            for j in range(6):
                sigma = math.sqrt(max(row[j] * (1 - row[j]), 1e-12) / ensemble)
                assert abs(empirical[j] - row[j]) <= 3.0 * sigma + 1e-12
        # Table 3 "both" configuration: the modal first move from SOV is SVO
        sov_row = matrix[ring.ORDERS.index(W.SOV)]
        assert ring.ORDERS[int(np.argmax(sov_row))] is W.SVO
        trajectory = ring.evolve(kernel, "SOV", 1, ensemble, seed=7)
        assert ring.ORDERS[int(np.argmax(trajectory.frequencies[1]))] is W.SVO
