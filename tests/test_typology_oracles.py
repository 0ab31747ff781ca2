"""Oracles for the typology path: landscapes and ring evolution.

``deplen.landscape`` is checked for exact equality (values and types)
against the straightforward algorithm it replaces: a per-position sum over
every dependent.  ``ring.evolve`` is checked bit for bit, random stream
included, against a reference that splits each state's chains by
sequential conditional binomials, as a multinomial draw does, and its
final counts are checked against the exact distribution e0 P^t with a
chi-square test.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from conftest import TRANSDUCERS, exp_base
from ordlab import deplen, ring
from ordlab.errors import CostOverflow
from ordlab.infotheory import CostTransducer

# ---------------------------------------------------------------------------
# landscapes


def reference_landscape(m, g):
    """One sum per head position over d = 1..m, exact and rounded once.

    ``math.fsum`` rounds the exact sum of float terms once; ``sum`` keeps
    all-int terms exact.
    """
    g = functools.lru_cache(maxsize=None)(g)
    costs = []
    for p in range(1, m + 1):
        terms = [g(abs(p - d)) for d in range(1, m + 1) if d != p]
        if all(type(t) is int for t in terms):
            total = sum(terms)
        else:
            try:
                total = math.fsum(terms)
            except OverflowError:  # only positive terms overflow here: inf
                total = math.inf
        if isinstance(total, float) and not math.isfinite(total):
            raise CostOverflow(f"cost at head position {p} of m={m} is {total!r}")
        costs.append(total)
    return tuple(costs)


def outcome(fn, *args):
    """Value with its element types, or the CostOverflow message."""
    try:
        costs = fn(*args)
    except CostOverflow as exc:
        return "overflow", str(exc)
    return costs, [type(c) for c in costs]


def assert_same_landscape(m, g):
    got = deplen.landscape(m, g)
    want = reference_landscape(m, g)
    assert got.costs == want
    assert [type(c) for c in got.costs] == [type(c) for c in want]


transducers = st.one_of(
    st.sampled_from(sorted(TRANSDUCERS)).map(TRANSDUCERS.get),
    st.floats(1.0001, 3.7).map(exp_base),
    st.floats(1.01, 3.0).map(lambda k: CostTransducer("power", (k,))),
    st.tuples(st.floats(0.01, 10.0), st.floats(-1e3, -1e-3)).map(
        lambda ab: CostTransducer("affine", ab)
    ),
)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 400), g=transducers)
def test_landscape_matches_per_position_sums(m, g):
    assert_same_landscape(m, g)


@pytest.mark.parametrize("name", sorted(TRANSDUCERS))
@pytest.mark.parametrize("m", [2, 3, 5, 17, 50, 300])
def test_landscape_matches_per_position_sums_fixed(m, name):
    assert_same_landscape(m, TRANSDUCERS[name])


@pytest.mark.parametrize("m", [1023, 1024, 1100])
def test_overflow_outcome_matches(m):
    # 1023: every cost finite; 1024: the sum at position 1 rounds to inf;
    # 1100: exp(ln 2 * 1024) itself overflows
    g = TRANSDUCERS["exp:2"]
    want = outcome(reference_landscape, m, g)
    assert outcome(lambda: deplen.landscape(m, g).costs) == want
    assert (want[0] == "overflow") == (m > 1023)


def test_infinite_edge_costs_overflow_like_the_sums():
    # affine edge costs reach inf (from g(180) on) without raising
    g = CostTransducer("affine", (1e306, 0.0))
    with pytest.raises(CostOverflow) as got:
        deplen.landscape(400, g)
    with pytest.raises(CostOverflow) as want:
        reference_landscape(400, g)
    assert str(got.value) == str(want.value)


def test_landscape_calls_each_distance_once_in_order():
    calls = []

    class Recording(CostTransducer):
        # the map is chosen once, when the transducer is made, and the
        # landscape applies it without a call through __call__
        def _resolved(self):
            direction, apply = super()._resolved()

            def recorded(x):
                calls.append(x)
                return apply(x)

            return direction, recorded

    deplen.landscape(9, Recording("power", (1.5,)))
    assert calls == list(range(1, 9))


@pytest.mark.parametrize("name", sorted(TRANSDUCERS))
@pytest.mark.parametrize("m", [2, 7, 64, 257])
def test_dependency_cost_is_the_landscape_entry(m, name):
    # the cost of each head position, summed on its own, is its landscape entry
    assert_same_landscape(m, TRANSDUCERS[name])


# ---------------------------------------------------------------------------
# ring evolution


def reference_evolve(kernel, start, steps, ensemble_size, seed):
    """Split each occupied state's chains by sequential conditional binomials.

    Destination j takes Binomial(left, p_j / rest) of the chains still left,
    where rest is the row mass of destinations j..5, and destination 5 takes
    the remainder.  Together the draws are one multinomial split of the
    state's chains, the one per-chain sampling would give in distribution.
    """
    start_idx = ring.ORDERS.index(ring.as_order(start))
    matrix = ring.transition_matrix(kernel).tolist()
    rng = ring.substream(seed, "ring", "evolve")
    counts = [0] * 6
    counts[start_idx] = ensemble_size
    freqs = np.zeros((steps + 1, 6))
    freqs[0] = np.array(counts) / ensemble_size
    for step in range(1, steps + 1):
        new_counts = [0] * 6
        for s in range(6):
            left, rest = counts[s], 1.0
            for j, p in enumerate(matrix[s][:5]):
                if not left:
                    break
                drawn = int(rng.binomial(left, min(1.0, p / rest)))
                new_counts[j] += drawn
                left -= drawn
                rest -= p
            new_counts[5] += left
        counts = new_counts
        freqs[step] = np.array(counts) / ensemble_size
    return freqs


@pytest.fixture
def recorded_streams(monkeypatch):
    """Record every generator ring.evolve draws from."""
    made = []
    real = ring.substream

    def recording(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(ring, "substream", recording)
    return made


KERNELS = {
    "exponential": ring.RingKernel("exponential", 1.0, {"dlm": 2.0}),
    "negative_beta": ring.RingKernel("exponential", -2.5, {}, 0.3),
    "inverse_power": ring.RingKernel("inverse_power", 1.7, {"agent_first": 0.5}, 0.2),
    "zero_tabulated": ring.RingKernel("tabulated", {1: 0.0, 2: 1.0, 3: 0.0}),
    "zero_tabulated_far": ring.RingKernel(
        "tabulated", {1: 1.0, 2: 0.0, 3: 0.0}, {"verb_uncertainty": 0.0}, 0.4
    ),
    "all_filters": ring.RingKernel(
        "exponential", 0.4,
        {"dlm": 3.0, "verb_uncertainty": 0.2, "nominal_uncertainty": 1.5,
         "agent_first": 0.0},
    ),
}


@pytest.mark.parametrize("start", [str(o) for o in ring.ORDERS])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("steps, ensemble_size", [(0, 50), (1, 1), (7, 1), (12, 997)])
def test_evolve_matches_per_chain_sampling(recorded_streams, kernel, start, steps,
                                           ensemble_size):
    kernel = KERNELS[kernel]
    seed = 7919 * steps + ensemble_size
    got = ring.evolve(kernel, start, steps, ensemble_size, seed)
    want = reference_evolve(kernel, start, steps, ensemble_size, seed)
    assert np.array_equal(got.frequencies, want)
    # the same number of draws: both generators end in the same state
    used, reference = recorded_streams
    assert used.bit_generator.state == reference.bit_generator.state


@settings(max_examples=30, deadline=None)
@given(
    kernel=st.sampled_from(sorted(KERNELS)),
    start=st.sampled_from([str(o) for o in ring.ORDERS]),
    steps=st.integers(0, 30),
    ensemble_size=st.integers(1, 20_000),
    seed=st.integers(0, 2**63),
)
def test_evolve_matches_per_chain_sampling_random(kernel, start, steps, ensemble_size,
                                                  seed):
    kernel = KERNELS[kernel]
    got = ring.evolve(kernel, start, steps, ensemble_size, seed)
    want = reference_evolve(kernel, start, steps, ensemble_size, seed)
    assert np.array_equal(got.frequencies, want)


def exact_distribution(kernel, start, steps):
    """e0 P^t: the distribution of one chain's state after ``steps`` steps."""
    e0 = np.zeros(6)
    e0[ring.ORDERS.index(ring.as_order(start))] = 1.0
    return e0 @ np.linalg.matrix_power(ring.transition_matrix(kernel), steps)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_evolve_final_counts_fit_the_exact_distribution(kernel):
    kernel = KERNELS[kernel]
    chains, steps = 100_000, 5
    for i, start in enumerate(ring.ORDERS):
        counts = ring.evolve(kernel, start, steps, chains, 31 + i).frequencies[-1]
        counts = np.rint(counts * chains)
        expected = exact_distribution(kernel, start, steps) * chains
        reachable = expected > 0
        # a destination the kernel cannot reach gets no chain at all
        assert not counts[~reachable].any()
        if reachable.sum() > 1:
            result = chisquare(counts[reachable], expected[reachable])
            assert result.pvalue > 1e-3, (start, counts, expected)
