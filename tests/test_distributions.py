import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ordlab import distributions as d
from ordlab._rng import substream
from ordlab.errors import (
    ArityMismatch,
    MassOutOfTolerance,
    NegativeProbability,
    NonStochasticRow,
    UnknownRole,
)


class TestMakeJoint:
    def test_symmetric_two_point(self):
        m = d.make_joint(("target", "x1"), {("a", "a"): 0.5, ("b", "b"): 0.5})
        assert m.marginal(("target",))[("a",)] == 0.5

    def test_mass_out_of_tolerance(self):
        with pytest.raises(MassOutOfTolerance):
            d.make_joint(("target", "x1"), {("a", "a"): 0.5, ("b", "b"): 0.4})

    def test_three_role_uniform_marginals(self):
        import itertools

        table = {c: 1 / 8 for c in itertools.product("ab", repeat=3)}
        m = d.make_joint(("r1", "r2", "r3"), table)
        for role in m.roles:
            marg = m.marginal((role,))
            assert marg[("a",)] == pytest.approx(0.5, abs=1e-12)
            assert marg[("b",)] == pytest.approx(0.5, abs=1e-12)

    def test_negative_probability(self):
        with pytest.raises(NegativeProbability):
            d.make_joint(("t",), {("a",): 1.1, ("b",): -0.1})

    @pytest.mark.parametrize("build", [
        lambda: d.make_iid({"a": 1.5, "b": -0.5}, 2),
        lambda: d.make_markov({"a": 1.5, "b": -0.5}, {"a": {"a": 1}, "b": {"b": 1}}, 2),
        lambda: d.make_markov({"a": 1}, {"a": {"a": 1.5, "b": -0.5}, "b": {"b": 1}}, 2),
        lambda: d.SequenceSource(kind="iid", marginal={"a": 1.5, "b": -0.5}),
    ])
    def test_negative_probability_summing_to_one(self, build):
        with pytest.raises(NegativeProbability):
            build()

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            d.make_joint(("t", "x"), {("a",): 1.0})

    def test_renormalization_within_tolerance(self):
        eps = 4e-13
        m = d.make_joint(("t",), {("a",): 0.5 + eps, ("b",): 0.5})
        assert math.fsum(m.table.values()) == 1.0


class TestMakeIid:
    def test_fair_coin_three_roles(self):
        m = d.make_iid({"a": 0.5, "b": 0.5}, 3)
        assert all(p == pytest.approx(1 / 8) for p in m.table.values())
        assert len(m.table) == 8

    def test_degenerate_marginal(self):
        m = d.make_iid({"a": 1.0}, 2)
        assert m.table == {("a", "a"): 1.0}

    def test_skewed_product(self):
        m = d.make_iid({"a": 0.25, "b": 0.75}, 2)
        assert m.table[("a", "b")] == pytest.approx(0.1875, abs=1e-15)

    def test_marginalize_recovers_marginal(self):
        marginal = {"a": 0.3, "b": 0.7}
        m = d.make_iid(marginal, 3)
        for role in m.roles:
            sub = d.marginalize(m, (role,))
            assert sub.table[("a",)] == pytest.approx(0.3, abs=1e-12)
            assert sub.table[("b",)] == pytest.approx(0.7, abs=1e-12)


class TestMakeMarkov:
    def test_deterministic_cycle(self):
        m = d.make_markov({"a": 1.0}, {"a": {"b": 1.0}, "b": {"a": 1.0}}, 3)
        assert m.table == {("a", "b", "a"): 1.0}

    def test_uniform_two_state(self):
        t = {"a": {"a": 0.5, "b": 0.5}, "b": {"a": 0.5, "b": 0.5}}
        m = d.make_markov({"a": 0.5, "b": 0.5}, t, 2)
        assert all(p == pytest.approx(0.25) for p in m.table.values())

    def test_hand_product(self):
        t = {"a": {"a": 0.9, "b": 0.1}, "b": {"b": 0.8, "a": 0.2}}
        m = d.make_markov({"a": 0.6, "b": 0.4}, t, 2)
        assert m.table[("a", "a")] == pytest.approx(0.54, abs=1e-15)

    def test_non_stochastic_row(self):
        with pytest.raises(NonStochasticRow):
            d.make_markov({"a": 1.0}, {"a": {"a": 0.5}}, 2)


class TestMarginalize:
    def test_identity(self):
        m = d.make_iid({"a": 0.5, "b": 0.5}, 2)
        same = d.marginalize(m, m.roles)
        assert same.table == m.table

    def test_uniform_cube_to_square(self):
        import itertools

        table = {c: 1 / 8 for c in itertools.product("ab", repeat=3)}
        m = d.make_joint(("r1", "r2", "r3"), table)
        # brute-force oracle: sum the cube slices by hand
        expected = Counter()
        for c, p in table.items():
            expected[(c[0], c[1])] += p
        sub = d.marginalize(m, ("r1", "r2"))
        for key, p in expected.items():
            assert sub.table[key] == pytest.approx(p, abs=1e-15)

    def test_unknown_role(self):
        m = d.make_iid({"a": 1.0}, 2)
        with pytest.raises(UnknownRole):
            d.marginalize(m, ("nope",))


def reference_markov_walk(source, length, seed):
    """searchsorted walk that generate replaced, on the same substream."""
    if length == 0:
        return []
    rng = substream(seed, "generate", "markov")
    states = list(source.initial)
    out = [states[rng.choice(len(states), p=[source.initial[s] for s in states])]]
    rows = {
        s: (list(row), np.cumsum([row[t] for t in row]))
        for s, row in source.transition.items()
    }
    for u in rng.random(length - 1):
        nxt_states, cumulative = rows[out[-1]]
        out.append(nxt_states[int(np.searchsorted(cumulative, u, side="right"))])
    return out


def _distribution(draw, symbols):
    """Normalized weights over ``symbols``, zeros included, at least one positive."""
    weights = draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0, 2.5, 7.0]),
                            min_size=len(symbols), max_size=len(symbols)))
    if not any(weights):
        weights[draw(st.integers(0, len(symbols) - 1))] = 1.0
    total = math.fsum(weights)
    return {s: w / total for s, w in zip(symbols, weights)}


@st.composite
def markov_sources(draw):
    symbols = [f"s{i}" for i in range(draw(st.integers(1, 6)))]
    return d.SequenceSource(
        kind="markov",
        initial=_distribution(draw, symbols),
        transition={s: _distribution(draw, symbols) for s in symbols},
    )


class TestGenerate:
    @given(markov_sources(), st.sampled_from([0, 1, 2, 3, 50, 400]),
           st.integers(0, 2**32))
    def test_markov_matches_searchsorted_walk(self, source, length, seed):
        assert d.generate(source, length, seed) == reference_markov_walk(
            source, length, seed
        )

    def test_homogeneous(self):
        src = d.SequenceSource(kind="homogeneous", symbol="a")
        assert d.generate(src, 4) == ["a", "a", "a", "a"]

    def test_periodic_is_rotation_of_block(self):
        block = ("a", "b", "c")
        src = d.SequenceSource(kind="periodic", block=block)
        for seed in range(20):
            seq = d.generate(src, 6, seed)
            offset = block.index(seq[0])
            expected = [block[(offset + i) % 3] for i in range(6)]
            assert seq == expected

    def test_periodic_zero_offset_exists(self):
        # the relaxed reading chooses the phase uniformly; all three occur
        src = d.SequenceSource(kind="periodic", block=("a", "b", "c"))
        starts = {d.generate(src, 6, seed)[0] for seed in range(64)}
        assert starts == {"a", "b", "c"}

    def test_iid_concentration(self):
        src = d.SequenceSource(kind="iid", marginal={"a": 0.5, "b": 0.5})
        seq = d.generate(src, 10_000, seed=7)
        freq = seq.count("a") / len(seq)
        assert abs(freq - 0.5) <= 0.02

    def test_empirical_cycles(self):
        src = d.SequenceSource(kind="empirical", tokens=("x", "y"))
        assert d.generate(src, 5) == ["x", "y", "x", "y", "x"]

    def test_reproducible(self):
        src = d.SequenceSource(
            kind="markov",
            initial={"a": 0.5, "b": 0.5},
            transition={"a": {"a": 0.7, "b": 0.3}, "b": {"a": 0.4, "b": 0.6}},
        )
        assert d.generate(src, 500, seed=3) == d.generate(src, 500, seed=3)
        assert d.generate(src, 500, seed=3) != d.generate(src, 500, seed=4)

    def test_zero_length(self):
        src = d.SequenceSource(kind="homogeneous", symbol="a")
        assert d.generate(src, 0) == []


class TestScramble:
    def test_identical_tokens(self):
        assert d.scramble(["a", "a", "a"], seed=11) == ["a", "a", "a"]

    def test_empty(self):
        assert d.scramble([], seed=0) == []

    @given(st.lists(st.sampled_from("abcde")), st.integers(0, 2**32))
    def test_multiset_preserved(self, tokens, seed):
        assert Counter(d.scramble(tokens, seed)) == Counter(tokens)

    def test_deterministic(self):
        tokens = list("abcdefgh")
        assert d.scramble(tokens, 5) == d.scramble(tokens, 5)


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(8))
        import itertools

        table = {
            c: float(p) for c, p in zip(itertools.product("ab", repeat=3), probs)
        }
        m = d.make_joint(("y", "x1", "x2"), table, target_role="y")
        path = tmp_path / "model.json"
        d.save_model(m, path)
        first = path.read_bytes()
        m2 = d.load_model(path)
        d.save_model(m2, path)
        assert path.read_bytes() == first
        assert m2.table == m.table
