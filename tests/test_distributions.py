import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ordlab import distributions as d
from ordlab._rng import substream
from ordlab.errors import (
    ArityMismatch,
    MassOutOfTolerance,
    NegativeProbability,
    NonStochasticRow,
    RoleOverlap,
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

    @pytest.mark.parametrize("fields, missing", [
        ({"kind": "iid"}, "marginal"),
        ({"kind": "markov"}, "initial and transition"),
        ({"kind": "markov", "initial": {"a": 1.0}}, "transition"),
        ({"kind": "markov", "transition": {"a": {"a": 1.0}}}, "initial"),
        ({"kind": "homogeneous"}, "symbol"),
    ])
    def test_missing_field_rejected(self, fields, missing):
        with pytest.raises(ValueError, match=f"source needs {missing}$"):
            d.SequenceSource(**fields)

    def test_draw_past_a_row_total_below_one(self, monkeypatch):
        # the float cumulative row of (0.6, 0.3, 0.1, 0) ends at 0.9999999999999999
        class Stub:
            def choice(self, n, p):
                return 0

            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        monkeypatch.setattr(d, "substream", lambda *labels: Stub())
        src = d.SequenceSource(
            kind="markov",
            initial={"a": 1.0},
            transition={"a": {"a": 0.6, "b": 0.3, "c": 0.1, "z": 0.0},
                        "b": {"a": 1.0}, "c": {"c": 1.0}},
        )
        assert d.generate(src, 3) == ["a", "c", "c"]


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


# ---------------------------------------------------------------------------
# Builders against the tuple-keyed loops they replaced


def reference_normalize(table):
    """The dict renormalisation that model construction ran on tuple keys."""
    mass = math.fsum(table.values())
    clean = {k: p for k, p in table.items() if p > 0.0}
    if mass != 1.0:
        clean = {k: p / mass for k, p in clean.items()}
        largest = max(clean, key=clean.get)
        for _ in range(16):
            residual = 1.0 - math.fsum(clean.values())
            if residual == 0.0:
                break
            clean[largest] += residual
    return clean


def reference_iid_table(marginal, n_roles):
    """make_iid's product loop over tuple keys."""
    table = {}
    for combo in itertools.product(tuple(marginal), repeat=n_roles):
        p = math.prod(marginal[s] for s in combo)
        if p > 0:
            table[combo] = p
    return table


def reference_markov_table(initial, transition, length):
    """make_markov's depth-first recursion over tuple keys."""
    table = {}

    def extend(prefix, p):
        if p == 0.0:
            return
        if len(prefix) == length:
            table[prefix] = table.get(prefix, 0.0) + p
            return
        for nxt, q in transition[prefix[-1]].items():
            extend(prefix + (nxt,), p * q)

    for state, p0 in initial.items():
        extend((state,), p0)
    return table


# masses that are zero, that underflow once multiplied, and ordinary ones
MASSES = st.sampled_from([0.0, 1e-170, 3e-120, 0.1, 0.25, 1.0, 3.0]) | st.floats(0.01, 1.0)


def _weights(draw, symbols):
    """Shuffled symbols with masses summing to 1 within 1e-12, one positive."""
    symbols = draw(st.permutations(symbols))
    weights = draw(st.lists(MASSES, min_size=len(symbols), max_size=len(symbols)))
    if max(weights) < 0.01:
        weights[draw(st.integers(0, len(symbols) - 1))] = 1.0
    total = math.fsum(weights)
    return {s: w / total for s, w in zip(symbols, weights)}


def _same_rows(model, expected):
    assert list(model.table.items()) == list(reference_normalize(expected).items())
    assert all(type(p) is float for p in model.table.values())
    assert model._codes.dtype == np.int64
    assert np.array_equal(
        model._codes, d._encode(model.roles, model.alphabets, list(model.table))
    )
    assert np.array_equal(model._probs, list(model.table.values()))


class TestBuildersMatchTheTupleLoops:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_make_iid(self, data):
        n = data.draw(st.integers(1, 4))
        marginal = _weights(data.draw, [f"s{i}" for i in range(n)])
        length = data.draw(st.integers(1, 5))
        model = d.make_iid(marginal, length)
        assert model.alphabets["x1"].symbols == tuple(marginal)
        _same_rows(model, reference_iid_table(marginal, length))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_make_markov(self, data):
        states = [f"s{i}" for i in range(data.draw(st.integers(1, 4)))]
        initial = _weights(data.draw, states)
        transition = {}
        for state in data.draw(st.permutations(states)):
            row = _weights(data.draw, states)
            if data.draw(st.booleans()):
                row["outside"] = 0.0  # a successor no path of positive mass takes
            transition[state] = row
        length = data.draw(st.integers(1, 5))
        model = d.make_markov(initial, transition, length)
        _same_rows(model, reference_markov_table(initial, transition, length))

    def test_products_that_underflow_are_dropped(self):
        model = d.make_iid({"a": 1.0, "b": 1e-200}, 2)
        assert model.table == {("a", "a"): 1.0, ("a", "b"): 1e-200, ("b", "a"): 1e-200}

    def test_no_roles(self):
        assert d.make_iid({"a": 0.5, "b": 0.5}, 0).table == {(): 1.0}
        assert d.make_joint((), {(): 1.0}).table == {(): 1.0}


class TestTableView:
    @pytest.mark.parametrize("build", [
        lambda: d.make_joint(("a", "b"), {("x", "x"): 0.5, ("x", "y"): 0.5}),
        lambda: d.make_iid({"x": 0.5, "y": 0.5}, 2),
        lambda: d.make_markov({"x": 1.0}, {"x": {"x": 0.5, "y": 0.5}, "y": {"y": 1.0}}, 2),
        lambda: d.marginalize(d.make_iid({"x": 0.5, "y": 0.5}, 3), ("x3", "x1")),
    ])
    def test_assigning_to_the_table_raises(self, build):
        model = build()
        before = d.model_to_json(model)
        with pytest.raises(TypeError):
            model.table[("x", "x")] = 0.1
        with pytest.raises(TypeError):
            model.table[("z", "z")] = 0.1
        assert d.model_to_json(model) == before

    def test_equality_compares_the_table(self):
        a = d.make_joint(("t",), {("x",): 0.5, ("y",): 0.5})
        b = d.make_joint(("t",), {("y",): 0.5, ("x",): 0.5})
        c = d.make_joint(("t",), {("x",): 0.25, ("y",): 0.75})
        assert a == b
        assert a != c
        assert "table" not in repr(a)

    def test_an_integer_p_reads_back_as_a_float(self):
        text = json.dumps({"roles": ["y"], "alphabets": {"y": ["a", "b"]},
                           "entries": [{"tuple": ["a"], "p": 1}]})
        model = d.model_from_json(text)
        assert list(model.table.items()) == [(("a",), 1.0)]
        assert type(model.table[("a",)]) is float
        assert '"p": 1.0' in d.model_to_json(model)
        assert type(d.make_iid({"a": 1}, 2).table[("a", "a")]) is float


class TestBuilderErrorPrecedence:
    chain = ({"x": 1.0}, {"x": {"x": 1.0}})

    def test_markov_role_count_is_an_arity_error_after_role_overlap(self):
        with pytest.raises(ArityMismatch, match=r"tuple \('x', 'x', 'x'\) has arity 3, "
                                                r"expected 2"):
            d.make_markov(*self.chain, 3, roles=("a", "b"))
        with pytest.raises(RoleOverlap):
            d.make_markov(*self.chain, 3, roles=("a", "a"))

    def test_inferred_alphabets_check_arity_before_role_overlap(self):
        with pytest.raises(ArityMismatch):
            d.make_joint(("a", "a"), {("x", "x"): 0.5, ("x",): 0.5})
        with pytest.raises(RoleOverlap):
            d.make_joint(("a", "a"), {("x", "x"): 1.0})
        with pytest.raises(ValueError, match="alphabet must be non-empty"):
            d.make_joint(("a",), {})

    def test_iid_checks_the_marginal_before_role_overlap(self):
        with pytest.raises(MassOutOfTolerance, match="marginal"):
            d.make_iid({"x": 0.5}, 2, roles=("a", "a"))
        with pytest.raises(RoleOverlap):
            d.make_iid({"x": 1.0}, 2, roles=("a", "a"))
