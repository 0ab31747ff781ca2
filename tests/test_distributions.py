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
    ResultTooLarge,
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


# lengths whose walks end one step short of, on, and one step past a block
# boundary, and in the eighth step of a later block, all long enough that a
# chain of up to 16 dense states walks the bucket table in blocks
BLOCK_LENGTHS = [16 * d._BLOCK + k for k in (0, 1, 2)] + [19 * d._BLOCK + 8]


def _cycle(n):
    return {f"c{i}": {f"c{(i + 1) % n}": 1.0} for i in range(n)}


class TestGenerate:
    @settings(deadline=None)
    @given(markov_sources(), st.sampled_from([0, 1, 2, 3, 50, 400, *BLOCK_LENGTHS]),
           st.integers(0, 2**32))
    def test_markov_matches_searchsorted_walk(self, source, length, seed):
        assert d.generate(source, length, seed) == reference_markov_walk(
            source, length, seed
        )

    @pytest.mark.parametrize("source", [
        # point-mass cycles: walks from different states never meet
        d.SequenceSource("markov", initial={"c0": 1.0}, transition=_cycle(3)),
        d.SequenceSource("markov", initial={"c1": 0.5, "c4": 0.5}, transition=_cycle(7)),
        # sticky: walks meet about once in 500 steps
        d.SequenceSource("markov", initial={"a": 1.0},
                         transition={"a": {"a": 0.999, "b": 0.001},
                                     "b": {"a": 0.001, "b": 0.999}}),
        # "z" and "q" have no row and are never reached; rows list their
        # states in different orders
        d.SequenceSource("markov", initial={"z": 0.0, "a": 0.5, "b": 0.5},
                         transition={"b": {"q": 0.0, "a": 0.3, "b": 0.7},
                                     "a": {"b": 0.6, "a": 0.4, "q": 0.0}}),
        # one state leads to a point mass, the other mixes
        d.SequenceSource("markov", initial={"x": 1.0},
                         transition={"x": {"y": 1.0}, "y": {"y": 0.2, "x": 0.8}}),
    ])
    @pytest.mark.parametrize("length", [1, 2, 400, *BLOCK_LENGTHS, 40 * d._BLOCK + 3])
    def test_markov_edge_chains_match_searchsorted_walk(self, source, length):
        for seed in range(3):
            assert d.generate(source, length, seed) == reference_markov_walk(
                source, length, seed
            )

    def test_markov_with_many_states_matches_searchsorted_walk(self, monkeypatch):
        # 40 dense rows merge into a bucket table of about 62000 cells, too
        # large for the shorter walks, which bisect row by row; the longest
        # walk uses the table
        walks, walk = [], d._walk

        def spy(first, nexts, keys, symbols):
            walks.append(len(keys))
            return walk(first, nexts, keys, symbols)

        monkeypatch.setattr(d, "_walk", spy)
        rng = np.random.default_rng(5)
        symbols = [f"s{i}" for i in range(40)]
        rows = rng.dirichlet(np.ones(40), size=40)
        source = d.SequenceSource(
            "markov", initial={"s3": 1.0},
            transition={s: dict(zip(symbols, row.tolist()))
                        for s, row in zip(symbols, rows)})
        for length in (50, 4000, 12000):
            assert d.generate(source, length, 2) == reference_markov_walk(
                source, length, 2
            )
        assert walks == [12000 - 1]

    @pytest.mark.parametrize("n_symbols", [1, 2, 3, 7, 40, 255, 256, 257, 600])
    @pytest.mark.parametrize("zeros", ["none", "first", "inside", "last", "all three"])
    def test_iid_matches_rng_choice(self, n_symbols, zeros):
        rng = np.random.default_rng(n_symbols)
        weights = rng.random(n_symbols) ** 3
        spots = {"none": [], "first": [0], "inside": [n_symbols // 2],
                 "last": [n_symbols - 1], "all three": [0, n_symbols // 2, n_symbols - 1]}
        weights[spots[zeros]] = 0.0
        if not weights.any():
            weights[n_symbols // 2 if n_symbols > 2 else -1] = 1.0
        probs = (weights / weights.sum()).tolist()
        marginal = {f"w{i}": p for i, p in enumerate(probs)}
        source = d.SequenceSource("iid", marginal=marginal)
        for length in (0, 1, 2, 3000):
            choice = substream(9, "generate", "iid").choice(
                n_symbols, size=length, p=probs) if length else []
            expected = [f"w{i}" for i in np.asarray(choice).tolist()]
            assert d.generate(source, length, 9) == expected

    @pytest.mark.parametrize("kind, fields", [
        ("iid", {"marginal": {"a": 0.5, "b": 0.5}}),
        ("markov", {"initial": {"a": 1.0}, "transition": {"a": {"a": 0.5, "b": 0.5},
                                                          "b": {"a": 1.0}}}),
        ("periodic", {"block": ("a", "b", "c")}),
        ("homogeneous", {"symbol": "a"}),
        ("empirical", {"tokens": ("x", "y")}),
    ])
    @pytest.mark.parametrize("length", [10**14, 2**63 - 1, 2**64])
    def test_length_too_large(self, kind, fields, length):
        # each length is refused at its first allocation, the output or the
        # uniforms, before anything is written: 10**14 eight-byte items exceed
        # a 47-bit address space whatever the kernel's overcommit policy
        source = d.SequenceSource(kind, **fields)
        with pytest.raises(ResultTooLarge, match=f"length = {length}:"):
            d.generate(source, length)

    def test_periodic_and_empirical_repeat_whole_blocks_then_cut(self):
        src = d.SequenceSource(kind="periodic", block=("a", "b", "c", "d"))
        for length in range(1, 13):
            seq = d.generate(src, length, 2)
            offset = "abcd".index(seq[0])
            assert seq == ["abcd"[(offset + i) % 4] for i in range(length)]
        src = d.SequenceSource(kind="empirical", tokens=("x", "y", "z"))
        assert d.generate(src, 7) == ["x", "y", "z", "x", "y", "z", "x"]

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


class TestBuckets:
    @pytest.mark.parametrize("cuts", [
        [],
        [0.0],
        [0.0, 0.0, 0.5],
        [0.25, 0.25, 0.25],
        [0.1, 0.2, 0.2, 0.7, 0.9999999999999999],
        [0.5, 1.0, 1.0],
        np.cumsum(np.arange(1, 301) ** -1.1 / np.sum(np.arange(1, 301) ** -1.1)).tolist(),
        sorted(np.random.default_rng(1).random(1000).tolist()),
    ])
    def test_matches_searchsorted(self, cuts):
        cuts = np.array(cuts, np.float64)
        rng = np.random.default_rng(len(cuts))
        # zero, every cut and its neighbours, and uniforms
        u = np.concatenate([[0.0], cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, 1.0),
                            [np.nextafter(1.0, 0.0)], rng.random(5000)])
        u = u[(u >= 0.0) & (u < 1.0)]
        assert np.array_equal(d._buckets(cuts, u), np.searchsorted(cuts, u, side="right"))

    @settings(deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.125, 0.3, 0.5, 0.75]) | st.floats(0.0, 1.0),
                    max_size=40),
           st.lists(st.sampled_from([0.0, 0.125, 0.3, 0.5, 0.75]) | st.floats(0.0, 0.99),
                    max_size=40))
    def test_matches_searchsorted_on_any_cuts(self, cuts, u):
        cuts, u = np.sort(np.array(cuts, np.float64)), np.array(u, np.float64)
        assert np.array_equal(d._buckets(cuts, u), np.searchsorted(cuts, u, side="right"))


class TestScramble:
    @pytest.mark.parametrize("tokens", [
        [],
        ["a"],
        list("abcdefghij" * 31),
        [(i % 5, "x") for i in range(300)],
        [("a", "b"), ("a",), (), ("a", "b")],
    ])
    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_matches_the_permutation(self, tokens, seed):
        perm = substream(seed, "scramble").permutation(len(tokens)).tolist()
        out = d.scramble(tokens, seed)
        assert out == [tokens[i] for i in perm]
        assert all(a is tokens[i] for a, i in zip(out, perm))

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


# each of these would draw another seed's stream: -1 that of 2**64 - 1, 2**64
# that of 0, and 1.9, True and "1" that of 1
ALIASING_SEEDS = [-1, 2**64, 1.9, True, 1.0, "1", np.float64(1.0)]


class TestSeeds:
    @pytest.mark.parametrize("seed", ALIASING_SEEDS)
    def test_generate_refuses_a_seed_that_aliases_another(self, seed):
        source = d.SequenceSource("iid", marginal={"a": 0.5, "b": 0.5})
        with pytest.raises(ValueError, match="seed"):
            d.generate(source, 10, seed)
        with pytest.raises(ValueError, match="seed"):
            d.generate(d.SequenceSource("homogeneous", symbol="a", seed=seed), 0)

    @pytest.mark.parametrize("seed", ALIASING_SEEDS)
    def test_scramble_refuses_a_seed_that_aliases_another(self, seed):
        with pytest.raises(ValueError, match="seed"):
            d.scramble(list("abc"), seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_numpy_integers_draw_what_ints_draw(self, seed):
        source = d.SequenceSource("iid", marginal={"a": 0.5, "b": 0.5})
        tokens = d.generate(source, 50, seed)
        assert d.generate(source, 50, np.uint64(seed)) == tokens
        assert d.scramble(tokens, np.uint64(seed)) == d.scramble(tokens, seed)
        if seed < 2**63:
            assert d.generate(source, 50, np.int64(seed)) == tokens


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


class TestChainRowsOfPaddingOnly:
    """States whose rows in a chain are all padding: one in initial at mass 0
    with no row, and one without a row that only an unreachable state's row
    leads to."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_builder_and_walks_match_the_references(self, data):
        states = [f"s{i}" for i in range(data.draw(st.integers(1, 4)))]
        initial = dict(data.draw(st.permutations(
            [*_weights(data.draw, states).items(), ("idle", 0.0)])))
        transition = dict(data.draw(st.permutations(
            [*((s, _weights(data.draw, states)) for s in states),
             ("lost", {"void": 0.5, states[-1]: 0.5})])))
        length = data.draw(st.integers(1, 5))
        _same_rows(d.make_markov(initial, transition, length),
                   reference_markov_table(initial, transition, length))
        source = d.SequenceSource("markov", initial=initial, transition=transition)
        chain_states, _, probs, _ = source._markov
        for state in ("idle", "void"):
            assert not probs[chain_states.index(state)].any()
        seed = data.draw(st.integers(0, 2**32))
        for n in (400, BLOCK_LENGTHS[1]):
            assert d.generate(source, n, seed) == reference_markov_walk(source, n, seed)

    def test_a_source_keeps_the_chain_it_read(self):
        initial, transition = {"a": 1.0}, {"a": {"a": 0.5, "b": 0.5}, "b": {"a": 1.0}}
        source = d.SequenceSource("markov", initial=initial, transition=transition)
        before = [d.generate(source, n, 3) for n in (50, BLOCK_LENGTHS[0])]
        initial["b"], initial["a"] = 1.0, 0.0
        transition["a"]["a"] = 1.0
        assert [d.generate(source, n, 3) for n in (50, BLOCK_LENGTHS[0])] == before


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
