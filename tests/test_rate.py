import copy
import math
import operator
import pickle
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import nnls

from ordlab import distributions as d, rate
from ordlab.errors import (
    DegenerateProfile,
    EmptySequence,
    InsufficientData,
)
from ordlab.infotheory import EntropyProfile


def reference_ngram_counts(sequence, max_order, cyclic):
    """Per-window loop that ngram_counts replaced, kept as its oracle."""
    tokens = list(sequence)
    n = len(tokens)
    counts, totals = {}, {}
    for order in range(1, max_order + 1):
        counter = Counter()
        if cyclic:
            for start in range(n):
                counter[tuple(tokens[(start + k) % n] for k in range(order))] += 1
            totals[order] = n
        else:
            for start in range(n - order + 1):
                counter[tuple(tokens[start:start + order])] += 1
            totals[order] = max(0, n - order + 1)
        counts[order] = counter
    return counts, totals


def reference_block_entropy(counter, total):
    """Counter-based sum that block_entropy replaced, kept as its oracle."""
    return -math.fsum((c / total) * math.log2(c / total) for c in counter.values())


def reference_profile(sequence, max_order, cyclic, coverage_cap):
    """Counter-based conditional_entropy_profile values, kept as its oracle."""
    counts, totals = reference_ngram_counts(sequence, max_order, cyclic)
    values, previous = [], 0.0
    for order in range(1, max_order + 1):
        total = totals[order]
        if not total:
            break
        if (coverage_cap is not None and order > 1
                and len(counts[order]) > coverage_cap * total):
            break
        h_block = reference_block_entropy(counts[order], total)
        values.append(h_block - previous)
        previous = h_block
    return values


@st.composite
def token_sequences(draw):
    if draw(st.booleans()):
        return draw(st.text("abcd", min_size=1, max_size=40))
    vocabulary = draw(st.integers(1, 5000))
    codes = draw(st.lists(st.integers(0, vocabulary - 1), min_size=1, max_size=200))
    return [f"w{c}" for c in codes]


@st.composite
def chunk_edge_cases(draw):
    """(sequence, max_order, cyclic) with orders on both sides of a chunk edge.

    A table sorts its orders in chunks, one key per window, where a code
    takes bits = V.bit_length() bits: code V marks a position past a
    non-cyclic end, so a vocabulary of 2**b symbols needs one bit more than
    one of 2**b - 1.  Vocabularies of 2**b - 1, 2**b and 2**b + 1 symbols
    put V on both sides of that.  The first chunk holds 31 // bits orders
    as 32-bit keys until an order past them is asked for, and then 63 //
    bits orders as 64-bit keys, so the edge is drawn from both: max_order
    runs from one below the last order of that first chunk to two past it,
    so the chunk sorted again, or the next one, led by the rank of each
    window's block, is counted too.  Cyclic orders may pass the sequence
    length.  A repeated motif keeps long blocks repeating.
    """
    vocabulary = 2 ** draw(st.integers(1, 5)) + draw(st.integers(-1, 1))
    bits = vocabulary.bit_length()
    per_chunk = draw(st.sampled_from([31 // bits, 63 // bits]))
    max_order = draw(st.integers(per_chunk - 1, per_chunk + 2))
    n = draw(st.integers(vocabulary, max(vocabulary, per_chunk) + 8))
    if draw(st.booleans()):
        motif = draw(st.lists(st.integers(0, vocabulary - 1), min_size=1, max_size=4))
        tail = (motif * n)[:n - vocabulary]
    else:
        tail = draw(st.lists(st.integers(0, vocabulary - 1),
                             min_size=n - vocabulary, max_size=n - vocabulary))
    codes = draw(st.permutations(range(vocabulary))) + tail
    return [f"w{c}" for c in codes], max_order, draw(st.booleans())


class TestNgramCounts:
    @given(token_sequences(), st.integers(1, 9), st.booleans())
    def test_matches_per_window_loop(self, sequence, max_order, cyclic):
        table = rate.ngram_counts(sequence, max_order, cyclic=cyclic)
        counts, totals = reference_ngram_counts(sequence, max_order, cyclic)
        assert list(table.counts) == list(counts)
        for order in counts:  # same blocks, counts and first-occurrence order
            assert list(table.counts[order].items()) == list(counts[order].items())
        assert table.total_positions == totals
        assert (table.max_order, table.cyclic) == (max_order, cyclic)

    def test_linear_windows(self):
        table = rate.ngram_counts("abab", 2)
        assert table.counts[1] == Counter({("a",): 2, ("b",): 2})
        assert table.counts[2] == Counter({("a", "b"): 2, ("b", "a"): 1})
        assert table.total_positions == {1: 4, 2: 3}

    def test_cyclic_windows(self):
        table = rate.ngram_counts("abab", 2, cyclic=True)
        assert table.counts[2] == Counter({("a", "b"): 2, ("b", "a"): 2})
        assert table.total_positions == {1: 4, 2: 4}

    def test_order_longer_than_sequence(self):
        table = rate.ngram_counts("ab", 3)
        assert table.total_positions[3] == 0

    def test_empty_sequence(self):
        with pytest.raises(EmptySequence):
            rate.ngram_counts([], 1)

    def test_counts_match_brute_force(self):
        seq = list("mississippi")
        table = rate.ngram_counts(seq, 3)
        for order in (1, 2, 3):
            want = Counter(
                tuple(seq[i:i + order]) for i in range(len(seq) - order + 1)
            )
            assert table.counts[order] == want


class TestBlockEntropy:
    def test_uniform_pairs(self):
        table = rate.ngram_counts("abab", 2, cyclic=True)
        assert rate.block_entropy(table, 1) == pytest.approx(1.0, abs=1e-12)
        assert rate.block_entropy(table, 2) == pytest.approx(1.0, abs=1e-12)

    def test_single_symbol(self):
        table = rate.ngram_counts("aaaa", 2)
        assert rate.block_entropy(table, 1) == 0.0

    def test_no_windows(self):
        table = rate.ngram_counts("ab", 3)
        with pytest.raises(InsufficientData):
            rate.block_entropy(table, 3)


class TestConditionalProfile:
    def test_periodic_cyclic_is_exact(self):
        seq = ["a", "b", "c"] * 40
        table = rate.ngram_counts(seq, 4, cyclic=True)
        profile = rate.conditional_entropy_profile(table, coverage_cap=None)
        want = rate.exact_periodic_profile(3, 4).values
        for got, expected in zip(profile.values, want):
            assert got == pytest.approx(expected, abs=1e-12)

    def test_iid_estimates_converge(self):
        src = d.SequenceSource(kind="iid", marginal={"a": 0.5, "b": 0.5})
        seq = d.generate(src, 50_000, seed=5)
        table = rate.ngram_counts(seq, 3)
        profile = rate.conditional_entropy_profile(table)
        for v in profile.values:
            assert v == pytest.approx(1.0, abs=0.01)

    def test_markov_estimates_converge(self):
        src = d.SequenceSource(
            kind="markov",
            initial={"a": 0.5, "b": 0.5},
            transition={"a": {"a": 0.9, "b": 0.1}, "b": {"a": 0.1, "b": 0.9}},
        )
        seq = d.generate(src, 100_000, seed=9)
        table = rate.ngram_counts(seq, 3)
        profile = rate.conditional_entropy_profile(table)
        h_step = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        assert profile.values[0] == pytest.approx(1.0, abs=0.01)
        assert profile.values[1] == pytest.approx(h_step, abs=0.01)
        assert profile.values[2] == pytest.approx(h_step, abs=0.01)

    def test_coverage_cap_truncates(self):
        # 40 tokens, nearly all distinct bigrams: cap 0.2 stops at order 1
        seq = [f"t{i}" for i in range(40)]
        table = rate.ngram_counts(seq, 3)
        profile = rate.conditional_entropy_profile(table, coverage_cap=0.2)
        assert len(profile.values) == 1


class TestMatchesCounterReference:
    @settings(deadline=None)
    @given(token_sequences(), st.integers(1, 8), st.booleans(),
           st.sampled_from([0.2, 0.05, None]))
    @example("abcdabdca", 3, False, None)
    @example("abcdabdc", 3, False, None)
    # cyclic blocks stop splitting by order len(sequence) + 1 at the latest;
    # past that the profile emits zeros without counting, and the reference
    # counts every order
    @example("abcabc", 30, True, None)
    @example("aabacbb", 20, True, 1.0)
    def test_same_floats(self, sequence, max_order, cyclic, coverage_cap):
        self.check(sequence, max_order, cyclic, coverage_cap)

    @settings(deadline=None)
    @given(chunk_edge_cases(), st.sampled_from([None, 1.0, 0.5]))
    def test_same_counts_and_floats_across_a_chunk_edge(self, case, coverage_cap):
        sequence, max_order, cyclic = case
        self.check(sequence, max_order, cyclic, coverage_cap)
        table = rate.ngram_counts(sequence, max_order, cyclic=cyclic)
        counts, _ = reference_ngram_counts(sequence, max_order, cyclic)
        for order in counts:  # same blocks, counts and first-occurrence order
            assert list(table.counts[order].items()) == list(counts[order].items())

    @staticmethod
    def check(sequence, max_order, cyclic, coverage_cap):
        table = rate.ngram_counts(sequence, max_order, cyclic=cyclic)
        want = reference_profile(sequence, max_order, cyclic, coverage_cap)
        if want:
            profile = rate.conditional_entropy_profile(table, coverage_cap)
            assert list(profile.values) == want
        else:
            with pytest.raises(InsufficientData):
                rate.conditional_entropy_profile(table, coverage_cap)
        counts, totals = reference_ngram_counts(sequence, max_order, cyclic)
        for order in counts:
            if totals[order]:
                assert rate.block_entropy(table, order) == reference_block_entropy(
                    counts[order], totals[order])


class TestLazyCounting:
    # table._chunk is the last chunk of orders sorted: [first order, number
    # of orders, leading ranks, sorted keys, key XORs, window places].
    # Chunks are sorted in order, so none past the one it holds has been
    # sorted.  The first chunk holds the orders whose codes fit 31 bits, as
    # 32-bit keys, if there are two or more, until an order past them is
    # asked for; then orders 1.. are sorted again, 63 bits' worth.

    def test_profile_counts_no_order_past_its_stop(self):
        # 40 distinct tokens, 5 orders in the 32-bit chunk: order 2 breaks
        # the cap
        table = rate.ngram_counts([f"t{i}" for i in range(40)], 30)
        assert len(rate.conditional_entropy_profile(table, coverage_cap=0.2)) == 1
        assert table._chunk[:2] == [1, 5]
        # 3 tokens: orders 4.. have no window left
        table = rate.ngram_counts("abc", 100)
        profile = rate.conditional_entropy_profile(table, coverage_cap=None)
        assert len(profile) == 3
        assert table._chunk[:2] == [1, 15]
        # 40 tokens of 2 kinds, 31 orders in the 64-bit first chunk: the
        # second, led by ranks of at most 6 bits, holds orders 32..59 and
        # order 40, the last with a window
        table = rate.ngram_counts("ab" * 13 + "a" * 14, 100)
        profile = rate.conditional_entropy_profile(table, coverage_cap=None)
        assert len(profile) == 40
        assert table._chunk[:2] == [32, 28]

    def test_capped_profile_sorts_only_the_32_bit_chunk(self):
        # 200 symbols take 8 bits: 3 orders a 32-bit key, and order 2 of 10^4
        # iid tokens breaks the cap
        source = d.SequenceSource("iid", marginal={f"w{i}": 1 / 200 for i in range(200)})
        table = rate.ngram_counts(d.generate(source, 10_000, seed=1), 6)
        assert len(rate.conditional_entropy_profile(table, coverage_cap=0.2)) == 1
        assert table._chunk[:2] == [1, 3]
        assert table._chunk[3].dtype == np.int32

    @pytest.mark.parametrize("cyclic", [False, True])
    def test_profile_past_the_32_bit_chunk_sorts_orders_again(self, cyclic):
        rng = np.random.default_rng(3)
        sequence = [f"w{c}" for c in rng.permutation(200)]
        sequence += [f"w{c}" for c in rng.integers(0, 20, 400)]
        counts, _ = reference_ngram_counts(sequence, 5, cyclic)
        table = rate.ngram_counts(sequence, 5, cyclic=cyclic)
        assert list(table.counts[3].items()) == list(counts[3].items())
        assert table._chunk[:2] == [1, 3] and table._chunk[3].dtype == np.int32
        profile = rate.conditional_entropy_profile(table, coverage_cap=None)
        # 5 orders of 8 bits: the 63-bit first chunk, holding every order
        assert table._chunk[:2] == [1, 5] and table._chunk[3].dtype == np.int64
        assert list(profile.values) == reference_profile(sequence, 5, cyclic, None)
        for order in counts:
            assert list(table.counts[order].items()) == list(counts[order].items())
        assert table._chunk[:2] == [1, 5]

    def test_40000_symbols_keep_the_64_bit_first_chunk(self):
        # 16 bits a code: 31 bits hold one order, so the first chunk holds
        # 63 // 16 = 3 orders from the start, and order 2 sorts nothing again
        table = rate.ngram_counts([f"t{i}" for i in range(40_000)], 6)
        assert rate.block_entropy(table, 1) == pytest.approx(math.log2(40_000))
        assert table._chunk[:2] == [1, 3] and table._chunk[3].dtype == np.int64
        keys = table._chunk[3]
        assert len(rate.conditional_entropy_profile(table)) == 1
        assert table._chunk[3] is keys

    def test_uint32_codes_count_like_the_reference(self):
        sequence = [f"t{i}" for i in range(70_000)] + [f"t{i}" for i in range(0, 900, 3)]
        for max_order in (1, 4):  # one order fits a 32-bit key
            table = rate.ngram_counts(sequence, max_order)
            assert table._codes.dtype == np.uint32
            counts, _ = reference_ngram_counts(sequence, max_order, False)
            for order in counts:
                assert list(table.counts[order].items()) == list(counts[order].items())
            profile = rate.conditional_entropy_profile(table, coverage_cap=None)
            assert list(profile.values) == reference_profile(sequence, max_order,
                                                             False, None)
        assert table._chunk[:2] == [4, 1]

    def test_cyclic_profile_counts_up_to_its_fixpoint(self):
        # order 2 has as many blocks as order 1: nothing past it is counted
        table = rate.ngram_counts(["a", "b", "c"] * 40, 200_000, cyclic=True)
        profile = rate.conditional_entropy_profile(table, coverage_cap=None)
        assert len(profile) == 200_000
        assert profile.values[0] == math.log2(3)
        assert set(profile.values[1:]) == {0.0}
        assert table._chunk[:2] == [1, 15]
        # 7 tokens whose 7 cyclic 3-blocks all differ: order 4 shows that
        # they stopped splitting
        table = rate.ngram_counts("aabacbb", 50, cyclic=True)
        profile = rate.conditional_entropy_profile(table, coverage_cap=None)
        assert len(profile) == 50
        assert table._chunk[:2] == [1, 15]

    def test_unigram_view_in_first_occurrence_order(self):
        table = rate.ngram_counts("banana", 5)
        assert list(table.counts[1].items()) == [(("b",), 1), (("a",), 3),
                                                 (("n",), 2)]
        assert table._chunk[:2] == [1, 5]

    def test_views_are_not_memoised(self):
        table = rate.ngram_counts("abab", 2)
        first = table.counts[2]
        first[("a", "b")] += 5
        assert table.counts[2] == Counter({("a", "b"): 2, ("b", "a"): 1})
        assert table.counts[2] is not table.counts[2]

    def test_huge_max_order_builds_nothing_per_order(self):
        table = rate.ngram_counts("abcab", 10**12)
        assert len(table.total_positions) == len(table.counts) == 10**12
        assert table.total_positions[10**12] == 0
        assert table.counts[10**12] == Counter()
        assert table._chunk is None
        assert 0 not in table.counts and 10**12 + 1 not in table.total_positions
        with pytest.raises(KeyError):
            table.counts[10**12 + 1]
        # the profile sorts one chunk: one key per window, 15 orders a key
        assert len(rate.conditional_entropy_profile(table, coverage_cap=None)) == 5
        first, orders, lead, keys, xor, place = table._chunk
        assert (first, orders, lead, place) == (1, 15, None, None)
        assert (len(keys), len(xor)) == (5, 4)


@st.composite
def coded_sources(draw):
    """iid and Markov sources of 1-4 symbols, strings or tuples, with zero
    masses allowed in the marginal, the initial distribution and every row."""
    symbols = draw(st.lists(st.sampled_from(["a", "b", "c", ("a",), ("a", "b"), ()]),
                            min_size=1, max_size=4, unique=True))

    def distribution():
        weights = draw(st.lists(st.sampled_from([0.0, 0.0, 0.2, 1.0, 3.0]),
                                min_size=len(symbols), max_size=len(symbols)))
        if not any(weights):
            weights[-1] = 1.0
        return {s: w / math.fsum(weights) for s, w in zip(symbols, weights)}

    if draw(st.booleans()):
        return d.SequenceSource("iid", marginal=distribution())
    return d.SequenceSource("markov", initial=distribution(),
                            transition={s: distribution() for s in symbols})


# a Markov walk of this many tokens or more on up to 4 states walks the
# bucket table in blocks; a shorter one bisects
_BLOCKED = 8 * d._BLOCK + 8


class TestCodedTokens:
    """Generated and scrambled corpora are their codes (``distributions._Corpus``);
    results stay those of the plain list of the same tokens."""

    @staticmethod
    def assert_same_tables(tokens, plain, max_order=4):
        for cyclic in (False, True):
            a = rate.ngram_counts(tokens, max_order, cyclic=cyclic)
            b = rate.ngram_counts(plain, max_order, cyclic=cyclic)
            if isinstance(tokens, d._Corpus) and not cyclic:  # counted as they are
                assert a._codes.dtype == tokens.codes.dtype
                assert np.shares_memory(a._codes, tokens.codes)
            for t in (a, b):  # the codes decode, however they are numbered
                assert [t._vocabulary[c] for c in t._codes[:t._n].tolist()] == plain
            for order in range(1, max_order + 1):
                assert list(a.counts[order].items()) == list(b.counts[order].items())
                assert a.total_positions[order] == b.total_positions[order]
                if a.total_positions[order]:
                    assert rate.block_entropy(a, order) == rate.block_entropy(b, order)
            for cap in (None, 0.2):
                assert (rate.conditional_entropy_profile(a, cap).values
                        == rate.conditional_entropy_profile(b, cap).values)

    @settings(deadline=None, max_examples=60)
    @given(coded_sources(),
           st.sampled_from([1, 2, 50, 8 * d._BLOCK - 1, 8 * d._BLOCK, 8 * d._BLOCK + 1,
                            _BLOCKED, 12 * d._BLOCK + 5]),
           st.integers(0, 2**32), st.integers(0, 2**32))
    def test_coded_and_plain_lists_give_the_same_results(self, source, length, seed,
                                                         scramble_seed):
        tokens = d.generate(source, length, seed)
        assert type(tokens) is d._Corpus
        self.assert_same_tables(tokens, list(tokens))
        scrambled = d.scramble(tokens, scramble_seed)
        assert scrambled == d.scramble(list(tokens), scramble_seed)
        assert type(scrambled) is d._Corpus
        assert type(d.scramble(list(tokens), scramble_seed)) is list
        self.assert_same_tables(scrambled, list(scrambled), max_order=2)

    @pytest.mark.parametrize("source", [
        d.SequenceSource("periodic", block=("a", ("b",), "a", "c")),
        d.SequenceSource("periodic", block=("x",)),
        d.SequenceSource("empirical", tokens=("the", "cat", "the", "mat", ("the",))),
        d.SequenceSource("homogeneous", symbol="a"),
    ], ids=["periodic", "periodic-one", "empirical", "homogeneous"])
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 7, 50, 1001])
    def test_block_sources_count_like_plain_lists(self, source, length):
        for seed in range(3):
            tokens = d.generate(source, length, seed)
            assert type(tokens) is d._Corpus and len(tokens) == length
            self.assert_same_tables(tokens, list(tokens))
            scrambled = d.scramble(tokens, seed)
            assert type(scrambled) is d._Corpus
            assert scrambled == d.scramble(list(tokens), seed)
            self.assert_same_tables(scrambled, list(scrambled), max_order=2)

    def test_errors_keep_their_order(self):
        tokens = d.generate(d.SequenceSource("iid", marginal={"a": 1.0}), 5)
        with pytest.raises(ValueError, match="max_order"):
            rate.ngram_counts(tokens, 0)
        empty = d._Corpus(["a"], np.zeros(0, np.intp))
        with pytest.raises(EmptySequence):
            rate.ngram_counts(empty, 0)

    @staticmethod
    def generated():
        marginal = {"a": 0.5, "b": 0.25, ("c",): 0.125, "d": 0.125, "z": 0.0}
        tokens = d.generate(d.SequenceSource("iid", marginal=marginal), 300, 4)
        assert type(tokens) is d._Corpus
        return tokens

    @pytest.mark.parametrize("mutate", [
        lambda t: operator.setitem(t, 0, t[-1]),
        lambda t: operator.setitem(t, slice(0, 40), ["x"]),
        lambda t: operator.delitem(t, 3),
        lambda t: operator.delitem(t, slice(None, None, 2)),
        lambda t: operator.iadd(t, ["x", ("y",)]),
        lambda t: operator.imul(t, 2),
        lambda t: t.append("x"),
        lambda t: t.extend(["b", "x"]),
        lambda t: t.insert(7, "x"),
        lambda t: t.pop(),
        lambda t: t.pop(0),
        lambda t: t.remove("d"),
        lambda t: t.clear(),
        lambda t: t.sort(key=str),
        lambda t: t.sort(key=repr, reverse=True),
        lambda t: t.reverse(),
    ], ids=["setitem", "setitem-slice", "delitem", "delitem-slice", "iadd", "imul",
            "append", "extend", "insert", "pop", "pop-0", "remove", "clear", "sort",
            "sort-reverse", "reverse"])
    def test_an_in_place_change_drops_the_codes(self, mutate):
        # a corpus refuses the change; list(corpus) takes it, and counts as
        # the plain list it is
        tokens = self.generated()
        codes = tokens.codes.copy()
        with pytest.raises((TypeError, AttributeError)):
            mutate(tokens)
        assert np.array_equal(tokens.codes, codes) and tokens == self.generated()
        edited, plain = list(tokens), list(tokens)
        mutate(edited)
        mutate(plain)
        assert type(edited) is list and edited == plain
        assert d.scramble(edited, 3) == d.scramble(plain, 3)
        if plain:
            self.assert_same_tables(edited, plain)
        else:
            with pytest.raises(EmptySequence):
                rate.ngram_counts(edited, 2)

    def test_the_codes_and_fields_are_read_only(self):
        tokens = self.generated()
        assert tokens.codes.dtype == np.uint8 and not tokens.codes.flags.writeable
        wide = d.generate(d.SequenceSource("iid", marginal={f"w{i}": 1 / 300
                                                            for i in range(300)}), 50)
        assert wide.codes.dtype == np.uint16 and wide[3:9].codes.dtype == np.uint16
        with pytest.raises(ValueError, match="read-only"):
            tokens.codes[0] = 1
        for name in ("codes", "symbols", "other"):
            with pytest.raises(AttributeError):
                setattr(tokens, name, ())
        with pytest.raises(TypeError):
            hash(tokens)
        assert tokens[::2].codes.flags.writeable is False

    @pytest.mark.parametrize("round_trip", [
        *(lambda t, protocol=protocol: pickle.loads(pickle.dumps(t, protocol))
          for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
        copy.copy,
        copy.deepcopy,
    ], ids=[*(f"pickle-{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)), "copy",
            "deepcopy"])
    def test_copies_count_the_same(self, round_trip):
        tokens = self.generated()
        copied = round_trip(tokens)
        assert type(copied) is d._Corpus and copied == tokens
        assert copied.symbols == tokens.symbols
        assert np.array_equal(copied.codes, tokens.codes)
        assert copied.codes.dtype == tokens.codes.dtype
        assert not copied.codes.flags.writeable
        assert d.scramble(copied, 3) == d.scramble(tokens, 3)
        self.assert_same_tables(copied, list(tokens))

    def test_slices_are_corpora(self):
        tokens = self.generated()
        plain = list(tokens)
        for key in (slice(None), slice(5, 80), slice(None, None, -1), slice(3, 300, 7),
                    slice(-40, None), slice(90, 10)):
            part = tokens[key]
            assert type(part) is d._Corpus and part == plain[key]
            if plain[key]:
                self.assert_same_tables(part, plain[key], max_order=3)
        assert [tokens[i] for i in range(-300, 300)] == plain + plain
        for i in (300, -301):
            with pytest.raises(IndexError):
                tokens[i]
        for combine in (lambda t: t + t, lambda t: t * 2, lambda t: t.copy()):
            with pytest.raises((TypeError, AttributeError)):
                combine(tokens)

    def test_equality_is_that_of_the_decoded_tokens(self):
        tokens = self.generated()
        plain = list(tokens)
        assert tokens == plain and plain == tokens and tokens == tokens[:]
        assert not tokens != plain
        assert tokens != plain[:-1] and tokens != plain + ["a"]
        assert tokens != tuple(plain)
        other = d._Corpus.of(plain)  # the same tokens, numbered differently
        assert other.symbols != tokens.symbols and other == tokens
        assert d.scramble(tokens, 8) != tokens

    def test_numpy_reads_a_corpus_as_its_list(self):
        # what the benchmark's oracle does with generated and scrambled corpora
        source = d.SequenceSource("iid", marginal={"a": 0.5, "bb": 0.25, "ccc": 0.25})
        for tokens in (d.generate(source, 500, 1), d.scramble(d.generate(source, 9, 2), 3),
                       d.generate(source, 0)):
            got, want = np.asarray(tokens), np.asarray(list(tokens))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_iterating_decodes_in_slices(self, monkeypatch):
        tokens = self.generated()
        decoded = [tokens.symbols[c] for c in tokens.codes.tolist()]
        # two full slices of 2**16 codes and part of a third
        long = d.generate(d.SequenceSource("iid", marginal={"a": 0.5, ("b",): 0.5}),
                          2 * 65536 + 5, 1)
        long_decoded = [long.symbols[c] for c in long.codes.tolist()]
        tail = long[65536:]
        calls, getitem = [], d._Corpus.__getitem__
        monkeypatch.setattr(d._Corpus, "__getitem__",
                            lambda self, i: calls.append(i) or getitem(self, i))
        assert list(tokens) == decoded and [*tokens] == decoded
        assert list(long) == long_decoded and list(tail) == long_decoded[65536:]
        assert tokens.count("a") == decoded.count("a") and ("c",) in tokens
        words = d.generate(d.SequenceSource("iid", marginal={"a": 0.5, "bb": 0.5}), 40)
        assert np.asarray(words).shape == (40,) and " ".join(words).count(" ") == 39
        assert calls == []

    def test_iterating_builds_no_array_as_large_as_the_corpus(self):
        tokens = d.generate(d.SequenceSource("iid", marginal={"a": 0.5, "b": 0.5}),
                            10**6, 2)
        tracemalloc.start()
        try:
            decoded = list(tokens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(decoded) == 10**6
        assert peak <= 1.25 * sys.getsizeof(decoded)


class TestExactPeriodic:
    def test_relaxed(self):
        profile = rate.exact_periodic_profile(4, 5)
        assert profile.values == (2.0, 0.0, 0.0, 0.0, 0.0)

    def test_period_one(self):
        assert rate.exact_periodic_profile(1, 3).values == (0.0, 0.0, 0.0)


class TestCer:
    def test_flat(self):
        profile = EntropyProfile([1.0, 1.0, 1.0], "rate", strict=False)
        verdict = rate.cer_diagnostic(profile, 0.05)
        assert verdict.flat
        assert verdict.spread == 0.0
        assert verdict.max_drop == 0.0
        assert verdict.max_drop_position is None

    def test_single_drop(self):
        profile = EntropyProfile([2.0, 0.5, 0.5], "rate", strict=False)
        verdict = rate.cer_diagnostic(profile, 0.05)
        assert not verdict.flat
        assert verdict.spread == pytest.approx(1.5)
        assert verdict.max_drop == pytest.approx(1.5)
        assert verdict.max_drop_position == 2

    def test_empty(self):
        with pytest.raises(EmptySequence):
            rate.cer_diagnostic(EntropyProfile([], "rate", strict=False), 0.05)


class TestUid:
    def test_uniform_iid_is_full(self):
        m = d.make_iid({"a": 0.5, "b": 0.5}, 3)
        result = rate.uid_classify(m)
        assert result.verdict == "full_uid"
        assert result.worst_spread == 0.0

    def test_strong_but_not_full(self):
        # uniform over {a,b}^2 but with c declared in the alphabet: the
        # support is a strict subset of the Cartesian product
        alphabet = d.Alphabet(("a", "b", "c"))
        table = {(x, y): 0.25 for x in "ab" for y in "ab"}
        m = d.make_joint(
            ("x1", "x2"), table, alphabets={"x1": alphabet, "x2": alphabet}
        )
        assert rate.uid_classify(m).verdict == "strong_uid"

    def test_skewed_iid_is_neither(self):
        m = d.make_iid({"a": 0.3, "b": 0.7}, 2)
        result = rate.uid_classify(m)
        assert result.verdict == "neither"
        assert result.worst_spread == pytest.approx(0.4, abs=1e-12)
        assert result.offending_sequence is not None

    def test_sparse_model_over_a_large_product_classifies(self):
        # 6 rows over 6**8 = 1,679,616 cells: the classifier reads the rows
        # and never enumerates the Cartesian product
        roles = tuple(f"x{i}" for i in range(8))
        alphabet = d.Alphabet(tuple("abcdef"))
        alphabets = {r: alphabet for r in roles}
        diagonal = d.make_joint(roles, {(s,) * 8: 1 / 6 for s in "abcdef"}, alphabets)
        result = rate.uid_classify(diagonal)
        assert result.verdict == "neither"
        assert result.worst_spread == pytest.approx(5 / 6, abs=1e-12)
        assert result.offending_sequence == ("a",) * 8
        single = d.make_joint(roles, {("a",) * 8: 1.0}, alphabets)
        assert rate.uid_classify(single).verdict == "strong_uid"

    def test_uid_spread_single_sequence(self):
        m = d.make_iid({"a": 0.3, "b": 0.7}, 2)
        assert rate.uid_spread(("a", "a"), m) == pytest.approx(0.0, abs=1e-15)
        assert rate.uid_spread(("a", "b"), m) == pytest.approx(0.4, abs=1e-12)

    def test_uid_spread_length_mismatch(self):
        m = d.make_iid({"a": 1.0}, 2)
        with pytest.raises(ValueError):
            rate.uid_spread(("a",), m)


def reference_hilberg_fit(y, variant):
    """The per-gamma loop hilberg_fit replaced: one lstsq per grid point."""
    i = np.arange(1, len(y) + 1, dtype=float)
    best = None
    for gamma in rate.GAMMA_GRID:
        f = i ** -gamma
        a, b = max(0.0, float(f @ y) / float(f @ f)), 0.0  # best fit with b = 0
        if variant == "relaxed":
            design = np.column_stack([f, np.ones_like(f)])
            coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
            if coef[0] >= 0 and coef[1] >= 0:
                a, b = float(coef[0]), float(coef[1])
            else:  # the nonnegative optimum lies on the edge b = 0 or a = 0
                b_edge = max(0.0, float(y.mean()))
                if np.sum((y - b_edge) ** 2) < np.sum((y - a * f) ** 2):
                    a, b = 0.0, b_edge
        residual = y - (a * f + b)
        rms = float(np.sqrt(np.mean(residual**2)))
        if best is None or rms < best.rms_residual:
            best = rate.HilbergFit(a, float(gamma), b, variant, rms)
    return best


@st.composite
def hilberg_profiles(draw):
    """Noisy power laws, exact power laws on the gamma grid, random walks."""
    n = draw(st.integers(3, 19))
    kind = draw(st.sampled_from(["noisy", "on_grid", "walk"]))
    if kind == "walk":  # as in test_fallback_matches_nnls_reference
        start = draw(st.integers(0, 300))
        steps = draw(st.lists(st.integers(-100, 100), min_size=n - 1, max_size=n - 1))
        return np.cumsum([start, *steps]) / 100.0
    i = np.arange(1, n + 1, dtype=float)
    a = draw(st.floats(0.05, 5.0))
    b = draw(st.sampled_from([0.0, 0.1, 0.75]) | st.floats(0.0, 2.0))
    if kind == "on_grid":
        gamma = rate.GAMMA_GRID[draw(st.integers(0, len(rate.GAMMA_GRID) - 1))]
        return a * i**-gamma + b
    gamma = draw(st.floats(0.0, 2.0))
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=n)
    return a * i**-gamma + b + draw(st.floats(1e-4, 0.3)) * noise


class TestHilberg:
    def test_relaxed_recovers_planted_parameters(self):
        a, gamma, b = 2.5, 0.5, 0.75
        values = [a * i**-gamma + b for i in range(1, 13)]
        fit = rate.hilberg_fit(EntropyProfile(values, "rate", strict=False))
        assert fit.gamma == pytest.approx(gamma, abs=1e-9)
        assert fit.a == pytest.approx(a, abs=1e-9)
        assert fit.b == pytest.approx(b, abs=1e-9)
        assert fit.rms_residual <= 1e-9

    def test_pure_variant_forces_zero_offset(self):
        a, gamma = 3.0, 0.35
        values = [a * i**-gamma for i in range(1, 13)]
        fit = rate.hilberg_fit(
            EntropyProfile(values, "rate", strict=False), variant="pure"
        )
        assert fit.b == 0.0
        assert fit.gamma == pytest.approx(gamma, abs=1e-9)
        assert fit.a == pytest.approx(a, abs=1e-9)

    def test_nonnegative_coefficients(self):
        values = [0.1, 0.5, 0.6, 0.9, 1.0]  # increasing: nnls path
        fit = rate.hilberg_fit(EntropyProfile(values, "rate", strict=False))
        assert fit.a >= 0.0
        assert fit.b >= 0.0

    @settings(deadline=None)  # each example runs two 291-point gamma searches
    @given(
        st.integers(0, 300),
        st.lists(st.integers(-100, 100), min_size=2, max_size=19),
    )
    def test_fallback_matches_nnls_reference(self, start, steps):
        # random-walk profiles on a 0.01 grid; the reference solves every
        # infeasible gamma with scipy's active-set nnls
        y = np.cumsum([start, *steps]) / 100.0
        assume(y.max() - y.min() > 1e-12)
        i = np.arange(1, len(y) + 1, dtype=float)
        best, fallback = None, False
        for gamma in rate.GAMMA_GRID:
            f = i**-gamma
            design = np.column_stack([f, np.ones_like(f)])
            a, b = np.linalg.lstsq(design, y, rcond=None)[0]
            used = bool(a < 0 or b < 0)
            if used:
                a, b = nnls(design, y)[0]
            rms = float(np.sqrt(np.mean((y - (a * f + b)) ** 2)))
            if best is None or rms < best[2]:
                best, fallback = (float(a), float(b), rms, float(gamma)), used
        assume(fallback)
        fit = rate.hilberg_fit(EntropyProfile(y, "rate", strict=False))
        a, b, rms, gamma = best
        assert fit.gamma == gamma
        assert abs(fit.a - a) <= 1e-12
        assert abs(fit.b - b) <= 1e-12
        assert abs(fit.rms_residual - rms) <= 1e-12

    @settings(deadline=None)  # the reference runs 291 least-squares solves
    @given(hilberg_profiles(), st.sampled_from(["pure", "relaxed"]))
    def test_matches_the_per_gamma_loop(self, y, variant):
        assume(y.max() - y.min() > 1e-12)
        want = reference_hilberg_fit(y, variant)
        fit = rate.hilberg_fit(EntropyProfile(y, "rate", strict=False), variant)
        assert fit.gamma == want.gamma
        assert fit.variant == variant
        assert abs(fit.a - want.a) <= 1e-12
        assert abs(fit.b - want.b) <= 1e-12
        assert abs(fit.rms_residual - want.rms_residual) <= 1e-12

    def test_constant_profile_degenerate(self):
        with pytest.raises(DegenerateProfile):
            rate.hilberg_fit(EntropyProfile([1.0, 1.0, 1.0], "rate", strict=False))

    def test_too_short(self):
        with pytest.raises(InsufficientData):
            rate.hilberg_fit(EntropyProfile([1.0, 0.5], "rate", strict=False))

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            rate.hilberg_fit(
                EntropyProfile([1.0, 0.5, 0.3], "rate", strict=False), "typo"
            )


class TestPeakCost:
    def test_peak_at_first_position(self):
        profile = EntropyProfile([2.0, 1.0, 0.5], "rate", strict=False)
        assert rate.peak_cost(profile) == (2.0, 1)

    def test_ties_resolve_to_first(self):
        profile = EntropyProfile([1.0, 2.0, 2.0], "rate", strict=False)
        assert rate.peak_cost(profile) == (2.0, 2)

    def test_empty(self):
        with pytest.raises(EmptySequence):
            rate.peak_cost(EntropyProfile([], "rate", strict=False))


class TestModelRateProfile:
    def test_markov_model_rates(self):
        t = {"a": {"a": 0.9, "b": 0.1}, "b": {"a": 0.1, "b": 0.9}}
        m = d.make_markov({"a": 0.5, "b": 0.5}, t, 4)
        profile = rate.model_rate_profile(m)
        h_step = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        assert profile.values[0] == pytest.approx(1.0, abs=1e-12)
        for v in profile.values[1:]:
            assert v == pytest.approx(h_step, abs=1e-12)

    def test_iid_is_flat(self):
        m = d.make_iid({"a": 0.25, "b": 0.75}, 3)
        profile = rate.model_rate_profile(m)
        h = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        for v in profile.values:
            assert v == pytest.approx(h, abs=1e-12)
