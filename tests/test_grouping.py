"""The plug-in entropy of the grouping core against exact rational sums.

``plugin_entropy`` takes each term p log2 p once and, given repeat counts,
adds k copies of it through exact two-products.  The oracle adds the same
float terms as rationals, so no list of 2**40 copies is built, and rounds
once: ``math.fsum`` is correctly rounded, so the bits must agree.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ordlab._grouping import plugin_entropy


def oracle(masses, repeats):
    exact = sum(Fraction(p * math.log2(p)) * k
                for p, k in zip(masses, repeats) if p > 0.0)
    return 0.0 - float(exact)


def bits(x):
    return x.hex()  # tells +0.0 from -0.0


masses = st.floats(min_value=2.0**-60, max_value=1.0)
counts = st.lists(st.tuples(masses, st.integers(1, 2**40)), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(counts)
@example([(0.5, 2**40), (0.25, 2**40 - 1), (1 / 3, 3)])
@example([(1 / 7, 2**40 - 3), (2.0**-60, 2**40)])
def test_repeat_path_is_the_correctly_rounded_sum(pairs):
    p, k = map(np.array, zip(*pairs))
    assert bits(plugin_entropy(p, k)) == bits(oracle(p.tolist(), k.tolist()))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(masses, st.integers(1, 5)), min_size=1, max_size=20))
def test_repeat_path_equals_the_masses_one_by_one(pairs):
    p, k = map(np.array, zip(*pairs))
    assert bits(plugin_entropy(p, k)) == bits(plugin_entropy(p.repeat(k)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=300))
def test_model_masses_match_fsum(values):
    expected = 0.0 - math.fsum(p * math.log2(p) for p in values if p > 0.0)
    assert bits(plugin_entropy(np.array(values))) == bits(expected)


@pytest.mark.parametrize("repeats", [None, np.array([1])])
def test_single_group_is_plus_zero(repeats):
    assert bits(plugin_entropy(np.array([1.0]), repeats)) == bits(0.0)


def test_zero_masses_are_ignored():
    p = np.array([0.0, 0.25, 0.0, 0.5])
    k = np.array([2**40, 2, 7, 1])
    assert bits(plugin_entropy(p, k)) == bits(plugin_entropy(p[1::2], k[1::2]))
    assert plugin_entropy(p, k) == 1.5
    assert bits(plugin_entropy(np.zeros(3), np.ones(3, np.int64))) == bits(0.0)
