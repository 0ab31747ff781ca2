"""Grouping of integer-coded rows by a prefix of their symbols.

An exact model's table is rows of integer codes, one column per role, and
the measures the package takes from it are entropies of the rows grouped by
their first k columns.  The groups of k columns roll forward from those of
k - 1 columns by one code, the mass of each group and its plug-in entropy
follow, and a group is decoded at the row where it first occurs.  An n-gram
table finds its blocks by sorting packed window keys instead
(``ordlab.rate.NGramTable``), and shares the entropy and the first-row
lookup.

The entropy takes no sort.  A model's group masses are nearly all
distinct, so each mass gives one term in one pass.  An n-gram order's block
sizes repeat, so its caller passes each distinct size once with the number
of blocks of that size (the counts of counts), and each such term enters the
exact sum through exact products with its count.

The module is private, so the benchmark's tracer, which wraps the public
functions of the layer modules, counts these helpers as part of their
callers.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_SPLITTER = 2.0 ** 27 + 1.0  # Veltkamp's constant for 53-bit floats


def roll(inverse, n_groups, radix, column):
    """Group rows by their group in ``inverse`` and their code in ``column``.

    ``inverse`` holds each row's group, below ``n_groups``, and ``column``
    each row's code, below ``radix``.  Returns each row's new group.  New
    groups are numbered in sorted order of the rolled id
    ``inverse * radix + column``, which stays below ``n_groups * radix``: a
    dense count numbers them when that id range is at most twice the row
    count, and ``np.unique`` above it.
    """
    ids = inverse * radix + column
    id_range = n_groups * radix
    if id_range <= 2 * len(ids):
        used = np.bincount(ids, minlength=id_range) > 0
        return (np.cumsum(used) - 1)[ids]
    return np.unique(ids, return_inverse=True)[1]


def plugin_entropy(masses, repeats=None):
    """-sum k p log2 p (bits) over the float64 ``masses`` p; zeros add nothing.

    ``repeats`` gives k, the number of groups with each mass, and is 1 for
    every mass when omitted.  Each term p log2 p is computed once, with
    ``math.log2``, not ``np.log2``, whose last bit depends on the CPU's SIMD
    kernels.  A repeated term enters the sum as the four exact products of
    its Veltkamp halves with those of k (Dekker 1971), and ``math.fsum``
    returns the correctly rounded sum of all addends whatever their order.
    So the result is the same float whether equal masses come once with
    their count or one by one, and a sum of n-gram counts has one term per
    distinct count, not per block.
    """
    keep = masses > 0.0
    values = masses[keep].tolist()
    terms = map(operator.mul, values, map(math.log2, values))
    if repeats is not None:
        term_hi, term_lo = _halves(np.fromiter(terms, np.float64, len(values)))
        count_hi, count_lo = _halves(repeats[keep].astype(np.float64))
        terms = np.concatenate((term_hi * count_hi, term_hi * count_lo,
                                term_lo * count_hi, term_lo * count_lo)).tolist()
    # 0.0 - x, not -x: the same bits for a nonzero sum, and +0.0 for zero
    return 0.0 - math.fsum(terms)


def _halves(x):
    """Veltkamp's split: x == hi + lo exactly, each with at most 26 bits.

    The product of two such halves has at most 52 bits, so float64 holds it
    exactly; + - * are correctly rounded under every SIMD dispatch.  The
    products stay exact while no half underflows, which holds for every
    term of a mass above 2**-900 and for every integer count below 2**53.
    """
    scaled = _SPLITTER * x
    hi = scaled - (scaled - x)
    return hi, x - hi


def first_rows(inverse, n_groups):
    """The row where each group first occurs, in increasing row order."""
    first = np.full(n_groups, len(inverse))
    np.minimum.at(first, inverse, np.arange(len(inverse)))
    return np.sort(first)
