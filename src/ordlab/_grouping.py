"""Grouping of integer-coded rows by a prefix of their symbols.

An exact model's table and an n-gram table are both rows of integer codes,
one column per position, and both measures the package takes from them are
entropies of the rows grouped by their first k columns.  The groups of k
columns roll forward from those of k - 1 columns by one code, the mass of
each group and its plug-in entropy follow, and a group is decoded at the
row where it first occurs.

The module is private, so the benchmark's tracer, which wraps the public
functions of the layer modules, counts these helpers as part of their
callers.
"""

from __future__ import annotations

import math

import numpy as np


def roll(inverse, n_groups, radix, column):
    """Group rows by their group in ``inverse`` and their code in ``column``.

    ``inverse`` holds each row's group, below ``n_groups``, and ``column``
    each row's code, below ``radix``.  Returns each row's new group and
    each new group's row count.  New groups are numbered in sorted order of
    the rolled id ``inverse * radix + column``, which stays below
    ``n_groups * radix``: a dense count numbers them when that id range is
    at most twice the row count, and ``np.unique`` above it.
    """
    ids = inverse * radix + column
    id_range = n_groups * radix
    if id_range <= 2 * len(ids):
        counts = np.bincount(ids, minlength=id_range)
        used = counts > 0
        return (np.cumsum(used) - 1)[ids], counts[used]
    _, inverse, counts = np.unique(ids, return_inverse=True, return_counts=True)
    return inverse, counts


def plugin_entropy(masses):
    """-sum p log2 p (bits) over the float64 ``masses``; zeros add nothing."""
    # equal masses give equal terms: compute each once, and let the exact,
    # order-free fsum add it as many times as it occurs.  math.log2, not
    # np.log2, whose last bit can differ; the float64 product is Python's
    values, repeats = np.unique(masses[masses > 0.0], return_counts=True)
    logs = np.fromiter(map(math.log2, values.tolist()), np.float64, len(values))
    # 0.0 - x, not -x: the same bits for a nonzero sum, and +0.0 for zero
    return 0.0 - math.fsum((values * logs).repeat(repeats).tolist())


def first_rows(inverse, n_groups):
    """The row where each group first occurs, in increasing row order."""
    first = np.full(n_groups, len(inverse))
    np.minimum.at(first, inverse, np.arange(len(inverse)))
    return np.sort(first)
