"""Seed handling: one root seed, named substreams.

All randomness in the package flows through :func:`substream`, which derives
an independent generator from a 64-bit root seed and a tuple of string
labels.  Adding a new consumer (a new label) never perturbs the streams of
existing ones.
"""

import hashlib

import numpy as np


def substream(seed, *labels):
    """Return a ``numpy`` Generator for the named substream of ``seed``."""
    # a bool, a float or a seed outside 64 bits would draw another seed's stream
    integral = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    if not (integral and 0 <= int(seed) < 2**64):
        raise ValueError(f"seed {seed!r} is not an integer in [0, 2**64)")
    digest = hashlib.sha256("\x1f".join(labels).encode("utf-8")).digest()
    salt = int.from_bytes(digest[:8], "little")
    return np.random.default_rng([int(seed), salt])
