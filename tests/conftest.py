import math
from fractions import Fraction

import numpy as np
import pytest

from ordlab import distributions
from ordlab.infotheory import IDENTITY, CostTransducer


def random_joint_model(seed, n_roles=None, alphabet_size=None):
    """Generic full-support joint model drawn from a Dirichlet, seeded."""
    rng = np.random.default_rng(seed)
    if n_roles is None:
        n_roles = int(rng.integers(3, 6))
    if alphabet_size is None:
        alphabet_size = int(rng.integers(2, 5))
    symbols = tuple("abcd"[:alphabet_size])
    roles = tuple(["y"] + [f"x{i}" for i in range(1, n_roles)])
    n_cells = alphabet_size**n_roles
    probs = rng.dirichlet(np.ones(n_cells))
    import itertools

    table = {
        combo: float(p)
        for combo, p in zip(itertools.product(symbols, repeat=n_roles), probs)
    }
    return distributions.make_joint(roles, table, target_role="y")


@pytest.fixture
def and_model():
    """Y = X1 AND X2 over uniform fair bits: strictly decreasing uncertainty."""
    table = {}
    for x1 in "01":
        for x2 in "01":
            y = "1" if x1 == "1" and x2 == "1" else "0"
            table[(y, x1, x2)] = 0.25
    return distributions.make_joint(("y", "x1", "x2"), table, target_role="y")


@pytest.fixture
def parity_model():
    """Y = parity(X1, X2) over uniform fair bits."""
    table = {}
    for x1 in "01":
        for x2 in "01":
            y = str((int(x1) + int(x2)) % 2)
            table[(y, x1, x2)] = 0.25
    return distributions.make_joint(("y", "x1", "x2"), table, target_role="y")


def exp_base(base):
    return CostTransducer("exponential", (math.log(base),))


# edge-cost transducers for the landscape tests, by name
TRANSDUCERS = {
    "identity": IDENTITY,
    "square": CostTransducer("power", (2,)),
    "exp:2": exp_base(2.0),
    "exp:1.0001": exp_base(1.0001),
    "exp:3.7": exp_base(3.7),
    "power:1.5": CostTransducer("power", (1.5,)),
    "affine": CostTransducer("affine", (0.75, -2.5)),
    "affine_int": CostTransducer("affine", (3, -7)),
    # Fraction edge costs count as floats, as mixed ones do; these have
    # denominators 3 and 2, so neither denominator is a multiple of the other
    "tabulated_fraction": CostTransducer("tabulated", (
        (Fraction(0), Fraction(3), Fraction(5)),
        (Fraction(0), Fraction(1), Fraction(2)),
    )),
    "tabulated": CostTransducer("tabulated", ((0.0, 2.0, 5.0), (-1.0, 0.3, 7.1))),
    # g(1) is 5e-324, the smallest subnormal, and g(2) is 1e300: over a
    # common denominator the edge costs are integers of about 2,000 bits
    "tabulated_wide": CostTransducer("tabulated",
                                     ((0.0, 1.0, 2.0), (0.0, 5e-324, 1e300))),
}
