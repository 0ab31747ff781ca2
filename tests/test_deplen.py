import math

import pytest

from conftest import TRANSDUCERS
from ordlab import deplen
from ordlab.errors import CostOverflow, NonMonotoneTransducer, PositionOutOfRange
from ordlab.infotheory import CostTransducer

SQUARE = CostTransducer("power", (2.0,))


class TestDependencySum:
    def test_central_m3(self):
        assert deplen.dependency_cost(3, 2) == 2

    def test_extreme_m5(self):
        assert deplen.dependency_cost(5, 1) == 10

    def test_minimal_pair(self):
        assert deplen.dependency_cost(2, 1) == 1

    def test_position_out_of_range(self):
        with pytest.raises(PositionOutOfRange):
            deplen.dependency_cost(3, 0)
        with pytest.raises(PositionOutOfRange):
            deplen.dependency_cost(3, 4)
        with pytest.raises(PositionOutOfRange):
            deplen.dependency_cost(1, 1)

    @pytest.mark.parametrize("m", range(2, 20))
    def test_reflection_symmetry(self, m):
        for p in range(1, m + 1):
            assert deplen.dependency_cost(m, p) == deplen.dependency_cost(m, m + 1 - p)


class TestDependencyCost:
    def test_square_center(self):
        assert deplen.dependency_cost(3, 2, SQUARE) == 2

    def test_square_extreme(self):
        assert deplen.dependency_cost(3, 1, SQUARE) == 5

    def test_decreasing_transducer_rejected(self):
        g = CostTransducer("affine", (-1.0, 0.0))
        with pytest.raises(NonMonotoneTransducer):
            deplen.dependency_cost(3, 1, g)


class TestClosedForms:
    def test_min_examples(self):
        assert deplen.min_dependency_sum(3) == (2, {2})
        assert deplen.min_dependency_sum(4) == (4, {2, 3})
        assert deplen.min_dependency_sum(5) == (6, {3})

    def test_max_examples(self):
        assert deplen.max_dependency_sum(3) == (3, {1, 3})
        assert deplen.max_dependency_sum(5) == (10, {1, 5})
        assert deplen.max_dependency_sum(2) == (1, {1, 2})

    @pytest.mark.parametrize("m", range(2, 65))
    def test_closed_forms_vs_enumeration(self, m):
        costs = {p: deplen.dependency_cost(m, p) for p in range(1, m + 1)}
        min_value = min(costs.values())
        max_value = max(costs.values())
        min_positions = {p for p, c in costs.items() if c == min_value}
        max_positions = {p for p, c in costs.items() if c == max_value}
        assert (min_value, min_positions) == deplen.min_dependency_sum(m)
        got_max, got_max_pos = deplen.max_dependency_sum(m)
        assert got_max == max_value
        assert got_max_pos <= max_positions  # m=2 also ties elsewhere
        assert min_value == (m * m - m % 2) // 4
        assert got_max == m * (m - 1) // 2


class TestLandscape:
    def test_m5_identity(self):
        land = deplen.landscape(5)
        assert land.costs == (10, 7, 6, 7, 10)
        assert land.quasi_convex

    def test_reflection_symmetric(self):
        # mirror positions have the same exact sum, so the same bits
        for g in TRANSDUCERS.values():
            for m in (*range(2, 16), 64, 257):
                costs = deplen.landscape(m, g).costs
                assert costs == costs[::-1]

    def test_square_quasi_convex(self):
        assert deplen.landscape(6, SQUARE).quasi_convex

    def test_extremes_are_maxima_for_increasing_transducers(self):
        for g in (deplen.IDENTITY, SQUARE, CostTransducer("exponential", (0.5,))):
            for m in range(2, 12):
                land = deplen.landscape(m, g)
                assert {1, m} <= land.max_positions()

    def test_min_max_positions(self):
        land = deplen.landscape(4)
        assert land.min_positions() == {2, 3}
        assert land.max_positions() == {1, 4}

    def test_positions_are_exact_ties(self):
        # costs one apart at 1e12 are distinct, however close their ratio is
        land = deplen.DependencyLandscape(3, (10**12 + 1, 10**12, 10**12 + 1), True)
        assert land.min_positions() == {2}
        assert land.max_positions() == {1, 3}

    @pytest.mark.parametrize("m", [1, 0, -3])
    def test_short_sequence_rejected(self, m):
        with pytest.raises(PositionOutOfRange):
            deplen.landscape(m)

    @pytest.mark.parametrize("m", [1024, 1100])
    def test_overflowing_cost_raises(self, m):
        # exp(ln 2 * 1024) overflows in math.exp; at m = 1024 the sum of
        # 2^1..2^1023 rounds to inf
        with pytest.raises(CostOverflow):
            deplen.landscape(m, CostTransducer("exponential", (math.log(2.0),)))

    def test_largest_finite_exp2_landscape(self):
        land = deplen.landscape(1023, CostTransducer("exponential", (math.log(2.0),)))
        assert land.max_positions() == {1, 1023}
