from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpos import (
    Configuration,
    InputError,
    SplitMix64,
    hausdorff_sq,
)
from genpos.selftest import grid_configuration, squared_triangle_inequality

F = Fraction


def test_single_pair():
    a = Configuration(2, ((0, 0),))
    b = Configuration(2, ((3, 4),))
    assert hausdorff_sq(a, b) == 25


def test_directed_distance_from_far_point():
    a = Configuration(2, ((0, 0), (1, 0)))
    b = Configuration(2, ((0, 0),))
    assert hausdorff_sq(a, b) == 1


def test_identity():
    a = Configuration(2, ((0, 0), (F(1, 3), F(2, 7))))
    assert hausdorff_sq(a, a) == 0


def test_dimension_mismatch():
    with pytest.raises(InputError):
        hausdorff_sq(Configuration(2, ((0, 0),)), Configuration(3, ((0, 0, 0),)))


def test_order_of_points_is_irrelevant():
    a = Configuration(2, ((0, 0), (2, 2)))
    b = Configuration(2, ((2, 2), (0, 0)))
    assert hausdorff_sq(a, b) == 0


def test_symmetry_and_zero_iff_equal_sets():
    rng = SplitMix64(2)
    for _ in range(80):
        dim = 2 + rng.below(2)
        a = grid_configuration(rng, 1 + rng.below(4), dim, 4)
        b = grid_configuration(rng, 1 + rng.below(4), dim, 4)
        ab = hausdorff_sq(a, b)
        assert ab == hausdorff_sq(b, a)
        assert (ab == 0) == (set(a.points) == set(b.points))


def test_triangle_inequality_on_random_triples():
    rng = SplitMix64(3)
    for _ in range(80):
        dim = 2 + rng.below(2)
        a = grid_configuration(rng, 1 + rng.below(4), dim, 5)
        b = grid_configuration(rng, 1 + rng.below(4), dim, 5)
        c = grid_configuration(rng, 1 + rng.below(4), dim, 5)
        assert squared_triangle_inequality(
            hausdorff_sq(a, b), hausdorff_sq(b, c), hausdorff_sq(a, c)
        )


@settings(max_examples=150, deadline=None)
@given(
    st.fractions(min_value=0, max_value=10, max_denominator=8),
    st.fractions(min_value=0, max_value=10, max_denominator=8),
)
def test_squared_triangle_check_brackets_the_boundary(d1_sq, d2_sq):
    # at or below d1^2 + d2^2 the inequality always holds
    assert squared_triangle_inequality(d1_sq, d2_sq, d1_sq + d2_sq)
    # strictly above (d1 + d2)^2 it must fail; 2*d1*d2 <= d1^2 + d2^2
    assert not squared_triangle_inequality(d1_sq, d2_sq, 2 * (d1_sq + d2_sq) + 1)


def test_squared_triangle_boundary_exact():
    # d_ab = 3, d_bc = 4, d_ac = 7: equality holds
    assert squared_triangle_inequality(9, 16, 49)
    # d_ac just above 7 fails
    assert not squared_triangle_inequality(9, 16, F(4901, 100))


def test_negative_squared_distance_rejected():
    with pytest.raises(InputError):
        squared_triangle_inequality(-1, 1, 1)
