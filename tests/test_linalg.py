import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpos import (
    AffineMap,
    Configuration,
    IncrementalSpan,
    InputError,
    Subspace,
    as_rational,
    gram_determinant,
    gram_matrix,
    rank,
    solve_linear_system,
)
from genpos.linalg import lattice, rational_rows

F = Fraction


def test_as_rational_accepts_strings_ints_fractions():
    assert as_rational("3/4") == F(3, 4)
    assert as_rational("-6/4") == F(-3, 2)
    assert as_rational("7") == F(7)
    assert as_rational(5) == F(5)
    assert as_rational(F(2, 6)) == F(1, 3)


@pytest.mark.parametrize("bad", ["1.5", "3/0", "3/-4", "a", "", "1e3", 0.5, None, True])
def test_as_rational_rejects_non_rationals(bad):
    with pytest.raises(InputError):
        as_rational(bad)


# A row must be a list or tuple: a string row is not read as its digits, and
# a bare number is an input error, not a TypeError.
@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: Configuration(2, ["12", "34"]), r"points\[0\]"),
        (lambda: Configuration(1, (5,)), r"points\[0\]"),
        (lambda: Subspace(3, ["100"]), r"generators\[0\]"),
        (lambda: AffineMap(((1,),), 3), r"translation\[0\]"),
        (lambda: AffineMap(("1",), (1,)), r"matrix\[0\]"),
        (lambda: rank([1, 2]), r"vectors\[0\]"),
        (lambda: gram_matrix([(1, 2), "34"]), r"vectors\[1\]"),
    ],
)
def test_rows_must_be_lists_or_tuples(build, field):
    with pytest.raises(InputError, match=field + ": expected a list of rationals"):
        build()


def test_rational_rows_names_cell_and_length():
    assert rational_rows([["1/2", 3], (F(2),) * 2], "points", 2) == (
        (F(1, 2), F(3)),
        (F(2), F(2)),
    )
    with pytest.raises(InputError, match=r"^points\[1\]\[0\]: not a rational"):
        rational_rows([["1", "2"], ["x", "2"]], "points", 2)
    with pytest.raises(InputError, match=r"^points\[1\]: expected 2 coordinates, got 3"):
        rational_rows([["1", "2"], ["1", "2", "3"]], "points")
    with pytest.raises(InputError, match=r"^points\[0\]: expected at least one"):
        rational_rows([[]], "points")


def test_lattice_clears_all_denominators_at_once():
    assert lattice([(F(1, 2), F(-1, 3)), (F(0), F(5, 4))]) == (12, ((6, -4), (0, 15)))
    assert lattice([]) == (1, ())


def test_gram_matrix_orthonormal_pair():
    assert gram_matrix([(1, 0), (0, 1)]) == ((F(1), F(0)), (F(0), F(1)))


def test_gram_matrix_empty():
    assert gram_matrix([]) == ()


def test_gram_matrix_direct_evaluation():
    # inner products computed directly: <(1,2),(1,2)>=5, <(1,2),(3,4)>=11, <(3,4),(3,4)>=25
    assert gram_matrix([(1, 2), (3, 4)]) == ((F(5), F(11)), (F(11), F(25)))


def test_gram_matrix_dimension_mismatch():
    with pytest.raises(InputError):
        gram_matrix([(1, 0), (0, 1, 2)])


def test_gram_determinant_examples():
    assert gram_determinant([(1, 0), (0, 1)]) == 1
    assert gram_determinant([(1, 1), (2, 2)]) == 0
    # 5*25 - 11*11
    assert gram_determinant([(1, 2), (3, 4)]) == 4


def test_gram_determinant_rational_entries():
    # det of the 1x1 Gram matrix [<v,v>] for v = (1/2, 1/3)
    assert gram_determinant([(F(1, 2), F(1, 3))]) == F(13, 36)


def test_rank_examples():
    assert rank([]) == 0
    assert rank([(1, 1), (2, 2)]) == 1
    # third row = second - first
    assert rank([(1, 0, 0), (1, 1, 0), (0, 1, 0)]) == 2


def test_rank_dimension_mismatch():
    with pytest.raises(InputError):
        rank([(1, 0), (1, 0, 0)])


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def vector_lists(max_dim=5, max_count=5):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda dim: st.lists(
            st.tuples(*[rationals] * dim), min_size=0, max_size=max_count
        )
    )


@settings(max_examples=120, deadline=None)
@given(vector_lists())
def test_gram_criterion_matches_rank(vectors):
    independent_by_gram = gram_determinant(vectors) != 0
    independent_by_rank = rank(vectors) == len(vectors)
    assert independent_by_gram == independent_by_rank


@settings(max_examples=100, deadline=None)
@given(vector_lists(), st.randoms(use_true_random=False))
def test_rank_invariant_under_permutation(vectors, rnd):
    shuffled = list(vectors)
    rnd.shuffle(shuffled)
    assert rank(shuffled) == rank(vectors)


@settings(max_examples=100, deadline=None)
@given(
    vector_lists().filter(bool),
    st.data(),
)
def test_rank_invariant_under_scaling_and_combinations(vectors, data):
    n = len(vectors)
    base = rank(vectors)
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    scale = data.draw(rationals.filter(lambda x: x != 0))
    scaled = list(vectors)
    scaled[i] = tuple(scale * c for c in scaled[i])
    assert rank(scaled) == base
    coeffs = data.draw(st.tuples(*[rationals] * n))
    dim = len(vectors[0])
    combo = tuple(
        sum((c * v[j] for c, v in zip(coeffs, vectors)), Fraction(0))
        for j in range(dim)
    )
    assert rank(list(vectors) + [combo]) == base


@settings(max_examples=100, deadline=None)
@given(vector_lists())
def test_rank_bounded_by_count_and_dimension(vectors):
    r = rank(vectors)
    assert r <= len(vectors)
    if vectors:
        assert r <= len(vectors[0])


@settings(max_examples=60, deadline=None)
@given(vector_lists(max_dim=4, max_count=4).filter(bool), st.tuples(*[rationals] * 4))
def test_span_includes_stable_under_basis_rewrite(vectors, extra):
    # appending sums of existing rows never changes the span
    dim = len(vectors[0])
    _, (*rows, probe) = lattice([*vectors, extra[:dim]])
    doubled = rows + [tuple(a + b for a, b in zip(rows[0], rows[-1]))]
    spans = [IncrementalSpan(dim), IncrementalSpan(dim)]
    for span, basis in zip(spans, (rows, doubled)):
        for row in basis:
            span.add_row(row)
    assert spans[0].rank == spans[1].rank
    assert any(spans[0].image(probe)) == any(spans[1].image(probe))


def test_incremental_span_rollback_restores_rank():
    _, (e1, e2, e3, twice_e1) = lattice(
        [(F(1, 2), 0, 0), (0, F(1, 3), 0), (0, 0, 1), (1, 0, 0)]
    )
    span = IncrementalSpan(3)
    assert span.add_row(e1)
    mark = span.mark()
    rows = list(span.rows)
    assert span.add_row(e2)
    assert span.add_row(e3)
    assert span.rank == 3
    span.rollback(mark)
    assert span.rank == 1
    assert span.rows == rows
    assert not any(span.image(twice_e1))
    assert any(span.image(e2))


def test_incremental_span_integer_rows_match_rational_vectors():
    _, (third, negative) = lattice([(F(1, 3), F(2, 3), F(0)), (-5, -10, 0)])
    span = IncrementalSpan(3)
    assert span.add_row([2, 4, 0])
    assert not span.add_row(third)
    assert not any(span.image(negative))
    assert not span.add_row([-5, -10, 0])
    row = [0, 3, 6]
    assert span.add_row(row)
    assert row == [0, 3, 6]
    assert span.rank == 2
    # Each row is stored primitive, in the quotient coordinates of the rows
    # before it, with its pivot taken within that quotient.
    assert span.add_row([1, 1, 1])
    assert span.rows == [(0, [1, 2, 0]), (0, [1, 2]), (0, [1])]


@pytest.mark.parametrize(
    "dimension, rows",
    [
        (3, [[1, 2]]),
        (2, [[0, 1, 7]]),
        (2, [[1, 0], [0, 1], [1, 1, 1]]),
        (1, [[]]),
    ],
)
def test_add_row_refuses_rows_of_the_wrong_length(dimension, rows):
    span = IncrementalSpan(dimension)
    *good, bad = rows
    for row in good:
        span.add_row(row)
    with pytest.raises(InputError, match=(
        rf"^row: expected {dimension} coordinates, got {len(bad)}$"
    )):
        span.add_row(bad)


def _direction(row) -> tuple[int, ...]:
    """The row divided by its gcd, signed so its first non-zero entry is
    positive; the zero row stays zero."""
    g = math.gcd(*row)
    if g and next(x for x in row if x) < 0:
        g = -g
    return tuple(x // g for x in row) if g else tuple(row)


@settings(max_examples=100, deadline=None)
@given(
    vector_lists(max_dim=4, max_count=6).filter(bool),
    st.randoms(use_true_random=False),
    st.data(),
)
def test_incremental_span_is_independent_of_insertion_order(vectors, rnd, data):
    dim = len(vectors[0])
    probe = data.draw(st.tuples(*[rationals] * dim))
    _, (*rows, probe) = lattice([*vectors, probe])
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    cut = data.draw(st.integers(min_value=0, max_value=len(rows)))
    outcomes = []
    for order in (rows, shuffled):
        span = IncrementalSpan(dim)
        for row in order[:cut]:
            span.add_row(row)
        mark = span.mark()
        kept = list(span.rows)
        for row in order[cut:]:
            span.add_row(row)
        # The image keeps the columns that are not pivots of the span's
        # echelon form, a set fixed by the span, so its direction is too.
        image = span.image(probe)
        assert len(image) == dim - span.rank
        outcomes.append((span.rank, _direction(image)))
        span.rollback(mark)
        assert span.rows == kept
    assert outcomes[0] == outcomes[1]


def test_solve_linear_system_unique():
    solution = solve_linear_system([(2, 0), (0, 4)], [6, 2])
    assert solution == [F(3), F(1, 2)]


def test_solve_linear_system_redundant_but_consistent():
    solution = solve_linear_system([(1, 1), (2, 2)], [3, 6])
    assert solution is not None
    x, y = solution
    assert x + y == 3


def test_solve_linear_system_inconsistent():
    assert solve_linear_system([(1, 1), (2, 2)], [3, 7]) is None


# IncrementalSpan.image, the quotient map by the span. Small entries with
# many zeros, so rows often have a zero entry in some pivot column: there the
# map's step only scales the row, and skipping it would make the map fail to
# be linear.
small = st.one_of(st.just(0), st.integers(min_value=-4, max_value=4))


@st.composite
def spans_and_rows(draw):
    """A span in dimension 2..8 of up to N - 1 added rows, those rows, and
    two more rows a and b, each either drawn freely or a combination of the
    added rows."""
    dim = draw(st.integers(min_value=2, max_value=8))
    row = st.lists(small, min_size=dim, max_size=dim)
    added = draw(st.lists(row, max_size=dim - 1))
    span = IncrementalSpan(dim)
    for r in added:
        span.add_row(r)

    def probe():
        if added and draw(st.booleans()):
            coeffs = draw(st.lists(small, min_size=len(added), max_size=len(added)))
            return [
                sum(c * r[j] for c, r in zip(coeffs, added)) for j in range(dim)
            ]
        return draw(row)

    return span, added, probe(), probe()


def _in_span(generators, row) -> bool:
    """Whether the row is a combination of the generators, by the Fraction
    Gauss-Jordan elimination of solve_linear_system, independent of
    IncrementalSpan."""
    if not generators:
        return not any(row)
    return solve_linear_system(list(zip(*generators)), row) is not None


@settings(max_examples=200, deadline=None)
@given(spans_and_rows())
def test_image_is_linear(case):
    span, _, a, b = case
    difference = [x - y for x, y in zip(span.image(a), span.image(b))]
    assert difference == span.image([x - y for x, y in zip(a, b)])
    assert len(difference) == span.dimension - span.rank


@settings(max_examples=200, deadline=None)
@given(spans_and_rows())
def test_image_is_zero_exactly_on_the_span(case):
    span, added, a, _ = case
    kept = list(a)
    assert any(span.image(a)) != _in_span(added, a)
    assert a == kept


@settings(max_examples=200, deadline=None)
@given(spans_and_rows())
def test_image_is_parallel_exactly_modulo_the_span(case):
    # a and b are dependent modulo the span S iff a is in S or b is in
    # S + <a>, and then, and only then, their images are parallel.
    span, added, a, b = case
    image_a, image_b = span.image(a), span.image(b)
    parallel = all(
        image_a[i] * image_b[j] == image_a[j] * image_b[i]
        for i in range(len(image_a))
        for j in range(i)
    )
    assert parallel == (_in_span(added, a) or _in_span([*added, a], b))


@settings(max_examples=200, deadline=None)
@given(spans_and_rows())
def test_stored_rows_shrink_by_one_entry_per_rank_and_are_primitive(case):
    span, added, _, _ = case
    assert span.rank == rank(added)
    for j, (pivot, row) in enumerate(span.rows):
        assert len(row) == span.dimension - j
        assert math.gcd(*row) == 1
        assert row[pivot] and not any(row[:pivot])


def test_image_scales_rows_with_a_zero_pivot_entry():
    span = IncrementalSpan(3)
    span.add_row([2, 1, 0])
    # [0, 1, 1] has a zero in the pivot column, so the step scales it by 2,
    # as it scales every other row: the images of [2, 2, 1] = [2, 1, 0] +
    # [0, 1, 1] and of [0, 1, 1] agree, since [2, 1, 0] maps to zero.
    assert span.image([2, 1, 0]) == [0, 0]
    assert span.image([0, 1, 1]) == [2, 2]
    assert span.image([2, 2, 1]) == [2, 2]
