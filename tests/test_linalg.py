import copy
import math
import pickle
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import genpos
from genpos import (
    AffineMap,
    Certificate,
    ClassicalReport,
    Configuration,
    DegeneracyPattern,
    FiberReport,
    IncrementalSpan,
    InputError,
    IteratedFunctionSystem,
    Subspace,
    SubspaceCheck,
    Verdict,
    as_rational,
    rank,
)
from genpos.cli import CommandResult
from genpos.linalg import _excerpt, lattice, rational_pair
from genpos.selftest import (
    CheckResult,
    _row_reduce,
    gram_determinant,
    gram_matrix,
    rational_rows,
    solve_linear_system,
)

F = Fraction

PUBLIC_API = [
    "AffineMap", "Certificate", "ClassicalReport", "Configuration",
    "DegeneracyPattern", "FiberReport", "IncrementalSpan", "InputError",
    "IteratedFunctionSystem", "Matrix", "OracleGuardError", "PerturbationError",
    "SplitMix64", "Subspace", "SubspaceCheck", "Vector", "Verdict",
    "as_rational", "cantor_graph_stage", "check_general_position",
    "classical_general_position", "configuration_from_json",
    "configuration_to_json", "decide_all_projections",
    "decide_all_projections_oracle", "distance_sq", "dot", "fibers",
    "hausdorff_sq", "iterate_system", "minimal_patterns", "perturb_to_generic",
    "product_cantor_system", "random_configuration", "rank",
    "subspace_from_json", "subspace_to_json", "vector_sub", "verdict_to_json",
]


def test_public_api_is_pinned():
    # The Fraction references live in genpos.selftest, not in the package.
    assert sorted(genpos.__all__) == PUBLIC_API
    assert all(hasattr(genpos, name) for name in PUBLIC_API)
    for name in (
        "Rational",
        "gram_determinant",
        "gram_matrix",
        "project_onto_complement",
        "solve_linear_system",
        "squared_triangle_inequality",
    ):
        assert not hasattr(genpos, name), name


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


def test_row_reduce_negates_the_pivot_product_per_swap():
    # A Gram matrix is positive semidefinite and never needs a row swap, so
    # the Gram inputs leave the sign of the pivot product untested.
    assert _row_reduce([[F(0), F(1)], [F(1), F(0)]]) == (
        [[1, 0], [0, 1]],
        [0, 1],
        -1,
    )


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


@settings(max_examples=120, deadline=None)
@given(vector_lists(), st.randoms(use_true_random=False), rationals.filter(bool))
def test_gram_determinant_is_a_squared_volume(vectors, rnd, c):
    """Nonnegative, unchanged by reordering the vectors, and multiplied by
    c^2 when one vector is scaled by c != 0."""
    det = gram_determinant(vectors)
    assert det >= 0
    shuffled = list(vectors)
    rnd.shuffle(shuffled)
    assert gram_determinant(shuffled) == det
    if vectors:
        i = rnd.randrange(len(vectors))
        scaled = list(vectors)
        scaled[i] = tuple(c * x for x in vectors[i])
        assert gram_determinant(scaled) == c * c * det


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
    mark = span.rank
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
        mark = span.rank
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


@pytest.mark.parametrize("rhs", ["34", 5, [1, "x"], [1, 2.5], [1, 2, 3], [1]])
def test_solve_linear_system_checks_rhs_as_one_row(rhs):
    # A string was read digit by digit and an int raised TypeError; a bad
    # cell or a wrong length did not name rhs.
    with pytest.raises(InputError, match=r"^rhs\b"):
        solve_linear_system([[1, 0], [0, 1]], rhs)


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
    """Whether the row is a combination of the generators, by
    genpos.selftest.solve_linear_system: Gauss-Jordan elimination with
    Fraction division (_row_reduce), independent of IncrementalSpan's
    fraction-free integer elimination."""
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


_OLD_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


def _old_rational_pair(value):
    """rational_pair as it read cells before it matched them with one
    grouped regex: strip, fullmatch, then partition at the slash. The
    reference for the cells the reader accepts and the messages it gives."""
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, str):
        text = value.strip()
        if not _OLD_RATIONAL_RE.fullmatch(text):
            raise InputError(
                f'not a rational: {_excerpt(value)} (expected "p/q" or "p")'
            )
        num, _, den = text.partition("/")
        try:
            p = int(num)
            q = int(den) if den else 1
        except ValueError as exc:
            raise InputError(f"not a rational: {_excerpt(value)}: {exc}") from None
        g = math.gcd(p, q)
        return (p, q) if g == 1 else (p // g, q // g)
    if isinstance(value, float):
        raise InputError(
            f'floating point value {value!r} is not exact; pass "p/q" strings'
        )
    raise InputError(f"not a rational: {value!r}")


def _read(reader, value):
    """The pair a reader returns, or the message of its InputError."""
    try:
        return reader(value)
    except InputError as exc:
        return "error: " + str(exc)


_CODE_POINTS = "".join(map(chr, range(sys.maxunicode + 1)))
# Every character str.isspace holds, the ones str.strip removes.
_SPACES = [c for c in _CODE_POINTS if c.isspace()]


def test_regex_space_is_str_isspace():
    """The reader strips a cell by \\s* in its regex: on this Python, \\s
    matches exactly the code points that str.isspace holds."""
    assert re.findall(r"\s", _CODE_POINTS) == _SPACES

_CELLS = [
    "0", "-0", "+0", "0/1", "-0/7", "+3", "-3/6", "007/014", "00", "12/4",
    "5/0", "5/05", "/5", "5/", "1_000", "1_0/3", "+-1", "--1", "1/+2", "1/-2",
    "1//2", "1/2/3", "1.5", "1e3", "0x1", "", "٣", "1/٣", "²", "1²", "\x00",
    "1\x00", "\x001", "1/2\x00", "1 / 2", "1 2", "x", "1" * 4301,
    "-" + "1" * 4301 + "/3", "1/" + "3" * 4301, "9" * 4300,
    3, -4, 0, True, False, Fraction(6, 4), 0.5, 2.0, None, [], {},
]


@pytest.mark.parametrize("space", _SPACES, ids=lambda c: f"U+{ord(c):04X}")
def test_cell_reader_strips_every_space_and_refuses_it_inside(space):
    for cell in (
        space + "3/6", "-3/6" + space, space * 2 + "+7" + space, space,
        "3" + space + "/6", "3/" + space + "6", "-" + space + "3", "1" + space + "2",
    ):
        assert _read(rational_pair, cell) == _read(_old_rational_pair, cell), cell


@pytest.mark.parametrize("cell", _CELLS, ids=repr)
def test_cell_reader_matches_the_strip_and_partition_reader(cell):
    """The grouped regex accepts and refuses the cells the old reader did,
    with the same pair or the same message: signs, leading zeros and 0/1;
    zero, zero-led and missing denominators, underscores and doubled signs;
    non-ASCII digits and NUL; and a part over Python's int digit limit, on
    Python versions that have one."""
    assert _read(rational_pair, cell) == _read(_old_rational_pair, cell)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789+-/_ \t\n\x0b\x1c\x85　\x00٣²xe.", max_size=8))
def test_cell_reader_matches_the_old_reader_on_short_strings(cell):
    assert _read(rational_pair, cell) == _read(_old_rational_pair, cell)


@pytest.mark.parametrize(
    "rows, field",
    [
        ([["1", "2"], ["3", " 4 /5"]], r"^points\[1\]\[1\]: "),
        ([["1", "x"], ["٣", "2"]], r"^points\[0\]\[1\]: "),
        (
            [["1/2", "3"], ["4", "5"], ["6", "1" * 4301], ["7/0", "0"]],
            # Without a digit limit (before 3.10.7), the long cell is read.
            r"^points\[2\]\[1\]: "
            if hasattr(sys, "get_int_max_str_digits")
            else r"^points\[3\]\[0\]: ",
        ),
        ([["\x00", "1"]], r"^points\[0\]\[0\]: "),
    ],
)
def test_first_bad_cell_is_named(rows, field):
    with pytest.raises(InputError, match=field + "not a rational: "):
        lattice(rows, "points")



def _cell_by_cell_lattice(rows, name, dimension):
    """lattice as it read rows before rows of strings were read in one
    pass: every row in order, every cell by the strip-and-partition reader
    into a reduced pair, then the lcm of the reduced denominators."""
    if not isinstance(rows, (list, tuple)):
        raise InputError(f"{name}: missing or not a list")
    pairs = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise InputError(f"{name}[{i}]: expected a list of rationals")
        vector = []
        for j, cell in enumerate(row):
            try:
                vector.append(_old_rational_pair(cell))
            except InputError as exc:
                raise InputError(f"{name}[{i}][{j}]: {exc}") from None
        if dimension is None:
            if not vector:
                raise InputError(f"{name}[{i}]: expected at least one coordinate")
            dimension = len(vector)
        elif len(vector) != dimension:
            raise InputError(
                f"{name}[{i}]: expected {dimension} coordinates, got {len(vector)}"
            )
        pairs.append(vector)
    den = math.lcm(*(q for row in pairs for _, q in row))
    return den, tuple(tuple(p * (den // q) for p, q in row) for row in pairs)


def _reference_configuration(dimension, rows):
    """(denominator, integer points) of Configuration(dimension, rows), by
    the cell-by-cell reader and the constructor's two checks."""
    den, points = _cell_by_cell_lattice(rows, "points", dimension)
    if not points:
        raise InputError("points: configuration must contain at least one point")
    seen = {}
    for i, point in enumerate(points):
        if point in seen:
            raise InputError(f"points: duplicate point at indices {seen[point]} and {i}")
        seen[point] = i
    return den, points


_SIGNED = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "+", "-"]),
    st.sampled_from(["", "0", "00"]),
    st.integers(0, 99),
)
_FRACTION = st.builds(
    "{}/{}{}".format, _SIGNED, st.sampled_from(["", "0"]), st.integers(1, 60)
)
_SPECIAL = st.sampled_from([
    "-0", "0/7", "6/4", "2/4", "-12/18", "1/0", "1//2", "1/-2", "1/+2", "1/2/3",
    "1.5", "x", "", "1" * 4301, "1/" + "3" * 4301,
])


@st.composite
def _string_cell(draw):
    """A cell string: a core with signs, leading zeros and unreduced or bad
    fractions, one in ten with a space inside it, between runs of any of the
    characters str.isspace holds. Most cells are good, so that many rows
    are read whole by the one pass."""
    kind = draw(st.integers(0, 9))
    core = draw(_SPECIAL if kind == 0 else _FRACTION if kind < 5 else _SIGNED)
    if core and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(core)))
        core = core[:at] + draw(st.sampled_from(_SPACES)) + core[at:]
    around = st.text(alphabet=st.sampled_from(_SPACES), max_size=2)
    return draw(around) + core + draw(around)


_OTHER_CELLS = st.one_of(
    st.integers(-50, 50),
    st.fractions(max_denominator=20).filter(lambda x: abs(x) < 50),
    st.booleans(),
    st.floats(-4, 4),
    st.none(),
)


@st.composite
def _rows(draw):
    """(dimension, rows): rows mostly of strings, one in four with other
    cells mixed in, sometimes ragged, empty, or not a list at all."""
    dimension = draw(st.integers(1, 3))
    mixed = draw(st.integers(0, 3)) == 0
    cell = st.one_of(_string_cell(), _OTHER_CELLS) if mixed else _string_cell()
    count = st.just(dimension) if draw(st.integers(0, 4)) else st.integers(0, 4)
    row = count.flatmap(lambda size: st.lists(cell, min_size=size, max_size=size))
    if draw(st.integers(0, 9)) == 0:
        row = st.one_of(row, st.sampled_from(["12", {"0": "1"}, None, 3]))
    rows = draw(st.lists(row, min_size=1, max_size=5))
    if draw(st.integers(0, 19)) == 0:
        rows = draw(st.sampled_from([tuple(rows), [], "12", None, {"points": rows}]))
    return dimension, rows


@settings(max_examples=400, deadline=None)
@given(case=_rows(), given_dimension=st.booleans())
@example(case=(2, [["1", "2"], ["3", "1" * 4301]]), given_dimension=True)
@example(case=(2, [["1", "2"], "34"]), given_dimension=False)
@example(case=(2, [["1/3", "2"], ["3", F(1, 3)]]), given_dimension=True)
def test_lattice_reads_rows_as_the_cell_by_cell_reader(case, given_dimension):
    """lattice, and Configuration through it, return the cell-by-cell
    reference's denominator and rows, or raise its InputError text, on rows
    of strings (read in one pass) as on rows mixed with int, Fraction, bool,
    float and None cells, ragged rows, empty rows and non-lists."""
    dimension, rows = case
    read = dimension if given_dimension else None

    def read_lattice(reader):
        return _read(lambda rows: reader(rows, "points", read), rows)

    assert read_lattice(lattice) == read_lattice(_cell_by_cell_lattice)

    def configuration(rows):
        config = Configuration(dimension, rows)
        return config.denominator, config.integer_points

    assert _read(configuration, rows) == _read(
        lambda rows: _reference_configuration(dimension, rows), rows
    )


def test_one_gcd_brings_string_rows_to_lowest_terms():
    """The one-pass read keeps each denominator as written: no cell is
    reduced, and the one gcd of the lcm and the scaled entries is what
    brings 2/4 and 6/4 over 4 to 1/2 and 3/2 over 2."""
    assert lattice([["2/4", "6/4"]]) == (2, ((1, 3),))
    assert lattice([["6/4"], ["10/12"]]) == lattice([[F(3, 2)], [F(5, 6)]]) == (
        6, ((9,), (5,))
    )

_PATTERN = DegeneracyPattern(1, (2, 2))
_WITNESS = Subspace(2, ((0, 1),))
_CERTIFICATE = Certificate(_PATTERN, ((0, 1), (2, 3)), _WITNESS)
_FIBER = FiberReport((0, 1), True, False)
_MAP = AffineMap(((1, 0), (0, 1)), ("1/3", 0))
_SHOWN_CERTIFICATE = (
    "Certificate(pattern=DegeneracyPattern(k=1, sizes=(2, 2)), groups=((0, 1), "
    "(2, 3)), witness=Subspace(ambient_dimension=2, generators=((Fraction(0, 1), "
    "Fraction(1, 1)),), dim=1))"
)
_SHOWN_MAP = "AffineMap(matrix=((3, 0), (0, 3)), translation=(1, 0), denominator=3)"

# (class, positional arguments, their parameter names, the tuple the record
# hashes as, repr): every record of the package, with the defaults of
# Verdict and ClassicalReport.
_RECORDS = [
    (
        Configuration, (2, ((0, 0), (1, "1/2")), ("a", "b")),
        ("dimension", "points", "labels"),
        (2, 2, ((0, 0), (2, 1)), ("a", "b")),
        "Configuration(dimension=2, points=((Fraction(0, 1), Fraction(0, 1)), "
        "(Fraction(1, 1), Fraction(1, 2))), labels=('a', 'b'))",
    ),
    (
        Subspace, (3, ((1, 0, 0), (2, 0, 0))), ("ambient_dimension", "generators"),
        (3, 1, ((1, 0, 0), (2, 0, 0))),
        "Subspace(ambient_dimension=3, generators=((Fraction(1, 1), Fraction(0, 1), "
        "Fraction(0, 1)), (Fraction(2, 1), Fraction(0, 1), Fraction(0, 1))), dim=1)",
    ),
    (
        AffineMap, (((1, 0), (0, 1)), ("1/3", 0)), ("matrix", "translation"),
        (2, 3, ((3, 0), (0, 3), (1, 0))), _SHOWN_MAP,
    ),
    (
        DegeneracyPattern, (1, (2, 2)), ("k", "sizes"), (1, (2, 2)),
        "DegeneracyPattern(k=1, sizes=(2, 2))",
    ),
    (
        Certificate, (_PATTERN, ((0, 1), (2, 3)), _WITNESS),
        ("pattern", "groups", "witness"), (_PATTERN, ((0, 1), (2, 3)), _WITNESS),
        _SHOWN_CERTIFICATE,
    ),
    (
        Verdict, (False, _CERTIFICATE), ("generic", "certificate"),
        (False, _CERTIFICATE), f"Verdict(generic=False, certificate={_SHOWN_CERTIFICATE})",
    ),
    (
        Verdict, (True,), ("generic",), (True, None),
        "Verdict(generic=True, certificate=None)",
    ),
    (
        ClassicalReport, (False, (0, 1, 2)), ("in_general_position", "witness"),
        (False, (0, 1, 2)),
        "ClassicalReport(in_general_position=False, witness=(0, 1, 2))",
    ),
    (
        ClassicalReport, (True,), ("in_general_position",), (True, None),
        "ClassicalReport(in_general_position=True, witness=None)",
    ),
    (
        FiberReport, ((0, 1), True, False),
        ("indices", "size_ok", "affinely_independent"), ((0, 1), True, False),
        "FiberReport(indices=(0, 1), size_ok=True, affinely_independent=False)",
    ),
    (
        SubspaceCheck, (1, ((0, 1), (2,)), (_FIBER,), 1, True, False, ("v",)),
        ("k", "fibers", "nondegenerate", "excess_sum", "sum_ok", "passed",
         "violations"),
        (1, ((0, 1), (2,)), (_FIBER,), 1, True, False, ("v",)),
        "SubspaceCheck(k=1, fibers=((0, 1), (2,)), nondegenerate=(FiberReport("
        "indices=(0, 1), size_ok=True, affinely_independent=False),), "
        "excess_sum=1, sum_ok=True, passed=False, violations=('v',))",
    ),
    (
        IteratedFunctionSystem, (2, (_MAP,)), ("dimension", "maps"), (2, (_MAP,)),
        f"IteratedFunctionSystem(dimension=2, maps=({_SHOWN_MAP},))",
    ),
    (
        CommandResult, (0, "{}", ""), ("exit_code", "payload", "diagnostics"),
        (0, "{}", ""), "CommandResult(exit_code=0, payload='{}', diagnostics='')",
    ),
    (
        CheckResult, ("x", True, "1/1"), ("name", "passed", "detail"),
        ("x", True, "1/1"), "CheckResult(name='x', passed=True, detail='1/1')",
    ),
]


@pytest.mark.parametrize(
    "cls, args, names, key, shown", _RECORDS,
    ids=[f"{case[0].__name__}-{len(case[1])}" for case in _RECORDS],
)
def test_records_behave_alike(cls, args, names, key, shown):
    """Every record shows as Name(field=value, ...), hashes as the tuple of
    its fields (of its lattice key, for a lattice record), equals only a
    record of its own class, cannot be changed, survives copy, deepcopy and
    pickle, and is built alike from positional and keyword arguments."""
    record = cls(*args)
    assert repr(record) == shown
    assert hash(record) == hash(key)
    twin = type(cls.__name__, (cls,), {})(*args)
    assert record != twin and twin != record and record != key
    with pytest.raises(AttributeError):
        setattr(record, names[0], args[0])
    for copied in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(copied) is cls and copied == record
        assert hash(copied) == hash(record) and repr(copied) == shown
    built = cls(**dict(zip(names, args)))
    assert built == record and repr(built) == shown
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args, unknown=0)
