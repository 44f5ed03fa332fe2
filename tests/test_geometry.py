import copy
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from genpos import (
    Configuration,
    InputError,
    SplitMix64,
    Subspace,
    check_general_position,
    configuration_from_json,
    configuration_to_json,
    fibers,
    rank,
    subspace_from_json,
    subspace_to_json,
    vector_sub,
)
from genpos import geometry
from genpos.linalg import _excerpt, fractions, lattice
from genpos.selftest import (
    grid_configuration,
    gram_determinant,
    project_onto_complement,
    random_subspace,
)

F = Fraction


def brute_force_fibers(config, kernel):
    """Independent oracle: group indices by equal projected images."""
    images = [project_onto_complement(p, kernel) for p in config.points]
    classes = []
    for i, img in enumerate(images):
        for cls in classes:
            if images[cls[0]] == img:
                cls.append(i)
                break
        else:
            classes.append([i])
    return tuple(tuple(c) for c in classes)


class TestConfiguration:
    def test_rejects_duplicate_points(self):
        with pytest.raises(InputError, match="duplicate point at indices 0 and 2"):
            Configuration(2, ((0, 0), (1, 0), (0, 0)))

    def test_rejects_wrong_dimension_point(self):
        with pytest.raises(InputError, match=r"points\[1\]"):
            Configuration(2, ((0, 0), (1, 0, 0)))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            Configuration(2, ())

    def test_labels_length_checked(self):
        with pytest.raises(InputError, match="labels"):
            Configuration(2, ((0, 0), (1, 1)), labels=("a",))

    @pytest.mark.parametrize("labels", ["ab", (1, None), 5, ("a", b"b")])
    def test_labels_must_be_strings(self, labels):
        with pytest.raises(InputError, match="^labels: expected a list of strings$"):
            Configuration(2, ((0, 0), (1, 1)), labels=labels)

    def test_labels_list_kept_as_tuple(self):
        config = Configuration(2, ((0, 0), (1, 1)), labels=["a", "b"])
        assert config.labels == ("a", "b")

    @pytest.mark.parametrize(
        "labels, points, message",
        [
            ("a", [[0, 0]], "labels: expected a list of strings"),
            ([1], [[0, 0]], "labels: expected a list of strings"),
            (["a", "b"], [[0, 0]], "labels: expected 1 entries, got 2"),
            # The points are read before the labels.
            (5, [[0, "x"]], "points[0][1]: not a rational: 'x'"),
        ],
    )
    def test_json_labels_diagnostics(self, labels, points, message):
        doc = {"dimension": 2, "points": points, "labels": labels}
        with pytest.raises(InputError) as raised:
            configuration_from_json(doc)
        assert str(raised.value).startswith(message)

    def test_coordinates_normalized(self):
        config = Configuration(1, (("2/4",), (3,)))
        assert config.points == ((F(1, 2),), (F(3),))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Configuration(2, 5), "points: missing or not a list"),
        (lambda: Configuration(2, None), "points: missing or not a list"),
        (lambda: Subspace(2, None), "generators: missing or not a list"),
        (lambda: rank(5), "vectors: missing or not a list"),
    ],
    ids=["config-int", "config-none", "subspace-none", "rank-int"],
)
def test_rows_not_a_list_are_input_errors(call, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


class TestSubspace:
    def test_dim_is_computed_rank(self):
        kernel = Subspace(3, ((1, 0, 0), (2, 0, 0), (0, 1, 0)))
        assert kernel.dim == 2

    def test_rejects_zero_dimension(self):
        with pytest.raises(InputError):
            Subspace(2, ((0, 0),))

    def test_rejects_full_space(self):
        with pytest.raises(InputError):
            Subspace(2, ((1, 0), (0, 1)))

    def test_no_proper_subspace_in_dimension_one(self):
        with pytest.raises(InputError):
            Subspace(1, ((1,),))


@st.composite
def _generator_cells(draw):
    """Rows of cells spelled non-reduced, negative, as ints or Fractions,
    with redundant rows and rows sharing a factor."""
    dimension = draw(st.integers(2, 4))
    value = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    rows = draw(
        st.lists(
            st.lists(value, min_size=dimension, max_size=dimension),
            min_size=1,
            max_size=dimension,
        )
    )
    for _ in range(draw(st.integers(0, 2))):
        factor = draw(st.sampled_from([F(2), F(-3), F(1, 4), F(-6, 5)]))
        rows.append([factor * c for c in draw(st.sampled_from(rows))])
    spell = st.sampled_from(["fraction", "unreduced", "signed", "int"])
    cells = []
    for row in rows:
        cells.append([])
        for c in row:
            form = draw(spell)
            if form == "unreduced":
                f = draw(st.integers(2, 5))
                c = f"{c.numerator * f}/{c.denominator * f}"
            elif form == "signed":
                c = f"{'-' if c < 0 else '+'}{abs(c.numerator)}/{c.denominator}"
            elif form == "int" and c.denominator == 1:
                c = c.numerator
            cells[-1].append(c)
    return dimension, rows, cells


@settings(max_examples=200, deadline=None)
@given(case=_generator_cells())
def test_subspace_matches_fraction_reference(case):
    dimension, rows, cells = case
    reference = tuple(tuple(F(c) for c in row) for row in rows)
    k = rank(reference)
    if not 0 < k < dimension:
        with pytest.raises(InputError, match="^generators: subspace"):
            Subspace(dimension, cells)
        return
    kernel = Subspace(dimension, cells)
    assert kernel.generators == reference and kernel.dim == k
    assert repr(kernel) == (
        f"Subspace(ambient_dimension={dimension!r}, generators={reference!r}, "
        f"dim={k!r})"
    )
    twin = Subspace(dimension, reference)
    assert kernel == twin and hash(kernel) == hash(twin)
    assert (kernel.denominator, kernel.integer_generators) == lattice(reference)
    assert subspace_to_json(kernel)["generators"] == [
        [str(c) for c in row] for row in reference
    ]
    for copied in (
        copy.copy(kernel),
        copy.deepcopy(kernel),
        pickle.loads(pickle.dumps(kernel)),
    ):
        assert copied == kernel and hash(copied) == hash(kernel)
        assert copied.integer_generators == kernel.integer_generators


def test_subspace_reads_its_cells_once_and_fibers_not_at_all(monkeypatch):
    config = Configuration(3, ((0, 0, 0), (1, 0, -1), (0, 3, 0), (1, 1, 1)))
    calls = []
    read = geometry.lattice
    monkeypatch.setattr(geometry, "lattice", lambda *a: calls.append(1) or read(*a))
    kernel = Subspace(3, [["1/2", "0", "-2/4"], [1, 0, -1], ["0", "1/3", "0"]])
    assert len(calls) == 1
    assert fibers(config, kernel) == ((0, 1, 2), (3,))
    check_general_position(config, kernel)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "dimension, generators, message",
    [
        (
            2,
            [["1", "x"]],
            """generators[0][1]: not a rational: 'x' (expected "p/q" or "p")""",
        ),
        (3, ["100"], "generators[0]: expected a list of rationals"),
        (3, [[1, 0, 0], [1, 0]], "generators[1]: expected 3 coordinates, got 2"),
        (2, ((0, 0),), "generators: subspace must have positive dimension"),
        (2, (), "generators: subspace must have positive dimension"),
        (
            2,
            ((1, 0), (0, 1)),
            "generators: subspace of dimension 2 is not proper in dimension 2",
        ),
    ],
)
def test_subspace_errors_name_the_field(dimension, generators, message):
    with pytest.raises(InputError) as raised:
        Subspace(dimension, generators)
    assert str(raised.value) == message


class TestProjection:
    def test_axis_kernel(self):
        assert project_onto_complement((3, 5), Subspace(2, ((0, 1),))) == (F(3), F(0))

    def test_point_inside_kernel_maps_to_zero(self):
        assert project_onto_complement((1, 1), Subspace(2, ((1, 1),))) == (F(0), F(0))

    def test_diagonal_kernel(self):
        # normal equations by hand: proj = ((x.h)/(h.h)) h = 1/2 (1,1)
        assert project_onto_complement((1, 0), Subspace(2, ((1, 1),))) == (
            F(1, 2),
            F(-1, 2),
        )

    def test_result_is_orthogonal_to_kernel_and_fixed(self):
        kernel = Subspace(3, ((1, 2, 3), (0, 1, 1)))
        image = project_onto_complement((5, -4, 7), kernel)
        for g in kernel.generators:
            assert sum(a * b for a, b in zip(image, g)) == 0
        assert project_onto_complement(image, kernel) == image

    def test_redundant_generators_accepted(self):
        plain = project_onto_complement((1, 0), Subspace(2, ((1, 1),)))
        redundant = project_onto_complement((1, 0), Subspace(2, ((1, 1), (2, 2))))
        assert plain == redundant

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            project_onto_complement((1, 0, 0), Subspace(2, ((0, 1),)))


class TestFibers:
    def test_vertical_kernel_merges_column(self, yaxis):
        config = Configuration(2, ((0, 0), (0, 1), (1, 0)))
        assert fibers(config, yaxis) == ((0, 1), (2,))

    def test_collinear_along_kernel(self, collinear3, xaxis):
        assert fibers(collinear3, xaxis) == ((0, 1, 2),)

    def test_square_rows(self, square, xaxis):
        assert fibers(square, xaxis) == ((0, 2), (1, 3))

    def test_matches_projection_image_grouping(self):
        rng = SplitMix64(12)
        for _ in range(40):
            dim = 2 + rng.below(2)
            config = grid_configuration(rng, 3 + rng.below(5), dim, 3)
            kernel = random_subspace(rng, dim, 1 + rng.below(dim - 1))
            assert fibers(config, kernel) == brute_force_fibers(config, kernel)

    def test_invariant_under_generator_rewrite(self):
        config = Configuration(3, ((0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 0, 1)))
        a = Subspace(3, ((1, 1, 0),))
        b = Subspace(3, ((-3, -3, 0), (2, 2, 0)))
        assert fibers(config, a) == fibers(config, b)

    def test_dimension_mismatch(self, xaxis):
        with pytest.raises(InputError):
            fibers(Configuration(3, ((0, 0, 0),)), xaxis)


class TestCheckGeneralPosition:
    def test_single_full_fiber_passes(self, yaxis):
        config = Configuration(2, ((0, 0), (0, 1), (1, 0)))
        report = check_general_position(config, yaxis)
        assert report.passed
        assert report.excess_sum == 1
        assert [f.indices for f in report.nondegenerate] == [(0, 1)]

    def test_oversized_fiber_fails(self, collinear3, xaxis):
        report = check_general_position(collinear3, xaxis)
        assert not report.passed
        assert "fiber size 3 exceeds k+1=2" in report.violations
        assert not report.nondegenerate[0].size_ok

    def test_sum_bound_fails_on_square(self, square, xaxis):
        report = check_general_position(square, xaxis)
        assert not report.passed
        assert report.excess_sum == 2
        assert not report.sum_ok
        assert all(f.size_ok for f in report.nondegenerate)
        assert all(f.affinely_independent for f in report.nondegenerate)

    def test_affine_dependence_detected(self):
        # three collinear points inside one fiber of a 2-dimensional kernel
        config = Configuration(3, ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 0, 1)))
        kernel = Subspace(3, ((1, 0, 0), (0, 1, 0)))
        report = check_general_position(config, kernel)
        assert not report.passed
        assert any("affinely dependent" in v for v in report.violations)

    def test_nondegenerate_fiber_gram_nonzero_any_base(self):
        rng = SplitMix64(77)
        seen = 0
        for _ in range(60):
            dim = 2 + rng.below(2)
            config = grid_configuration(rng, 4 + rng.below(3), dim, 3)
            kernel = random_subspace(rng, dim, 1 + rng.below(dim - 1))
            report = check_general_position(config, kernel)
            for fiber in report.nondegenerate:
                if not fiber.affinely_independent:
                    continue
                seen += 1
                members = fiber.indices
                for base in members:
                    diffs = [
                        vector_sub(config.points[i], config.points[base])
                        for i in members
                        if i != base
                    ]
                    assert gram_determinant(diffs) != 0
                    assert rank(diffs) == len(members) - 1
        assert seen > 0


def test_integer_points_share_one_scale():
    config = Configuration(2, ((F(1, 2), F(-1, 3)), (0, 1), (F(5, 4), 2)))
    assert config.integer_points == ((6, -4), (0, 12), (15, 24))


class TestJson:
    def test_configuration_round_trip(self):
        config = Configuration(
            2, ((F(1, 3), F(1, 2)), (0, 1)), labels=("a", "b")
        )
        doc = configuration_to_json(config)
        assert doc == {
            "dimension": 2,
            "points": [["1/3", "1/2"], ["0", "1"]],
            "labels": ["a", "b"],
        }
        assert configuration_from_json(doc) == config

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.one_of(st.just(0), st.integers(-(10**30), 10**30)), max_size=4),
            max_size=4,
        ),
        denominator=st.one_of(st.just(1), st.integers(1, 10**30)),
    )
    def test_cells_are_written_as_fraction_writes_them(self, rows, denominator):
        """The JSON cells, formatted with one gcd each, are byte for byte
        str(Fraction(x, denominator)): zero, negative cells and a
        denominator of 1 included."""
        assert geometry._cells(denominator, rows) == [
            [str(F(x, denominator)) for x in row] for row in rows
        ]

    def test_subspace_round_trip(self):
        kernel = Subspace(2, ((F(1, 2), 1),))
        doc = subspace_to_json(kernel)
        assert doc == {"ambient_dimension": 2, "generators": [["1/2", "1"]]}
        assert subspace_from_json(doc) == kernel

    def test_bad_rational_names_field(self):
        with pytest.raises(InputError, match=r"points\[0\]\[1\]"):
            configuration_from_json({"dimension": 2, "points": [["0", "1.5"]]})

    def test_missing_dimension_named(self):
        with pytest.raises(InputError, match="dimension"):
            configuration_from_json({"points": [["0"]]})

    def test_duplicate_points_rejected_with_indices(self):
        with pytest.raises(InputError, match="indices 0 and 1"):
            configuration_from_json(
                {"dimension": 1, "points": [["2/4"], ["1/2"]]}
            )


# The loader reads rows of string cells in one pass, other rows cell by
# cell, and builds the lattice without a Fraction. The reference below is the loader as first
# written: Python's own Fraction parser after the same syntax check, rows of
# Fraction, duplicates found on the Fraction points, and the lattice taken
# from those points.
_REFERENCE_CELL = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


def _reference_cell(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _REFERENCE_CELL.fullmatch(value.strip()):
            raise InputError(
                f'not a rational: {_excerpt(value)} (expected "p/q" or "p")'
            )
        try:
            return Fraction(value)
        except ValueError as exc:
            raise InputError(f"not a rational: {_excerpt(value)}: {exc}") from None
    if isinstance(value, float):
        raise InputError(
            f'floating point value {value!r} is not exact; pass "p/q" strings'
        )
    raise InputError(f"not a rational: {value!r}")


def _reference_points(dimension, rows):
    points = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise InputError(f"points[{i}]: expected a list of rationals")
        vector = []
        for j, cell in enumerate(row):
            try:
                vector.append(_reference_cell(cell))
            except InputError as exc:
                raise InputError(f"points[{i}][{j}]: {exc}") from None
        if len(vector) != dimension:
            raise InputError(
                f"points[{i}]: expected {dimension} coordinates, got {len(vector)}"
            )
        points.append(tuple(vector))
    if not points:
        raise InputError("points: configuration must contain at least one point")
    seen = {}
    for i, p in enumerate(points):
        if p in seen:
            raise InputError(f"points: duplicate point at indices {seen[p]} and {i}")
        seen[p] = i
    return tuple(points)


def _assert_loads_like_reference(doc):
    dimension, rows, labels = doc["dimension"], doc["points"], doc.get("labels")
    try:
        expected = _reference_points(dimension, rows)
    except InputError as exc:
        for load in (
            lambda: configuration_from_json(doc),
            lambda: Configuration(dimension, rows, labels),
        ):
            with pytest.raises(InputError) as raised:
                load()
            assert str(raised.value) == str(exc)
        return
    config = configuration_from_json(doc)
    assert config.points == expected
    den = math.lcm(*(c.denominator for p in expected for c in p))
    assert config.denominator == den
    assert config.integer_points == tuple(
        tuple(int(c * den) for c in p) for p in expected
    )
    for other in (
        Configuration(dimension, rows, labels),
        Configuration(dimension, expected, labels),
    ):
        assert other == config and hash(other) == hash(config)
        assert other.points == expected
    assert config != Configuration(dimension, expected, ["x"] * len(expected))
    if len(expected) > 1:
        assert config != Configuration(dimension, expected[:-1], None)


@st.composite
def _lattice_rows(draw):
    """(dimension, denominator, rows): distinct integer rows, negative
    entries among them, over a denominator that is often not the least one,
    since the rows may all share a factor with it."""
    dimension = draw(st.integers(1, 3))
    least, factor = draw(st.integers(1, 30)), draw(st.integers(1, 12))
    cell = st.integers(-500, 500)
    if draw(st.booleans()):
        cell = st.integers(-60, 60).map(lambda x: x * factor)
    rows = draw(
        st.lists(st.tuples(*[cell] * dimension), min_size=1, max_size=6, unique=True)
    )
    labels = draw(st.none() | st.just(tuple(str(i) for i in range(len(rows)))))
    return dimension, least * factor, rows, labels


@settings(max_examples=300, deadline=None)
@given(case=_lattice_rows())
@example(case=(1, 6, [(2,), (4,)], None))
@example(case=(2, 12, [(-4, 6), (0, -8)], ("a", "b")))
@example(case=(2, 7, [(0, 0)], None))
def test_on_lattice_is_the_constructor_on_the_rational_points(case):
    dimension, den, rows, labels = case
    built = Configuration._on_lattice(dimension, den, rows, labels)
    reference = Configuration(
        dimension, [[F(x, den) for x in row] for row in rows], labels
    )
    assert built == reference and hash(built) == hash(reference)
    assert built.denominator == reference.denominator
    assert built.integer_points == reference.integer_points
    assert built.points == reference.points
    assert built.labels == reference.labels


@st.composite
def _subspace_rows(draw):
    """(dimension, denominator, rows): integer rows as lists, as
    difference_basis returns them, whose span is proper and non-zero, over
    a denominator that the rows often share a factor with."""
    dimension = draw(st.integers(2, 4))
    least, factor = draw(st.integers(1, 30)), draw(st.integers(1, 12))
    cell = st.integers(-9, 9).map(lambda x: x * factor)
    rows = draw(
        st.lists(st.lists(cell, min_size=dimension, max_size=dimension),
                 min_size=1, max_size=dimension)
    )
    assume(0 < rank(rows) < dimension)
    return dimension, least * factor, rows


def _assert_lattice_record_behaves(record, reference):
    """Equal to the reference in ==, hash and repr; copies are equal; no
    field can be set."""
    assert record == reference and hash(record) == hash(reference)
    assert repr(record) == repr(reference)
    for copied in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert copied == record and hash(copied) == hash(record)
        assert repr(copied) == repr(record)
    for name in (*type(record).__slots__, *type(record)._shown):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(record, name, None)


@settings(max_examples=300, deadline=None)
@given(case=_subspace_rows())
@example(case=(2, 6, [[2, 4]]))
@example(case=(3, 4, [[0, 8, -4], [4, 0, 0], [4, 8, -4]]))
def test_subspace_on_lattice_is_the_constructor_on_the_rational_rows(case):
    dimension, den, rows = case
    built = Subspace._on_lattice(dimension, den, rows)
    reference = Subspace(dimension, fractions(den, rows))
    _assert_lattice_record_behaves(built, reference)
    assert (built.denominator, built.integer_generators, built.dim) == (
        reference.denominator, reference.integer_generators, reference.dim
    )
    assert all(type(row) is tuple for row in built.integer_generators)
    assert subspace_to_json(built) == subspace_to_json(reference)


def test_configuration_is_a_lattice_record():
    config = Configuration._on_lattice(2, 4, [[2, 0], [0, 6]], ("a", "b"))
    reference = Configuration(2, (("1/2", 0), (0, "3/2")), ["a", "b"])
    _assert_lattice_record_behaves(config, reference)
    assert repr(config) == (
        "Configuration(dimension=2, points=((Fraction(1, 2), Fraction(0, 1)), "
        "(Fraction(0, 1), Fraction(3, 2))), labels=('a', 'b'))"
    )


LOADER_DOCUMENTS = {
    "ints and p/q": [[1, "2/3"], ["-5", 7]],
    "unreduced fractions": [["2/4", "6/3"], ["-3/9", "0/5"]],
    "signs, zeros and whitespace": [[" +3/6", "-0"], ["\t-2/4\n", "+0"]],
    "leading zeros": [["007/014", "0"], ["1", "00"]],
    "a float": [["1", 0.5]],
    "an integral float": [[1.0, "1"]],
    "a bool": [[True, "1"]],
    "null": [[None, "1"]],
    "a nested list": [[[1], "1"]],
    "a decimal string": [["1.5", "1"]],
    "an exponent": [["1e3", "1"]],
    "a zero denominator": [["3/0", "1"]],
    "a signed denominator": [["3/-4", "1"]],
    "spaces inside": [["1 / 2", "1"]],
    "empty string": [["", "1"]],
    "over the digit limit": [["1" * 5000, "0"], ["0", "1"]],
    "denominator over the digit limit": [["1/" + "3" * 4301, "0"]],
    "ragged row": [["1", "2"], ["3"]],
    "long row": [["1", "2", "3"]],
    "string row": ["12", ["3", "4"]],
    "no points": [],
    "duplicate spelled differently": [["1/2", "0"], ["1", "1"], ["2/4", "-0"]],
    "duplicate after a bad cell": [["1", "1"], ["1", "1"], ["x", "1"]],
}


@pytest.mark.parametrize("name", sorted(LOADER_DOCUMENTS))
def test_loader_matches_fraction_reference(name):
    _assert_loads_like_reference({"dimension": 2, "points": LOADER_DOCUMENTS[name]})


_valid_cells = st.one_of(
    st.integers(-(10**20), 10**20),
    st.builds(
        lambda p, q, form: form.format(p=p, q=q),
        st.integers(-6, 6),
        st.integers(1, 8),
        st.sampled_from(["{p}/{q}", "{p}", " {p}/{q}\n", "+{q}/{q}", "-0/{q}"]),
    ),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 8)),
)
_hostile_cells = st.sampled_from(
    [True, False, 0.5, 2.0, None, [], {}, "", " ", "1e3", "1.0", "0x1", "1/0",
     "1/-2", "1//2", "١", "1" * 4301, "-1/" + "9" * 4400]
)


@st.composite
def _configuration_documents(draw):
    dimension = draw(st.integers(1, 3))
    cells = st.one_of(_valid_cells, _valid_cells, _hostile_cells)
    row = st.one_of(
        st.lists(cells, min_size=dimension, max_size=dimension),
        st.lists(_valid_cells, min_size=dimension, max_size=dimension),
        st.lists(_valid_cells, max_size=dimension + 1),
        st.sampled_from(["12", 3, None]),
    )
    rows = draw(st.lists(row, max_size=6))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    doc = {"dimension": dimension, "points": rows}
    if draw(st.booleans()):
        doc["labels"] = [f"p{i}" for i in range(len(rows))]
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=_configuration_documents())
def test_loader_matches_fraction_reference_on_generated_documents(doc):
    _assert_loads_like_reference(doc)


def test_configuration_is_immutable_and_copies():
    config = Configuration(1, (("1/2",), (2,)), ("a", "b"))
    with pytest.raises(AttributeError):
        config.points = ((F(3),),)
    with pytest.raises(AttributeError):
        config.integer_points = ((3,),)
    for copied in (
        copy.copy(config),
        copy.deepcopy(config),
        pickle.loads(pickle.dumps(config)),
    ):
        assert copied == config and copied.integer_points == ((1,), (4,))
        assert config._points is None  # copied on the lattice
    assert config.points == ((F(1, 2),), (F(2),))
