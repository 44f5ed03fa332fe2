"""Exact linear algebra over the rationals, on the integer lattice.

Nothing is ever rounded. _RATIONAL_RE, whose groups are the two integers,
is the one definition of an input string cell, and integer the one check of
an integer argument. Rows reach the program along one route: lattice checks
a list of rows, naming the bad field, and scales them by the lcm of their
denominators onto integer rows without building a Fraction. Rows that are
all strings, as JSON gives them, it reads in one pass, one fullmatch per
cell; any other rows, and a bad cell, go through rational_pair, which reads
one cell of any accepted kind as written and names what is wrong with it.
One closing gcd, _lowest_terms, brings either read to lowest terms.
Every record of the package is a _Record: its fields are its __slots__, set
once by _Record.__init__, and the base makes it immutable, compares, hashes,
copies, pickles and shows it. Integer rows and their lcm are what a
_LatticeRecord holds: a Configuration its points, a Subspace its generators,
an AffineMap its matrix and translation; _on_lattice builds one unchecked
from integer rows that a certificate or a producer already holds. fractions
is the one place integer rows become fractions.Fraction rows.
Rank and span membership are computed by IncrementalSpan on integer rows only;
rational vectors reach it through lattice, and _span is the one place a span
is built from a list of integer rows. All elimination is there, in one
method: image, fraction-free integer elimination without division, maps a
row linearly onto the quotient by the span, so its kernel is exactly the
span. It reduces each added row, and the differences of point images key
directions in the decide search. The Fraction references that cross-check
it (Gram determinants and exact linear solves) live in genpos.selftest.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import InputError

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

# A whole cell string; \s is exactly what str.isspace holds and strip removes.
_RATIONAL_RE = re.compile(r"\s*([+-]?[0-9]+)(?:/([1-9][0-9]*))?\s*")


def _excerpt(text: str, limit: int = 40) -> str:
    """repr of a string, shortened so diagnostics stay one readable line."""
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"


def rational_pair(value) -> tuple[int, int]:
    """The numerator and positive denominator of a rational cell, as written.

    This is the one definition of the accepted cells: an int (not a bool), a
    Fraction, or a "p" or "p/q" string with an optional sign and surrounding
    whitespace, as _RATIONAL_RE reads it. Floats are refused as inexact, and
    so is a string of more digits than Python converts to an int. lattice
    reads with it the rows that are not all strings, and a row of strings
    that its one pass refuses, so the InputError it raises names the bad
    cell. A string reads as written, "2/4" as (2, 4). Strings are tested
    first, as isinstance against Fraction goes through ABCMeta.
    """
    if isinstance(value, str):
        match = _RATIONAL_RE.fullmatch(value)
        if match is None:
            raise InputError(
                f'not a rational: {_excerpt(value)} (expected "p/q" or "p")'
            )
        num, den = match.groups()
        try:
            return int(num), int(den or 1)
        except ValueError as exc:  # Python's limit on int-string digits
            raise InputError(f"not a rational: {_excerpt(value)}: {exc}") from None
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, float):
        raise InputError(
            f'floating point value {value!r} is not exact; pass "p/q" strings'
        )
    raise InputError(f"not a rational: {value!r}")


def integer(value, name: str, minimum: int) -> int:
    """The value if it is an int, not a bool, and at least minimum.

    This is the one check of an integer argument; anything else raises an
    InputError naming the argument.
    """
    if isinstance(value, int) and not isinstance(value, bool) and value >= minimum:
        return value
    raise InputError(f"{name}: must be an integer >= {minimum}")


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*rational_pair(value))


def _string_cells(rows, dimension: int | None):
    """(dimension, numerators, denominators) of every cell, row by row, with
    the pairs as written, where the rows are lists or tuples of one positive
    length whose cells are all str that _RATIONAL_RE reads; else None.

    One pass over all the cells, one fullmatch each, then int on the
    groups: no per-row loop and no per-cell call. A row or cell of any
    other kind, a cell the regex refuses, or a part over Python's int digit
    limit gives None, and lattice reads the rows cell by cell.
    """
    if not set(map(type, rows)) <= {list, tuple}:
        return None
    if dimension is None:
        dimension = len(rows[0])
    if not dimension or set(map(len, rows)) != {dimension}:
        return None
    match = _RATIONAL_RE.fullmatch
    try:
        found = [match(c) for row in rows for c in row]
        if None in found:
            return None
        return (
            dimension,
            [int(m[1]) for m in found],
            [int(m[2] or 1) for m in found],
        )
    except (TypeError, ValueError):  # a cell that is not a str; too many digits
        return None


def _cells_one_by_one(rows, name: str, dimension: int | None):
    """(dimension, numerators, denominators) of every cell, row by row, each
    pair read as written by rational_pair, raising at the first bad row or
    cell an InputError that names it."""
    nums, dens = [], []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise InputError(f"{name}[{i}]: expected a list of rationals")
        for j, c in enumerate(row):
            try:
                p, q = rational_pair(c)
            except InputError as exc:
                raise InputError(f"{name}[{i}][{j}]: {exc}") from None
            nums.append(p)
            dens.append(q)
        if dimension is None:
            if not row:
                raise InputError(f"{name}[{i}]: expected at least one coordinate")
            dimension = len(row)
        elif len(row) != dimension:
            raise InputError(
                f"{name}[{i}]: expected {dimension} coordinates, got {len(row)}"
            )
    return dimension, nums, dens


def lattice(
    rows, name: str = "vectors", dimension: int | None = None
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Check rows of rational-like cells, naming the bad field, and return
    the lcm of the reduced denominators with the rows scaled by it.

    The rows must be a list or tuple, and each row a list or tuple of
    dimension cells, each accepted by rational_pair; without a dimension, the
    first row's length is the one every row must have. Errors read name,
    name[i] or name[i][j]. No Fraction is built. Rows whose cells are all
    str, as JSON gives them, are read in one pass by _string_cells; any
    other rows, and rows that pass refuses, are read cell by cell by
    rational_pair, in order, so the first bad row or cell raises an
    InputError that names it. Either read gives the pairs as written; the
    rows are scaled by the lcm of their denominators, and _lowest_terms
    brings them to lowest terms. A common positive scale changes no rank,
    no span membership and no determinant's sign, so rank questions are
    answered on the integer rows, and the lcm of reduced denominators makes
    the scaled rows unique to the rational ones.
    """
    if not isinstance(rows, (list, tuple)):
        raise InputError(f"{name}: missing or not a list")
    if not rows:
        return 1, ()
    dimension, nums, dens = _string_cells(rows, dimension) or _cells_one_by_one(
        rows, name, dimension
    )
    den = math.lcm(*set(dens))
    scaled = [p * (den // q) for p, q in zip(nums, dens)]
    return _lowest_terms(den, scaled, dimension)


def _lowest_terms(denominator: int, entries: list[int], dimension: int):
    """(denominator / g, the entries / g cut into rows of dimension), for g
    the gcd of the denominator and the flat integer entries: over any common
    denominator D, D / g is the lcm of the reduced denominators."""
    g = math.gcd(denominator, *entries)
    if g > 1:
        denominator //= g
        entries = [x // g for x in entries]
    return denominator, tuple(zip(*[iter(entries)] * dimension))


def fractions(denominator: int, rows) -> Matrix:
    """Integer rows over one positive denominator as tuples of Fraction."""
    return tuple(tuple(Fraction(x, denominator) for x in row) for row in rows)


class _Record:
    """An immutable record whose fields are its __slots__.

    __init__ sets each field once, in slot order, from positional and then
    keyword values; a missing, extra or repeated field raises TypeError. A
    subclass that checks its input does so in its own __init__ and ends in
    super().__init__(...). _key() is what equality, hashing and pickling
    read, every field unless a subclass says otherwise; repr lists the names
    in a subclass's _shown, or else every field. Two records are equal iff
    they are of one class and their keys are equal, and a record hashes as
    its key.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        fields = self.__slots__
        if named:
            # A missing field leaves values short; a repeated or unknown one
            # is left in named.
            values += tuple(named.pop(f) for f in fields[len(values):] if f in named)
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {fields}")
        init = object.__setattr__
        for name, value in zip(fields, values):
            init(self, name, value)

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __reduce__(self):
        return type(self), self._key()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        names = getattr(self, "_shown", self.__slots__)
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__name__}({shown})"


class _LatticeRecord(_Record):
    """A record held as integer rows over one positive denominator, the lcm
    of the reduced denominators of its rational rows.

    A subclass's __init__ checks outside input, reads it with lattice and
    hands the result to _fill(dimension, denominator, rows, *rest), which
    sets every field with one _Record.__init__ call; _key() returns those
    arguments again, so a copy is built on the lattice, with no rational
    rows.
    """

    __slots__ = ()

    @classmethod
    def _on_lattice(cls, dimension: int, denominator: int, rows, *rest):
        """The record of the rows / denominator, unchecked, for callers that
        hold integer rows over one positive denominator. _lowest_terms
        brings them to lowest terms, as it does in lattice, so the key is
        the one the checked constructor gives; rows are stored as tuples."""
        entries = [x for row in rows for x in row]
        self = object.__new__(cls)
        self._fill(dimension, *_lowest_terms(denominator, entries, dimension), *rest)
        return self

    def __reduce__(self):
        return self._on_lattice, self._key()


def vector_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def distance_sq(a: Vector, b: Vector) -> Fraction:
    d = vector_sub(a, b)
    return dot(d, d)


def primitive_row(row: list[int]) -> list[int]:
    """Divide an integer row by the gcd of its entries; the span is unchanged."""
    g = math.gcd(*row)
    if g > 1:
        return [x // g for x in row]
    return row


class IncrementalSpan:
    """Integer rows in echelon form, grown one row at a time, with rollback.

    `rows` holds (pivot, row) pairs in the order the rows were added, one
    list for the span's lifetime that callers may read but not change. Each
    row is stored in the quotient coordinates of the rows before it: the
    j-th row has dimension - j entries, is primitive (the gcd of its entries
    is 1), and its pivot, an index within that quotient, is its first
    non-zero entry. Rows are never modified once stored, so a backtracking
    search snapshots the rank, the row count, and restores it with
    rollback(), which truncates.

    Rows are integer sequences of the span's dimension, such as the rows of
    lattice; rational vectors go through lattice first. add_row never
    mutates its argument, so callers may share cached rows.

    Elimination is defined here only, as image: the span's linear quotient
    map. add_row stores the image of its row, geometry.fibers tests images
    for zero, and the decide search keys the direction from point b to point
    m by image(p_m) - image(p_b), one elimination per point rather than one
    per pair.
    """

    __slots__ = ("dimension", "rows")

    def __init__(self, dimension: int):
        self.dimension = integer(dimension, "dimension", 1)
        self.rows: list[tuple[int, list[int]]] = []  # (pivot, row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def image(self, row: list[int]) -> list[int]:
        """The integer row under the span's quotient map, a new list of
        dimension - rank entries.

        Each stored (p, base) takes row to base[p] * row - row[p] * base and
        drops entry p, which is then zero. The step runs also where row[p]
        is zero, and there it only scales, so every row is scaled by the
        same product of pivots and the map is linear: image(a) - image(b) is
        image(a - b), two rows are parallel modulo the span iff their images
        are parallel, and the kernel is exactly the span. The row's length
        is not checked; the argument is not changed.
        """
        row = list(row)
        for p, base in self.rows:
            f_row, f_base = row[p], base[p]
            row = [f_base * a - f_row * b for a, b in zip(row, base)]
            del row[p]
        return row

    def add_row(self, row: list[int]) -> bool:
        """Add an integer row; returns True iff the rank grew."""
        if len(row) != self.dimension:
            raise InputError(
                f"row: expected {self.dimension} coordinates, got {len(row)}"
            )
        row = self.image(row)
        for pivot, x in enumerate(row):
            if x:
                self.rows.append((pivot, primitive_row(row)))
                return True
        return False

    def rollback(self, rank: int) -> None:
        del self.rows[rank:]


def _span(dimension: int, rows) -> IncrementalSpan:
    """The span of integer rows of the given dimension."""
    span = IncrementalSpan(dimension)
    for row in rows:
        span.add_row(row)
    return span


def rank(vectors) -> int:
    """Dimension of the linear span, by fraction-free elimination."""
    _, rows = lattice(vectors)
    return _span(len(rows[0]), rows).rank if rows else 0
