"""Exact linear algebra over the rationals.

Nothing is ever rounded. rational_pair is the one definition of an input
cell, read as a reduced (numerator, denominator) pair, _checked_rows the one
check of a list of rows, naming the bad field, and integer the one check of
an integer argument. Rows reach the program along one of two routes:
rational_rows turns them into tuples of fractions.Fraction, and lattice
scales them by the lcm of their denominators onto integer rows without
building a Fraction, which is how a Configuration holds its points. Rank and
span membership are computed by IncrementalSpan on integer rows only;
rational vectors reach it through lattice. All elimination is there, in one
method: image, fraction-free integer elimination without division, maps a
row linearly onto the quotient by the span, so its kernel is exactly the
span. It reduces each added row, and the differences of point images key
directions in the decide search. Determinants use the Bareiss pivoting
scheme; Gram matrices give an independent route to linear independence,
kept separate so the two can cross-check each other.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import InputError

Rational = Fraction
Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


def _excerpt(text: str, limit: int = 40) -> str:
    """repr of a string, shortened so diagnostics stay one readable line."""
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"


def rational_pair(value) -> tuple[int, int]:
    """The reduced numerator and positive denominator of a rational cell.

    This is the one definition of the accepted cells: an int (not a bool), a
    Fraction, or a "p" or "p/q" string with an optional sign and surrounding
    whitespace. Floats are refused as inexact, and so is a string of more
    digits than Python converts to an int.
    """
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.fullmatch(text):
            raise InputError(
                f'not a rational: {_excerpt(value)} (expected "p/q" or "p")'
            )
        num, _, den = text.partition("/")
        try:
            p = int(num)
            q = int(den) if den else 1
        except ValueError as exc:  # Python's limit on int-string digits
            raise InputError(f"not a rational: {_excerpt(value)}: {exc}") from None
        g = math.gcd(p, q)
        return (p, q) if g == 1 else (p // g, q // g)
    if isinstance(value, float):
        raise InputError(
            f'floating point value {value!r} is not exact; pass "p/q" strings'
        )
    raise InputError(f"not a rational: {value!r}")


def integer(value, name: str, minimum: int | None = None) -> int:
    """The value if it is an int, not a bool, and at least minimum.

    This is the one check of an integer argument; anything else raises an
    InputError naming the argument.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        if minimum is None or value >= minimum:
            return value
    bound = "" if minimum is None else f" >= {minimum}"
    raise InputError(f"{name}: must be an integer{bound}")


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*rational_pair(value))


def _checked_rows(rows, name: str, dimension: int | None, cell) -> tuple:
    """Rows of cell(c) for every cell c, with the checks of rational_rows."""
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise InputError(f"{name}[{i}]: expected a list of rationals")
        vector = []
        for j, c in enumerate(row):
            try:
                vector.append(cell(c))
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
        out.append(tuple(vector))
    return tuple(out)


def rational_rows(rows, name: str, dimension: int | None = None) -> Matrix:
    """Check and convert rows of rational-like cells, naming the bad field.

    Each row must be a list or tuple of dimension cells, each accepted by
    rational_pair; without a dimension, the first row's length is the one
    every row must have. Errors read name[i] or name[i][j].
    """
    return _checked_rows(rows, name, dimension, as_rational)


def lattice(
    rows, name: str = "vectors", dimension: int | None = None
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The lcm of all denominators, and the rows scaled by it to integers.

    The rows are checked as rational_rows checks them, but no Fraction is
    built: each cell is read once as a reduced pair. A common positive scale
    changes no rank, no span membership and no determinant's sign, so rank
    questions are answered on the integer rows, and the lcm of reduced
    denominators makes the scaled rows unique to the rational ones.
    """
    pairs = _checked_rows(rows, name, dimension, rational_pair)
    den = math.lcm(*{q for row in pairs for _, q in row})
    return den, tuple(tuple(p * (den // q) for p, q in row) for row in pairs)


def vector_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def distance_sq(a: Vector, b: Vector) -> Fraction:
    d = vector_sub(a, b)
    return dot(d, d)


def gram_matrix(vectors) -> Matrix:
    """Square matrix of pairwise inner products, exact."""
    vecs = rational_rows(vectors, "vectors")
    return tuple(tuple(dot(u, w) for w in vecs) for u in vecs)


def gram_determinant(vectors) -> Fraction:
    """Determinant of the Gram matrix; zero iff the vectors are dependent."""
    return _bareiss_determinant(gram_matrix(vectors))


def _bareiss_determinant(matrix: Matrix) -> Fraction:
    """Exact determinant via fraction-free Bareiss elimination."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    den, rows = lattice(matrix)
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            pivot = next((r for r in range(i + 1, n) if a[r][i] != 0), None)
            if pivot is None:
                return Fraction(0)
            a[i], a[pivot] = a[pivot], a[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return Fraction(sign * a[n - 1][n - 1], den**n)


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
    search snapshots with mark(), the row count, and restores with
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

    def mark(self) -> int:
        return len(self.rows)

    def rollback(self, mark: int) -> None:
        del self.rows[mark:]


def rank(vectors) -> int:
    """Dimension of the linear span, by fraction-free elimination."""
    _, rows = lattice(vectors)
    if not rows:
        return 0
    span = IncrementalSpan(len(rows[0]))
    for row in rows:
        span.add_row(row)
    return span.rank


def solve_linear_system(rows, rhs) -> list[Fraction] | None:
    """One exact solution of A x = b, or None if the system is inconsistent.

    Free variables are set to zero, so rank-deficient but consistent systems
    still produce a solution.
    """
    matrix = [list(r) for r in rational_rows(rows, "rows")]
    b = [as_rational(x) for x in rhs]
    m = len(matrix)
    if m != len(b):
        raise InputError(f"matrix has {m} rows but right side has {len(b)} entries")
    if m == 0:
        return []
    width = len(matrix[0])
    aug = [row + [val] for row, val in zip(matrix, b)]
    pivot_cols: list[int] = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][width] != 0:
            return None
    solution = [Fraction(0)] * width
    for i, c in enumerate(pivot_cols):
        solution[c] = aug[i][width]
    return solution
