"""Point configurations, projection kernels, and the per-kernel check.

A Subspace plays the role of a projection kernel H: projecting onto its
orthogonal complement collapses two points into the same fiber exactly when
their difference lies in H. The per-kernel check asks, with k = dim H, that
every non-degenerate fiber has at most k+1 affinely independent points and
that the fiber sizes do not overshoot k in total.

A Configuration holds its points and a Subspace its generators on the
integer lattice, as linalg._LatticeRecord subclasses: read by linalg.lattice
from cells, or built by _on_lattice from integer rows, the generators' points
and a certificate's difference_basis. JSON cells and rational rows come from
those rows. difference_basis picks the independent in-group differences for
the certificate, the oracle and check; fibers groups points by kernel
membership of their differences. Projections themselves are never formed
here: the rational reference that forms them is in genpos.selftest.
"""

from __future__ import annotations

import math

from .errors import InputError
from .linalg import (
    IncrementalSpan,
    Vector,
    _LatticeRecord,
    _Record,
    _span,
    fractions,
    integer,
    lattice,
    primitive_row,
    vector_sub,
)

Point = Vector
FiberPartition = tuple[tuple[int, ...], ...]


class Configuration(_LatticeRecord):
    """A finite list of pairwise-distinct labeled points in Q^N.

    The points are held on the integer lattice: integer_points are the
    points scaled by `denominator`, the lcm of all coordinate denominators,
    and the constructor builds them from the cells with no rational row. Every
    rank question about the points is answered on the lattice, since a
    common positive scale changes no rank and no span membership of point
    differences. `points`, the rational coordinates, is derived from the
    lattice on first read. Instances are immutable; two are equal iff their
    dimensions, points and labels are.
    """

    __slots__ = ("dimension", "denominator", "integer_points", "labels", "_points")
    _shown = ("dimension", "points", "labels")

    def __init__(self, dimension: int, points, labels=None):
        integer(dimension, "dimension", 1)
        den, rows = lattice(points, "points", dimension)
        if not rows:
            raise InputError("points: configuration must contain at least one point")
        if len(set(rows)) < len(rows):
            seen: dict[tuple[int, ...], int] = {}
            for i, row in enumerate(rows):
                j = seen.setdefault(row, i)
                if j != i:
                    raise InputError(f"points: duplicate point at indices {j} and {i}")
        if labels is not None:
            if not isinstance(labels, (list, tuple)) or not all(
                isinstance(x, str) for x in labels
            ):
                raise InputError("labels: expected a list of strings")
            labels = tuple(labels)
            if len(labels) != len(rows):
                raise InputError(
                    f"labels: expected {len(rows)} entries, got {len(labels)}"
                )
        self._fill(dimension, den, rows, labels)

    def _fill(self, dimension, denominator, rows, labels=None):
        super().__init__(dimension, denominator, rows, labels, None)

    def _key(self):
        return self.dimension, self.denominator, self.integer_points, self.labels

    @property
    def points(self) -> tuple[Point, ...]:
        """The points as tuples of rationals, built from the lattice once."""
        if self._points is None:
            object.__setattr__(
                self, "_points", fractions(self.denominator, self.integer_points)
            )
        return self._points

    def __len__(self) -> int:
        return len(self.integer_points)


class Subspace(_LatticeRecord):
    """A proper non-zero linear subspace of Q^N given by rational generators.

    Generators may be redundant; dim is always the computed rank. The cells
    are read once, by lattice, into integer_generators over `denominator`,
    and dim comes from those rows; `generators`, the rational rows, are
    built from them on each read. Two subspaces are equal iff their ambient
    dimensions and generators are. A certificate builds its witness with
    _on_lattice from the configuration's denominator and integer rows.
    """

    __slots__ = ("ambient_dimension", "denominator", "integer_generators", "dim")
    _shown = ("ambient_dimension", "generators", "dim")

    def __init__(self, ambient_dimension: int, generators):
        integer(ambient_dimension, "ambient_dimension", 1)
        den, rows = lattice(generators, "generators", ambient_dimension)
        self._fill(ambient_dimension, den, rows)
        if self.dim == 0:
            raise InputError("generators: subspace must have positive dimension")
        if self.dim >= ambient_dimension:
            raise InputError(
                f"generators: subspace of dimension {self.dim} is not proper in "
                f"dimension {ambient_dimension}"
            )

    def _fill(self, ambient_dimension, denominator, rows):
        dim = _span(ambient_dimension, rows).rank
        super().__init__(ambient_dimension, denominator, rows, dim)

    def _key(self):
        return self.ambient_dimension, self.denominator, self.integer_generators

    @property
    def generators(self) -> tuple[Vector, ...]:
        return fractions(self.denominator, self.integer_generators)


class FiberReport(_Record):
    """Checks for one non-degenerate fiber: indices (tuple of int), size_ok
    and affinely_independent (bool)."""

    __slots__ = ("indices", "size_ok", "affinely_independent")


class SubspaceCheck(_Record):
    """Outcome of the per-kernel general position check: k, the fibers
    (FiberPartition), the nondegenerate ones' FiberReports, excess_sum,
    sum_ok, passed, and the violations as strings."""

    __slots__ = (
        "k", "fibers", "nondegenerate", "excess_sum", "sum_ok", "passed", "violations"
    )


def _integer_row(vector: Vector) -> list[int]:
    """Clear denominators and divide by the gcd; spans are unchanged."""
    den = 1
    for c in vector:
        den = math.lcm(den, c.denominator)
    return primitive_row([c.numerator * (den // c.denominator) for c in vector])


def difference_basis(points, groups) -> list[list[int]]:
    """The in-group differences of integer points, base point to every other
    member, that are independent of the differences before them: a basis of
    their span, so its length is their rank."""
    span = IncrementalSpan(len(points[0]))
    basis = []
    for g in groups:
        base = points[g[0]]
        for m in g[1:]:
            row = [x - y for x, y in zip(points[m], base)]
            if span.add_row(row):
                basis.append(row)
    return basis


def fibers(config: Configuration, kernel: Subspace) -> FiberPartition:
    """Partition point indices into projection fibers.

    Two indices share a class iff the difference of their points lies in the
    kernel; no projections are formed. Classes are listed by smallest member,
    members ascending.
    """
    if kernel.ambient_dimension != config.dimension:
        raise InputError(
            f"kernel ambient dimension {kernel.ambient_dimension} does not "
            f"match configuration dimension {config.dimension}"
        )
    span = _span(kernel.ambient_dimension, kernel.integer_generators)
    classes: list[list[int]] = []
    reps: list[Point] = []
    for i, p in enumerate(config.points):
        for ci, rep in enumerate(reps):
            if not any(span.image(_integer_row(vector_sub(p, rep)))):
                classes[ci].append(i)
                break
        else:
            classes.append([i])
            reps.append(p)
    return tuple(tuple(c) for c in classes)


def check_general_position(config: Configuration, kernel: Subspace) -> SubspaceCheck:
    """Check general position with respect to one projection kernel.

    With k = dim(kernel), the conditions are: every non-degenerate fiber has
    at most k+1 points, each such fiber is affinely independent, and the
    fiber size excesses sum to at most k.
    """
    partition = fibers(config, kernel)
    k = kernel.dim
    reports: list[FiberReport] = []
    violations: list[str] = []
    excess = 0
    for cls in partition:
        size = len(cls)
        if size < 2:
            continue
        excess += size - 1
        size_ok = size <= k + 1
        r = len(difference_basis(config.integer_points, (cls,)))
        independent = r == size - 1
        reports.append(FiberReport(tuple(cls), size_ok, independent))
        if not size_ok:
            violations.append(f"fiber size {size} exceeds k+1={k + 1}")
        if not independent:
            violations.append(
                f"fiber {list(cls)} is affinely dependent (rank {r} < {size - 1})"
            )
    sum_ok = excess <= k
    if not sum_ok:
        violations.append(
            f"sum of (|fiber|-1) over non-degenerate fibers = {excess} "
            f"exceeds k={k}"
        )
    return SubspaceCheck(
        k, partition, tuple(reports), excess, sum_ok, not violations, tuple(violations)
    )


def configuration_from_json(obj) -> Configuration:
    """Build a Configuration from its JSON form, naming bad fields."""
    if not isinstance(obj, dict):
        raise InputError("configuration: expected a JSON object")
    if "dimension" not in obj:
        raise InputError("dimension: missing")
    return Configuration(obj["dimension"], obj.get("points"), obj.get("labels"))


def _cells(denominator: int, rows) -> list[list[str]]:
    """The JSON cells of integer rows over one positive denominator, each
    x / denominator in lowest terms with one gcd, written as "p/q", or "p"
    where q is 1: the string form of the rational."""

    def cell(x: int) -> str:
        g = math.gcd(x, denominator)
        return str(x // g) if g == denominator else f"{x // g}/{denominator // g}"

    return [[cell(x) for x in row] for row in rows]


def configuration_to_json(config: Configuration) -> dict:
    points = _cells(config.denominator, config.integer_points)
    out = {"dimension": config.dimension, "points": points}
    if config.labels is not None:
        out["labels"] = list(config.labels)
    return out


def subspace_from_json(obj) -> Subspace:
    """Build a Subspace from its JSON form, naming bad fields."""
    if not isinstance(obj, dict):
        raise InputError("subspace: expected a JSON object")
    if "ambient_dimension" not in obj:
        raise InputError("ambient_dimension: missing")
    return Subspace(obj["ambient_dimension"], obj.get("generators"))


def subspace_to_json(kernel: Subspace) -> dict:
    return {
        "ambient_dimension": kernel.ambient_dimension,
        "generators": _cells(kernel.denominator, kernel.integer_generators),
    }


def subspace_check_to_json(report: SubspaceCheck) -> dict:
    return {
        "pass": report.passed,
        "k": report.k,
        "fibers": [list(c) for c in report.fibers],
        "nondegenerate_fibers": [
            {
                "indices": list(f.indices),
                "size": len(f.indices),
                "size_ok": f.size_ok,
                "affinely_independent": f.affinely_independent,
            }
            for f in report.nondegenerate
        ],
        "excess_sum": report.excess_sum,
        "sum_ok": report.sum_ok,
        "violations": list(report.violations),
    }
