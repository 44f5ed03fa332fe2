"""Point configurations, projection kernels, and the per-kernel check.

A Subspace plays the role of a projection kernel H: projecting onto its
orthogonal complement collapses two points into the same fiber exactly when
their difference lies in H. The per-kernel check asks, with k = dim H, that
every non-degenerate fiber has at most k+1 affinely independent points and
that the fiber sizes do not overshoot k in total.

A Configuration holds its points on the integer lattice built by
linalg.lattice, which the loader fills straight from the JSON cells; the
Fraction points are derived from it only when something reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError
from .linalg import (
    IncrementalSpan,
    Vector,
    dot,
    gram_matrix,
    integer,
    lattice,
    primitive_row,
    rank,
    rational_rows,
    solve_linear_system,
    vector_sub,
)

Point = Vector
FiberPartition = tuple[tuple[int, ...], ...]


class Configuration:
    """A finite list of pairwise-distinct labeled points in Q^N.

    The points are held on the integer lattice: integer_points are the
    points scaled by `denominator`, the lcm of all coordinate denominators,
    and the constructor builds them from the rows without a Fraction. Every
    rank question about the points is answered on the lattice, since a
    common positive scale changes no rank and no span membership of point
    differences. `points`, the rational coordinates, is derived from the
    lattice on first read. Instances are immutable; two are equal iff their
    dimensions, points and labels are.
    """

    __slots__ = ("dimension", "denominator", "integer_points", "labels", "_points")

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
            labels = tuple(str(x) for x in labels)
            if len(labels) != len(rows):
                raise InputError(
                    f"labels: expected {len(rows)} entries, got {len(labels)}"
                )
        init = object.__setattr__
        init(self, "dimension", dimension)
        init(self, "denominator", den)
        init(self, "integer_points", rows)
        init(self, "labels", labels)
        init(self, "_points", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"Configuration is immutable: cannot set {name!r}")

    def __reduce__(self):
        return Configuration, (self.dimension, self.points, self.labels)

    @property
    def points(self) -> tuple[Point, ...]:
        """The points as tuples of Fraction, built from the lattice once."""
        pts = self._points
        if pts is None:
            den = self.denominator
            pts = tuple(
                tuple(Fraction(x, den) for x in row) for row in self.integer_points
            )
            object.__setattr__(self, "_points", pts)
        return pts

    def _key(self):
        return self.dimension, self.denominator, self.integer_points, self.labels

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Configuration(dimension={self.dimension!r}, points={self.points!r}, "
            f"labels={self.labels!r})"
        )

    def __len__(self) -> int:
        return len(self.integer_points)


@dataclass(frozen=True)
class Subspace:
    """A proper non-zero linear subspace of Q^N given by rational generators.

    Generators may be redundant; dim is always the computed rank.
    """

    ambient_dimension: int
    generators: tuple[Vector, ...]
    dim: int = field(init=False)

    def __post_init__(self):
        integer(self.ambient_dimension, "ambient_dimension", 1)
        gens = rational_rows(self.generators, "generators", self.ambient_dimension)
        object.__setattr__(self, "generators", gens)
        k = rank(gens)
        if k == 0:
            raise InputError("generators: subspace must have positive dimension")
        if k >= self.ambient_dimension:
            raise InputError(
                f"generators: subspace of dimension {k} is not proper in "
                f"dimension {self.ambient_dimension}"
            )
        object.__setattr__(self, "dim", k)


@dataclass(frozen=True)
class FiberReport:
    """Checks for one non-degenerate fiber."""

    indices: tuple[int, ...]
    size_ok: bool
    affinely_independent: bool


@dataclass(frozen=True)
class SubspaceCheck:
    """Outcome of the per-kernel general position check."""

    k: int
    fibers: FiberPartition
    nondegenerate: tuple[FiberReport, ...]
    excess_sum: int
    sum_ok: bool
    passed: bool
    violations: tuple[str, ...]


def project_onto_complement(point, kernel: Subspace) -> Point:
    """Project a point onto the orthogonal complement of the kernel.

    The component inside the kernel is found exactly by solving the normal
    equations with the Gram matrix of the kernel's generators.
    """
    (p,) = rational_rows((point,), "point", kernel.ambient_dimension)
    gens = kernel.generators
    gram = gram_matrix(gens)
    rhs = [dot(g, p) for g in gens]
    coeffs = solve_linear_system(gram, rhs)
    # Always consistent: the right side lies in the Gram matrix's row space.
    assert coeffs is not None
    inside = tuple(
        sum((c * g[i] for c, g in zip(coeffs, gens)), Fraction(0))
        for i in range(len(p))
    )
    return tuple(x - y for x, y in zip(p, inside))


def _kernel_span(kernel: Subspace) -> IncrementalSpan:
    span = IncrementalSpan(kernel.ambient_dimension)
    _, rows = lattice(kernel.generators)
    for row in rows:
        span.add_row(row)
    return span


def _integer_row(vector: Vector) -> list[int]:
    """Clear denominators and divide by the gcd; spans are unchanged."""
    den = 1
    for c in vector:
        den = math.lcm(den, c.denominator)
    return primitive_row([c.numerator * (den // c.denominator) for c in vector])


def difference_rank(points, indices) -> int:
    """Rank of the differences from the first indexed point to the others.

    The points are integer rows, such as Configuration.integer_points.
    """
    base = points[indices[0]]
    span = IncrementalSpan(len(base))
    for i in indices[1:]:
        span.add_row([a - b for a, b in zip(points[i], base)])
    return span.rank


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
    span = _kernel_span(kernel)
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
        r = difference_rank(config.integer_points, cls)
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
        k=k,
        fibers=partition,
        nondegenerate=tuple(reports),
        excess_sum=excess,
        sum_ok=sum_ok,
        passed=not violations,
        violations=tuple(violations),
    )


def configuration_from_json(obj) -> Configuration:
    """Build a Configuration from its JSON form, naming bad fields."""
    if not isinstance(obj, dict):
        raise InputError("configuration: expected a JSON object")
    if "dimension" not in obj:
        raise InputError("dimension: missing")
    raw_points = obj.get("points")
    if not isinstance(raw_points, list):
        raise InputError("points: missing or not a list")
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise InputError("labels: expected a list of strings")
        labels = tuple(labels)
    return Configuration(obj["dimension"], raw_points, labels)


def configuration_to_json(config: Configuration) -> dict:
    out = {
        "dimension": config.dimension,
        "points": [[str(c) for c in p] for p in config.points],
    }
    if config.labels is not None:
        out["labels"] = list(config.labels)
    return out


def subspace_from_json(obj) -> Subspace:
    """Build a Subspace from its JSON form, naming bad fields."""
    if not isinstance(obj, dict):
        raise InputError("subspace: expected a JSON object")
    if "ambient_dimension" not in obj:
        raise InputError("ambient_dimension: missing")
    raw = obj.get("generators")
    if not isinstance(raw, list):
        raise InputError("generators: missing or not a list")
    return Subspace(obj["ambient_dimension"], raw)


def subspace_to_json(kernel: Subspace) -> dict:
    return {
        "ambient_dimension": kernel.ambient_dimension,
        "generators": [[str(c) for c in g] for g in kernel.generators],
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
