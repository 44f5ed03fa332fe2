"""Built-in verification battery: oracle agreement and core properties.

Each criterion is defined once, as a `check_*` function that takes its
corpus and returns a CheckResult. The CLI `selftest` command runs them on the
seeded corpora below and reports pass/fail counts; the test suite calls the
same functions on its own seeded corpora, so two runs produce identical
results.

The module also holds the Fraction reference arithmetic that the checks and
the tests compare the integer-lattice program against: Gram matrices and
their determinants, exact linear solves, projection onto a kernel's
orthogonal complement and the squared triangle inequality. It has one
elimination, _row_reduce, Gauss-Jordan with Fraction division, kept apart
from IncrementalSpan's fraction-free integer elimination so that each checks
the other. No command but selftest imports this module.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .generators import (
    SplitMix64,
    _distinct_draws,
    cantor_graph_stage,
    perturb_to_generic,
)
from .genericity import (
    decide_all_projections,
    decide_all_projections_oracle,
    classical_general_position,
)
from .geometry import (
    Configuration,
    Point,
    Subspace,
    check_general_position,
    fibers,
)
from .linalg import Matrix, _Record, as_rational, dot, fractions, lattice, rank
from .metric import hausdorff_sq


def grid_configuration(
    rng: SplitMix64, count: int, dimension: int, top: int
) -> Configuration:
    """Random configuration with integer coordinates in 0..top, distinct."""
    return Configuration(dimension, _distinct_draws(rng, count, dimension, top))


def random_subspace(rng: SplitMix64, dimension: int, k: int) -> Subspace:
    """Random k-dimensional kernel with small integer generators."""
    while True:
        gens = tuple(
            tuple(Fraction(rng.below(19)) - 9 for _ in range(dimension))
            for _ in range(k)
        )
        if rank(gens) == k:
            return Subspace(dimension, gens)


def random_vectors(rng: SplitMix64, count: int, dimension: int):
    return [
        tuple(
            Fraction(rng.below(19) - 9, rng.below(9) + 1) for _ in range(dimension)
        )
        for _ in range(count)
    ]


def rational_rows(rows, name: str, dimension: int | None = None) -> Matrix:
    """The rows as tuples of Fraction, read and checked by lattice."""
    return fractions(*lattice(rows, name, dimension))


def gram_matrix(vectors) -> Matrix:
    """Square matrix of pairwise inner products, exact."""
    vecs = rational_rows(vectors, "vectors")
    return tuple(tuple(dot(u, w) for w in vecs) for u in vecs)


def gram_determinant(vectors) -> Fraction:
    """Determinant of the Gram matrix; zero iff the vectors are dependent."""
    gram = gram_matrix(vectors)
    _, pivot_cols, det = _row_reduce(gram)
    return det if len(pivot_cols) == len(gram) else Fraction(0)


def _row_reduce(rows) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Gauss-Jordan elimination of Fraction rows, with Fraction division.

    Returns the reduced rows, the pivot columns, and the product of the
    pivots negated once per row swap: the determinant of a square matrix
    whose every column has a pivot. The argument is not changed.
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    pivot_cols: list[int] = []
    det = Fraction(1)
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            det = -det
        pv = rows[r][c]
        det *= pv
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    return rows, pivot_cols, det


def solve_linear_system(rows, rhs) -> list[Fraction] | None:
    """One exact solution of A x = b, or None if the system is inconsistent.

    Free variables are set to zero, so rank-deficient but consistent systems
    still produce a solution. rhs is checked as one row of rational cells,
    one per row of the matrix. The system is inconsistent iff the augmented
    column gets a pivot.
    """
    matrix = rational_rows(rows, "rows")
    m = len(matrix)
    (b,) = rational_rows((rhs,), "rhs", m)
    if m == 0:
        return []
    width = len(matrix[0])
    aug, pivot_cols, _ = _row_reduce(row + (val,) for row, val in zip(matrix, b))
    if width in pivot_cols:
        return None
    solution = [Fraction(0)] * width
    for i, c in enumerate(pivot_cols):
        solution[c] = aug[i][width]
    return solution


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


def squared_triangle_inequality(d_ab_sq, d_bc_sq, d_ac_sq) -> bool:
    """Decide d(A,C) <= d(A,B) + d(B,C) given only the squared distances.

    With x = d_ac^2 - d_ab^2 - d_bc^2 the inequality is equivalent to
    x <= 0 or x^2 <= 4 * d_ab^2 * d_bc^2, which is exact on rationals.
    """
    ab = as_rational(d_ab_sq)
    bc = as_rational(d_bc_sq)
    ac = as_rational(d_ac_sq)
    if min(ab, bc, ac) < 0:
        raise InputError("squared distances must be nonnegative")
    x = ac - ab - bc
    if x <= 0:
        return True
    return x * x <= 4 * ab * bc


class CheckResult(_Record):
    """One check's name, whether it passed, and its detail line."""

    __slots__ = ("name", "passed", "detail")


TRIANGLE = Configuration(2, ((0, 0), (1, 0), (0, 1)))
SQUARE = Configuration(2, ((0, 0), (0, 1), (1, 0), (1, 1)))
COLLINEAR3 = Configuration(2, ((0, 0), (1, 0), (2, 0)))


def grid_corpus(
    seed: int, samples: int, points: range, shapes: tuple[tuple[int, int], ...]
) -> list[Configuration]:
    """Seeded grid configurations; sample i draws its point count from
    `points` and takes (dimension, top) from `shapes` in turn."""
    rng = SplitMix64(seed)
    out = []
    for i in range(samples):
        dim, top = shapes[i % len(shapes)]
        count = points.start + rng.below(len(points))
        out.append(grid_configuration(rng, count, dim, top))
    return out


def check_fixtures() -> CheckResult:
    ok = decide_all_projections(TRIANGLE).generic
    v = decide_all_projections(SQUARE)
    ok = ok and not v.generic and v.certificate.groups == ((0, 1), (2, 3))
    ok = ok and v.certificate.witness.generators == ((Fraction(0), Fraction(1)),)
    v = decide_all_projections(COLLINEAR3)
    ok = ok and not v.generic and v.certificate.groups == ((0, 1, 2),)
    v = decide_all_projections(cantor_graph_stage(1))
    # parallel chords: two pairs whose difference vectors agree
    ok = ok and not v.generic and v.certificate.pattern.sizes == (2, 2)
    ok = ok and v.certificate.witness.dim == 1
    report = check_general_position(cantor_graph_stage(2), Subspace(2, ((1, 0),)))
    ok = ok and len(report.nondegenerate) == 3 and report.excess_sum == 3
    ok = ok and report.k == 1 and not report.sum_ok and not report.passed
    return CheckResult("golden fixtures", ok, "triangle/square/collinear/cantor")


def check_oracle_agreement(configs: list[Configuration]) -> CheckResult:
    """The engine and the brute-force oracle give equal verdicts and certificates."""
    agree = sum(
        decide_all_projections(c) == decide_all_projections_oracle(c) for c in configs
    )
    return CheckResult(
        "oracle agreement", agree == len(configs), f"{agree}/{len(configs)} agree"
    )


def check_minimal_patterns_suffice(configs: list[Configuration]) -> CheckResult:
    agree = sum(
        decide_all_projections(c).generic
        == decide_all_projections_oracle(c, minimal_only=False).generic
        for c in configs
    )
    return CheckResult(
        "minimal patterns suffice",
        agree == len(configs),
        f"{agree}/{len(configs)} agree with exhaustive enumeration",
    )


def check_gram_vs_rank(vector_lists) -> CheckResult:
    """Each Gram determinant is non-zero iff its vectors are independent,
    grows 4 times with the first vector doubled, and stays with the vectors
    reversed: the zero test alone would pass a determinant that lost its
    pivot factors."""
    vector_lists = list(vector_lists)
    agree = 0
    for v in vector_lists:
        det = gram_determinant(v)
        agree += (
            (det != 0) == (rank(v) == len(v))
            and gram_determinant([tuple(2 * x for x in v[0]), *v[1:]]) == 4 * det
            and gram_determinant(v[::-1]) == det
        )
    return CheckResult(
        "gram determinant vs rank",
        agree == len(vector_lists),
        f"{agree}/{len(vector_lists)}",
    )


def check_certificate_soundness(decided, min_violations: int = 1) -> CheckResult:
    """Every certificate among the (configuration, verdict) pairs fails the
    single-kernel check on its witness, and at least min_violations exist."""
    violations = 0
    unsound = 0
    for config, verdict in decided:
        if verdict.generic:
            continue
        violations += 1
        if check_general_position(config, verdict.certificate.witness).passed:
            unsound += 1
    return CheckResult(
        "certificate soundness",
        unsound == 0 and violations >= min_violations,
        f"{violations} violations, {unsound} unsound witnesses",
    )


def check_generic_implies_classical(configs: list[Configuration]) -> CheckResult:
    failures = sum(
        1
        for c in configs
        if decide_all_projections(c).generic
        and not classical_general_position(c).in_general_position
    )
    return CheckResult(
        "generic implies classical general position", failures == 0, f"{failures} failures"
    )


def check_fiber_partitions(cases) -> CheckResult:
    """fibers() on (configuration, kernel) pairs groups exactly the points
    with equal projection images."""
    failures = 0
    for config, kernel in cases:
        partition = fibers(config, kernel)
        covered = sorted(i for cls in partition for i in cls)
        if covered != list(range(len(config.points))):
            failures += 1
            continue
        images = [project_onto_complement(p, kernel) for p in config.points]
        for cls in partition:
            if any(images[i] != images[cls[0]] for i in cls):
                failures += 1
                break
        else:
            for a in range(len(partition)):
                for b in range(a + 1, len(partition)):
                    if images[partition[a][0]] == images[partition[b][0]]:
                        failures += 1
    return CheckResult(
        "fiber partitions match projection images", failures == 0, f"{failures} failures"
    )


def check_metric(triples) -> CheckResult:
    failures = 0
    for a, b, c in triples:
        ab, ba = hausdorff_sq(a, b), hausdorff_sq(b, a)
        if ab != ba:
            failures += 1
        if (hausdorff_sq(a, a) != 0) or (
            (ab == 0) != (set(a.points) == set(b.points))
        ):
            failures += 1
        if not squared_triangle_inequality(ab, hausdorff_sq(b, c), hausdorff_sq(a, c)):
            failures += 1
    return CheckResult("hausdorff metric properties", failures == 0, f"{failures} failures")


def check_perturbation(config: Configuration, epsilon: Fraction, seeds) -> CheckResult:
    """Each seed perturbs the configuration to a generic one within epsilon."""
    failures = 0
    for seed in seeds:
        try:
            out = perturb_to_generic(config, epsilon, seed, max_attempts=5)
        except Exception:
            failures += 1
            continue
        if hausdorff_sq(config, out) > epsilon * epsilon:
            failures += 1
        if not decide_all_projections(out).generic:
            failures += 1
    return CheckResult("perturbation to generic", failures == 0, f"{failures} failures")


def _vector_corpus():
    rng = SplitMix64(7)
    for _ in range(200):
        dim = 1 + rng.below(5)
        count = 1 + rng.below(5)
        yield random_vectors(rng, count, dim)


def _fiber_corpus():
    rng = SplitMix64(404)
    for _ in range(50):
        dim = 2 + rng.below(2)
        config = grid_configuration(rng, 3 + rng.below(4), dim, 3)
        yield config, random_subspace(rng, dim, 1 + rng.below(dim - 1))


def _metric_corpus():
    rng = SplitMix64(11)
    for _ in range(100):
        dim = 2 + rng.below(2)
        yield tuple(grid_configuration(rng, 1 + rng.below(4), dim, 5) for _ in range(3))


def run_selftest() -> list[CheckResult]:
    """Run the whole battery and return one result per check."""
    soundness = grid_corpus(31337, 60, range(4, 7), ((2, 2), (3, 2)))
    return [
        check_fixtures(),
        check_oracle_agreement(grid_corpus(2024, 60, range(4, 7), ((2, 4), (3, 2)))),
        check_minimal_patterns_suffice(
            grid_corpus(99, 40, range(2, 7), ((2, 3), (3, 3)))
        ),
        check_gram_vs_rank(_vector_corpus()),
        check_certificate_soundness((c, decide_all_projections(c)) for c in soundness),
        check_generic_implies_classical(
            grid_corpus(555, 40, range(4, 7), ((2, 4), (3, 4)))
        ),
        check_fiber_partitions(_fiber_corpus()),
        check_metric(_metric_corpus()),
        check_perturbation(SQUARE, Fraction(1, 100), range(10)),
    ]
