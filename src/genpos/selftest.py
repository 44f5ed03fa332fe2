"""Built-in verification battery: oracle agreement and core properties.

Each criterion is defined once, as a `check_*` function that takes its
corpus and returns a CheckResult. The CLI `selftest` command runs them on the
seeded corpora below and reports pass/fail counts; the test suite calls the
same functions on its own seeded corpora, so two runs produce identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    Subspace,
    check_general_position,
    fibers,
    project_onto_complement,
)
from .linalg import gram_determinant, rank
from .metric import hausdorff_sq, squared_triangle_inequality


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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


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
    vector_lists = list(vector_lists)
    agree = sum(
        (gram_determinant(v) != 0) == (rank(v) == len(v)) for v in vector_lists
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
