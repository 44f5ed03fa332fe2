"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. Every corpus is seeded, so reruns are bit-identical.
"""

import json
import time
from fractions import Fraction

from genpos import (
    SplitMix64,
    cantor_graph_stage,
    check_general_position,
    configuration_to_json,
    decide_all_projections,
    decide_all_projections_oracle,
    random_configuration,
    rank,
)
from genpos.cli import run
from genpos.selftest import (
    COLLINEAR3,
    SQUARE,
    TRIANGLE,
    check_certificate_soundness,
    check_fixtures,
    check_gram_vs_rank,
    check_minimal_patterns_suffice,
    check_oracle_agreement,
    check_perturbation,
    grid_configuration,
    grid_corpus,
    random_subspace,
    random_vectors,
)

F = Fraction


def _report(number, name, passed, detail):
    print(f"[acceptance] criterion {number} ({name}): "
          f"{'PASS' if passed else 'FAIL'} ({detail})")


def _require(number, name, result):
    _report(number, name, result.passed, result.detail)
    assert result.passed, result.detail


def _equivalence_corpus():
    """250 integer-grid configurations in each of {0..4}^2 and {0..2}^3."""
    return grid_corpus(101, 250, range(4, 7), ((2, 4),)) + grid_corpus(
        202, 250, range(4, 7), ((3, 2),)
    )


def _minimality_corpus():
    """200 configurations of 2..6 points in dimensions 2 and 3."""
    out = []
    rng = SplitMix64(303)
    for i in range(200):
        dim = 2 if i % 2 == 0 else 3
        out.append(grid_configuration(rng, 2 + rng.below(5), dim, 2 + rng.below(3)))
    return out


def test_criterion_1_oracle_equivalence():
    corpus = _equivalence_corpus()
    start = time.monotonic()
    result = check_oracle_agreement(corpus)
    elapsed = time.monotonic() - start
    _report(1, "oracle equivalence", result.passed and elapsed < 60.0,
            f"{result.detail} in {elapsed:.1f}s")
    assert result.passed, result.detail
    assert elapsed < 60.0


def test_criterion_2_minimality_validation():
    _require(2, "minimality validation",
             check_minimal_patterns_suffice(_minimality_corpus()))


def test_criterion_3_random_genericity():
    generic = 0
    for seed in range(100):
        config = random_configuration(8, 3, 10**6, seed)
        if decide_all_projections(config).generic:
            generic += 1
    passed = generic == 100
    _report(3, "random genericity", passed, f"{generic}/100 generic")
    assert generic == 100


def test_criterion_4_golden_fixtures():
    _require(4, "golden fixtures", check_fixtures())


def test_criterion_5_certificate_soundness():
    equivalence = _equivalence_corpus()
    random8 = [random_configuration(8, 3, 10**6, seed) for seed in range(100)]
    fixtures = [SQUARE, COLLINEAR3, cantor_graph_stage(1), cantor_graph_stage(2)]
    decided = [(c, decide_all_projections(c)) for c in equivalence + random8 + fixtures]
    decided += [(c, decide_all_projections_oracle(c)) for c in equivalence]
    decided += [
        (c, decide_all_projections_oracle(c, minimal_only=False))
        for c in _minimality_corpus()
    ]
    _require(5, "certificate soundness", check_certificate_soundness(decided))


def test_criterion_6_per_subspace_consistency():
    rng = SplitMix64(606)
    total = 0
    failed = 0
    for seed in range(20):
        config = random_configuration(8, 3, 10**6, seed + 1000)
        assert decide_all_projections(config).generic
        for k in (1, 2):
            for _ in range(100):
                kernel = random_subspace(rng, 3, k)
                total += 1
                if not check_general_position(config, kernel).passed:
                    failed += 1
    passed = failed == 0 and total == 20 * 2 * 100
    _report(6, "per-subspace consistency", passed,
            f"{total - failed}/{total} checks passed")
    assert failed == 0
    assert total == 4000


def test_criterion_7_perturbation():
    _require(7, "perturbation density probe",
             check_perturbation(SQUARE, F(1, 100), range(50)))


def test_criterion_8_linear_algebra_cross_check():
    rng = SplitMix64(808)
    vector_lists = []
    invariant_failures = 0
    for _ in range(1000):
        dim = 1 + rng.below(6)
        count = 1 + rng.below(6)
        vectors = random_vectors(rng, count, dim)
        vector_lists.append(vectors)
        base_rank = rank(vectors)
        # permutation
        shuffled = list(vectors)
        for i in range(len(shuffled) - 1, 0, -1):
            j = rng.below(i + 1)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        if rank(shuffled) != base_rank:
            invariant_failures += 1
        # nonzero scaling of one vector
        scale = F(rng.below(8) + 1, rng.below(8) + 1) * (1 if rng.below(2) else -1)
        scaled = list(vectors)
        pick = rng.below(len(vectors))
        scaled[pick] = tuple(scale * c for c in scaled[pick])
        if rank(scaled) != base_rank:
            invariant_failures += 1
        # appending a linear combination
        coeffs = [F(rng.below(7) - 3) for _ in vectors]
        combo = tuple(
            sum((c * v[j] for c, v in zip(coeffs, vectors)), F(0))
            for j in range(dim)
        )
        if rank(list(vectors) + [combo]) != base_rank:
            invariant_failures += 1
    gram = check_gram_vs_rank(vector_lists)
    passed = gram.passed and invariant_failures == 0
    _report(8, "linear-algebra cross-check", passed,
            f"{gram.detail} gram-rank agreements, {invariant_failures} invariant failures")
    assert gram.passed, gram.detail
    assert invariant_failures == 0


def test_criterion_9_run_determinism(tmp_path):
    fixtures = {
        "triangle": TRIANGLE,
        "square": SQUARE,
        "collinear3": COLLINEAR3,
        "cantor1": cantor_graph_stage(1),
        "cantor2": cantor_graph_stage(2),
    }
    identical = 0
    for name, config in fixtures.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(configuration_to_json(config)))
        first = run(["decide", "-c", str(path)])
        second = run(["decide", "-c", str(path)])
        if first.payload == second.payload and first.exit_code == second.exit_code:
            identical += 1
    passed = identical == len(fixtures)
    _report(9, "run determinism", passed,
            f"{identical}/{len(fixtures)} fixtures byte-identical")
    assert identical == len(fixtures)
