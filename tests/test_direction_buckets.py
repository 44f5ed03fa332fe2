"""The k = 1 direction buckets against the depth-first search.

decide_all_projections answers the two k = 1 patterns, a collinear triple
(3,) and two disjoint parallel chords (2, 2), by bucketing sign-normalised
primitive difference directions. The depth-first search `_first_violation`
stays the reference: on every corpus below, the verdict and certificate JSON
must equal, byte for byte, those of the engine run with the search on every
pattern. The corpora reach n = 128 in the plane, where the reference search
is slow only on generic inputs, so those are few and small. classical_general_position
takes its collinear triples from the same buckets and is compared with a
brute-force subset scan.
"""

import json
from fractions import Fraction
from itertools import combinations

import pytest

from genpos import (
    Configuration,
    SplitMix64,
    cantor_graph_stage,
    classical_general_position,
    decide_all_projections,
    iterate_system,
    perturb_to_generic,
    product_cantor_system,
    random_configuration,
    rank,
    vector_sub,
    verdict_to_json,
)
from genpos.genericity import (
    Verdict,
    _build_certificate,
    _DifferenceRows,
    _engine_patterns,
    _first_violation,
)
from genpos.selftest import grid_configuration
from test_acceptance import _equivalence_corpus, _minimality_corpus
from test_integer_core import CORPUS as INTEGER_CORE_CORPUS

F = Fraction


def _reference_verdict(config):
    """decide_all_projections with the depth-first search on every pattern."""
    if config.dimension == 1 or len(config.points) == 1:
        return Verdict(True)
    table = _DifferenceRows(config)
    for pattern in _engine_patterns(config):
        groups = _first_violation(config, pattern, table)
        if groups is not None:
            return Verdict(False, _build_certificate(config, groups))
    return Verdict(True)


def _verdict_json(verdict):
    return json.dumps(verdict_to_json(verdict), sort_keys=True)


def _mismatches(corpus):
    """Indices where the engine and the reference differ in any byte."""
    return [
        i
        for i, config in enumerate(corpus)
        if _verdict_json(decide_all_projections(config))
        != _verdict_json(_reference_verdict(config))
    ]


def _affine_image(rng, config):
    """Image under x -> Ax + t, A invertible with small rational entries.

    Collinearity and parallelism are affine invariants, so the shape keeps
    its verdict while every direction changes.
    """
    dim = config.dimension
    while True:
        matrix = [
            [F(rng.below(9) - 4, 1 + rng.below(3)) for _ in range(dim)]
            for _ in range(dim)
        ]
        if rank(matrix) == dim:
            break
    shift = [F(rng.below(19) - 9, 1 + rng.below(7)) for _ in range(dim)]
    return Configuration(
        dim,
        tuple(
            tuple(sum(a * x for a, x in zip(row, p)) + t for row, t in zip(matrix, shift))
            for p in config.points
        ),
    )


def _small_denominator_set(rng, count):
    """Plane points whose coordinates have denominators 3..20."""
    chosen = set()
    while len(chosen) < count:
        chosen.add(tuple(F(rng.below(61) - 30, 3 + rng.below(18)) for _ in range(2)))
    return Configuration(2, tuple(sorted(chosen)))


def _planted(rng, config, collinear):
    """Insert one point collinear with two others, or closing a parallel
    chord with them, at a random position; the chord's first point is one
    of the first four, so the reference search reaches it early."""
    points = list(config.points)
    n = len(points)
    a = rng.below(4)
    b = 4 + rng.below(n - 4)
    t = F(1 + rng.below(3), 2 + rng.below(4))
    others = [i for i in range(n) if i not in (a, b)]
    base = points[a] if collinear else points[others[rng.below(n - 2)]]
    step = vector_sub(points[b], points[a])
    points.insert(rng.below(n + 1), tuple(x + t * d for x, d in zip(base, step)))
    return Configuration(config.dimension, tuple(points))


def _large_planar_corpus():
    rng = SplitMix64(6464)
    shapes = []
    for _ in range(8):
        shapes.append(_small_denominator_set(rng, 30 + rng.below(35)))
    for _ in range(6):
        shapes.append(grid_configuration(rng, 30 + rng.below(35), 2, 7 + rng.below(5)))
    shapes += [cantor_graph_stage(stage) for stage in range(3, 7)]
    origin = Configuration(2, ((0, 0),))
    seeds = Configuration(2, ((0, 0), (F(1, 5), F(1, 7))))
    for stage in (1, 2, 3):
        shapes.append(iterate_system(product_cantor_system(2), stage, origin))
    shapes.append(iterate_system(product_cantor_system(2), 2, seeds))
    for i in range(8):
        generic = random_configuration(29 + rng.below(20), 2, 10**6, 100 + i)
        shapes.append(_planted(rng, generic, collinear=i % 2 == 0))
    shapes += [random_configuration(30, 2, 10**6, seed) for seed in (1, 2)]
    return [_affine_image(rng, shape) for shape in shapes]


def _perturbed_corpus():
    rng = SplitMix64(5150)
    out = []
    for i in range(30):
        dim = 2 + i % 2
        count = 4 + rng.below(6) if dim == 3 else 6 + rng.below(15)
        grid = grid_configuration(rng, count, dim, 4)
        out.append(perturb_to_generic(grid, F(1, 50), seed=i))
    return out


def _spatial_planted_corpus():
    rng = SplitMix64(3434)
    out = []
    for i in range(40):
        dim = 3 + i % 2
        generic = random_configuration(8 + rng.below(9), dim, 10**6, 200 + i)
        out.append(_affine_image(rng, _planted(rng, generic, collinear=i % 4 < 2)))
    return out


CORPORA = {
    "acceptance-equivalence": _equivalence_corpus,
    "acceptance-minimality": _minimality_corpus,
    "integer-core": lambda: INTEGER_CORE_CORPUS,
    "large-planar": _large_planar_corpus,
    "perturbed": _perturbed_corpus,
    "spatial-planted": _spatial_planted_corpus,
}


@pytest.mark.parametrize("name", list(CORPORA))
def test_buckets_match_search_byte_for_byte(name):
    corpus = CORPORA[name]()
    assert _mismatches(corpus) == []


def test_corpora_reach_both_k1_patterns():
    """Together the new corpora hit (3,), (2, 2) and generic verdicts."""
    seen = set()
    for name in ("large-planar", "spatial-planted", "perturbed"):
        for config in CORPORA[name]():
            verdict = decide_all_projections(config)
            seen.add(None if verdict.generic else verdict.certificate.pattern.sizes)
    assert {None, (3,), (2, 2)} <= seen


def test_triple_is_smallest_bucket_minimum_not_first_collision():
    # From base 0 the buckets are {5, 6} and {3, 9}; 6 collides before 9,
    # but (3, 9) is lexicographically first. 9 lies on the far side of 0.
    points = ((0, 0), (1, 7), (5, -3), (1, 2), (-7, 2), (3, 1), (6, 2),
              (11, 5), (-4, 9), (-2, -4))
    config = Configuration(2, points)
    verdict = decide_all_projections(config)
    assert verdict.certificate.groups == ((0, 3, 9),)
    assert _verdict_json(verdict) == _verdict_json(_reference_verdict(config))


def test_chords_are_smallest_bucket_minimum_not_first_collision():
    # (1, 2) meets (0, 5) before (4, 7) meets (0, 3), but (0, 3) < (0, 5).
    points = ((0, 0), (2, 5), (22, 7), (1, 3), (7, 11), (10, 1), (13, -6),
              (9, 17))
    config = Configuration(2, points)
    verdict = decide_all_projections(config)
    assert verdict.certificate.groups == ((0, 3), (4, 7))
    assert _verdict_json(verdict) == _verdict_json(_reference_verdict(config))


def test_sixty_four_random_points_generic():
    assert decide_all_projections(random_configuration(64, 2, 10**6, 1)).generic


def _classical_reference(config):
    """Lexicographically first smallest affinely dependent subset, by brute
    force over every subset of 3..N+1 points."""
    n = len(config.points)
    for size in range(3, min(n, config.dimension + 1) + 1):
        for subset in combinations(range(n), size):
            base = config.points[subset[0]]
            diffs = [vector_sub(config.points[i], base) for i in subset[1:]]
            if rank(diffs) < size - 1:
                return subset
    return None


def _classical_corpus():
    rng = SplitMix64(2718)
    out = []
    for i in range(40):
        dim = 2 + i % 2
        out.append(grid_configuration(rng, 4 + rng.below(6), dim, 2 + rng.below(4)))
    out += [cantor_graph_stage(stage) for stage in range(2, 6)]
    for i in range(20):
        dim = 2 + i % 2
        points = set()
        while len(points) < 5 + rng.below(5):
            points.add(tuple(F(rng.below(13) - 6, 3 + rng.below(4)) for _ in range(dim)))
        out.append(Configuration(dim, tuple(sorted(points))))
    out += [random_configuration(7, 3, 10**6, seed) for seed in (1, 2)]
    return out


def test_classical_witness_matches_brute_force():
    corpus = _classical_corpus()
    found = set()
    for config in corpus:
        report = classical_general_position(config)
        expected = _classical_reference(config)
        assert report.witness == expected
        assert report.in_general_position == (expected is None)
        found.add(None if expected is None else len(expected))
    assert {None, 3, 4} <= found
