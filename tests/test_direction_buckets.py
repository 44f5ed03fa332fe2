"""The direction-bucket search against the full-depth search.

decide_all_projections places the first k - 1 difference vectors of a
family and finds the last two by bucketing their directions modulo the span
of the others, for every k; k = 1 is the empty prefix, a collinear triple
(3,) or two disjoint parallel chords (2, 2). The reference below is the
plain depth-first search over every vector, pruned only when the span grows
past k. On every corpus the verdict and certificate JSON of the engine must
equal, byte for byte, those of the reference run on every pattern. The
planar corpora reach n = 128, where the reference search is slow only on
generic inputs, so those are few and small. classical_general_position
takes its witnesses from the same search and is compared with a brute-force
subset scan.
"""

import json
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, count, permutations

import pytest

from genpos import (
    Configuration,
    DegeneracyPattern,
    SplitMix64,
    cantor_graph_stage,
    classical_general_position,
    decide_all_projections,
    iterate_system,
    minimal_patterns,
    perturb_to_generic,
    product_cantor_system,
    random_configuration,
    rank,
    vector_sub,
    verdict_to_json,
)
from genpos import genericity
from genpos.genericity import Verdict, _build_certificate, _engine_patterns
from genpos.linalg import IncrementalSpan, primitive_row
from genpos.selftest import grid_configuration
from test_acceptance import _equivalence_corpus, _minimality_corpus
from test_integer_core import corpus as integer_core_corpus

F = Fraction


def _reference_family(config, pattern):
    """Lexicographically first family of the pattern whose vectors span at
    most k dimensions, or None, by depth-first search over every vector.

    Groups are filled in size order; groups of equal size have increasing
    first elements. A branch is abandoned once its vectors span more than k
    dimensions, which loses nothing because rank only grows.
    """
    points = config.integer_points
    n = len(points)
    k, sizes = pattern.k, pattern.sizes
    if sum(sizes) > n:
        return None
    rows = [
        [None] * (b + 1)
        + [primitive_row([x - y for x, y in zip(p, base)]) for p in points[b + 1:]]
        for b, base in enumerate(points)
    ]
    span = IncrementalSpan(config.dimension)
    used = [False] * n
    groups = []

    def place_group(j, min_first):
        for first in range(min_first, n):
            if used[first]:
                continue
            used[first] = True
            groups.append([first])
            if extend(j, first + 1):
                return True
            groups.pop()
            used[first] = False
        return False

    def extend(j, start):
        group = groups[-1]
        if len(group) == sizes[j]:
            if j + 1 == len(sizes):
                return True
            min_first = group[0] + 1 if sizes[j + 1] == sizes[j] else 0
            return place_group(j + 1, min_first)
        for m in range(start, n):
            if used[m]:
                continue
            mark = span.mark()
            span.add_row(rows[group[0]][m])
            if span.rank > k:
                span.rollback(mark)
                continue
            used[m] = True
            group.append(m)
            if extend(j, m + 1):
                return True
            group.pop()
            used[m] = False
            span.rollback(mark)
        return False

    if place_group(0, 0):
        return tuple(tuple(g) for g in groups)
    return None


def _reference_verdict(config):
    """decide_all_projections with the depth-first search on every pattern."""
    if config.dimension == 1 or len(config.points) == 1:
        return Verdict(True)
    for pattern in _engine_patterns(config):
        groups = _reference_family(config, pattern)
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


def _small_denominator_spatial(dim):
    """random_configuration sets for n = 6..9, 150 seeds each, with the
    denominator running through 2..13; they hit every k = 1 and k = 2
    pattern, and in dimension 4 every k = 3 pattern."""
    return [
        random_configuration(n, dim, 2 + seed % 12, seed)
        for n in range(6, 10)
        for seed in range(150)
    ]


def _plant(rng, config, pattern):
    """Replace points at random indices by a family of the pattern whose
    vectors lie in a random k-dimensional subspace; the other points stay.
    None when two points coincide."""
    dim, k = config.dimension, pattern.k
    while True:
        basis = [[F(rng.below(19) - 9) for _ in range(dim)] for _ in range(k)]
        if rank(basis) == k:
            break
    points = list(config.points)
    slots = []
    while len(slots) < sum(pattern.sizes):
        i = rng.below(len(points))
        if i not in slots:
            slots.append(i)
    slots = iter(slots)
    for size in pattern.sizes:
        base = points[next(slots)]
        for _ in range(size - 1):
            coeffs = [F(rng.below(13) - 6, 1 + rng.below(5)) for _ in range(k)]
            step = [sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(dim)]
            points[next(slots)] = tuple(b + d for b, d in zip(base, step))
    if len(set(points)) < len(points):
        return None
    return Configuration(dim, tuple(points))


def _planted_patterns_corpus():
    """Each k >= 2 pattern in dimensions 3, 4 and 5 planted into a generic
    set with one spare point, under a seeded affine map."""
    rng = SplitMix64(2024)
    out = []
    for dim in (3, 4, 5):
        for k in range(2, dim):
            for pattern in minimal_patterns(k, dim):
                while True:
                    generic = random_configuration(
                        sum(pattern.sizes) + 1, dim, 10**6, 300 + len(out)
                    )
                    planted = _plant(rng, generic, pattern)
                    if planted is not None:
                        break
                out.append(_affine_image(rng, planted))
    return out


CORPORA = {
    "acceptance-equivalence": _equivalence_corpus,
    "acceptance-minimality": _minimality_corpus,
    "integer-core": integer_core_corpus,
    "large-planar": _large_planar_corpus,
    "perturbed": _perturbed_corpus,
    "spatial-planted": _spatial_planted_corpus,
    "small-denominator-3d": lambda: _small_denominator_spatial(3),
    "small-denominator-4d": lambda: _small_denominator_spatial(4),
    "planted-patterns": _planted_patterns_corpus,
}


@pytest.mark.parametrize("name", list(CORPORA))
def test_buckets_match_search_byte_for_byte(name):
    corpus = CORPORA[name]()
    assert _mismatches(corpus) == []


def _high_dimension_corpus():
    """Generic sets of 8 or 9 points in dimensions 6 to 8, and each with the
    last pattern of a k of 5 or 6 that fits it planted, under seeded affine
    maps. Here the prefix spans are deepest, so point images, taken without
    gcd division, have their largest entries."""
    rng = SplitMix64(6868)
    out = []
    for n, dim, k in ((9, 6, 5), (8, 7, 5), (8, 8, 6)):
        generic = random_configuration(n, dim, 10**6, 600 + dim)
        pattern = [p for p in minimal_patterns(k, dim) if sum(p.sizes) <= n][-1]
        planted = None
        while planted is None:
            planted = _plant(rng, generic, pattern)
        out += [_affine_image(rng, generic), _affine_image(rng, planted)]
    return out


def test_high_dimension_sets_match_search_byte_for_byte():
    corpus = _high_dimension_corpus()
    assert {decide_all_projections(c).generic for c in corpus} == {True, False}
    assert _mismatches(corpus) == []


def _det(matrix):
    """Determinant by the Leibniz formula, a signed sum over permutations."""
    n, total = len(matrix), 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        total += (-1) ** inversions * math.prod(matrix[i][perm[i]] for i in range(n))
    return total


def _residual_map(dimension, spanned):
    """The integer matrix of v -> det(A) v - G^T adj(A) G v, where the rows
    of G are the independent integer rows spanned and A = G G^T is their
    Gram matrix. By Cramer's rule on the normal equations this is det(A)
    times v's orthogonal residual modulo the span, with det(A) > 0, and it
    uses no elimination, so it is independent of IncrementalSpan."""
    r = len(spanned)
    gram = [[sum(a * b for a, b in zip(g, h)) for h in spanned] for g in spanned]
    adj = [
        [
            (-1) ** (i + j)
            * _det([row[:i] + row[i + 1:] for row in gram[:j] + gram[j + 1:]])
            for j in range(r)
        ]
        for i in range(r)
    ]
    det = _det(gram)
    return [
        [
            det * (i == j)
            - sum(
                spanned[a][i] * adj[a][b] * spanned[b][j]
                for a in range(r)
                for b in range(r)
            )
            for j in range(dimension)
        ]
        for i in range(dimension)
    ]


def _residual_key(matrix, row):
    """The direction of the row's image under the matrix, divided by its gcd
    and signed so its first non-zero entry is positive."""
    row = [sum(a * x for a, x in zip(line, row)) for line in matrix]
    g = math.gcd(*row)
    if next(x for x in row if x) < 0:
        g = -g
    return tuple(x // g for x in row)


def _buckets(keyed):
    """The items of (key, item) pairs grouped by key, as a sorted list."""
    groups = {}
    for key, item in keyed:
        groups.setdefault(key, []).append(item)
    return sorted(groups.values())


SAME_BUCKET_CORPORA = {
    "integer-core": integer_core_corpus,
    "planted-patterns": _planted_patterns_corpus,
    "small-denominator-3d": lambda: _small_denominator_spatial(3)[::10],
    "small-denominator-4d": lambda: _small_denominator_spatial(4)[::10],
}


@pytest.mark.parametrize("name", list(SAME_BUCKET_CORPORA))
def test_image_keys_bucket_as_residual_keys(monkeypatch, name):
    """On every fifth tail the search runs, the chords among its free points
    and the vectors from the last prefix group's base fall into the same
    buckets under the search's key, the difference of point images, as
    under the orthogonal residual of the difference modulo the prefix
    span."""
    tail, calls, checked = genericity._tail, count(), []

    def checking_tail(sizes, prefix, free, key):
        if next(calls) % 5 == 0:
            spanned = [_difference(g[0], m) for g in prefix for m in g[1:]]
            matrix = _residual_map(config.dimension, spanned)
            pairs = list(combinations(free, 2))
            if prefix:
                pairs += [(prefix[-1][0], m) for m in free if m > prefix[-1][0]]
            engine = _buckets((key(i, j), (i, j)) for i, j in pairs)
            reference = _buckets(
                (_residual_key(matrix, _difference(i, j)), (i, j)) for i, j in pairs
            )
            assert engine == reference, (sizes, prefix, free)
            checked.append(len(prefix))
        return tail(sizes, prefix, free, key)

    def _difference(b, m):
        points = config.integer_points
        return [x - y for x, y in zip(points[m], points[b])]

    corpus = SAME_BUCKET_CORPORA[name]()
    monkeypatch.setattr(genericity, "_tail", checking_tail)
    for config in corpus:
        decide_all_projections(config)
    assert checked and max(checked) >= 1


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


# One configuration per k >= 2 tail shape where the first collision the
# bucket scan meets is not the lexicographically first family: the pattern,
# the points, the first family and the family of the first collision.
TAIL_TRAPS = {
    # Prefix (0, 1); modulo its span the later members fall in buckets
    # {3, 6} and {2, 7}; 6 collides before 7.
    "two-members": (
        (2, (4,)),
        ((6, 2, 3), (5, 3, 4), (2, 6, 4), (2, 5, 5), (2, 0, 2), (6, 3, 4),
         (4, 2, 1), (3, 5, 2), (3, 1, 2)),
        ((0, 1, 2, 7),),
        ((0, 1, 3, 6),),
    ),
    # Prefix triangle (0, 6, 7); from base 1 the buckets are {3, 4} and
    # {2, 5}; 4 collides before 5.
    "new-triple": (
        (3, (3, 3)),
        ((5, 2, 5, 4), (5, 4, 1, 1), (0, 1, 3, 0), (4, 4, 1, 3), (0, 1, 1, 3),
         (1, 2, 0, 5), (5, 3, 5, 3), (2, 4, 5, 2)),
        ((0, 6, 7), (1, 2, 5)),
        ((0, 6, 7), (1, 3, 4)),
    ),
    # Prefix (0, 2); member 6 meets chord (1, 3) before member 3 meets chord
    # (1, 6). Chords that collide with each other are no family here.
    "member-and-chord": (
        (2, (3, 2)),
        ((6, 6, 3), (0, 3, 5), (3, 0, 6), (3, 6, 5), (3, 4, 0), (1, 6, 1),
         (4, 5, 2)),
        ((0, 2, 3), (1, 6)),
        ((0, 2, 6), (1, 3)),
    ),
    # Prefix chord (1, 2); chord (3, 5) meets (4, 6) before (3, 4) meets
    # (5, 6).
    "two-chords": (
        (2, (2, 2, 2)),
        ((2, 3, 0), (7, 0, 5), (0, 8, 5), (1, 1, 2), (2, 5, 3), (0, 7, 6),
         (8, 3, 7)),
        ((1, 2), (3, 4), (5, 6)),
        ((1, 2), (3, 5), (4, 6)),
    ),
}


@pytest.mark.parametrize("shape", list(TAIL_TRAPS))
def test_tail_is_lex_first_not_first_collision(shape):
    (k, sizes), points, first, collision = TAIL_TRAPS[shape]
    config = Configuration(len(points[0]), points)
    verdict = decide_all_projections(config)
    assert verdict.certificate.pattern == DegeneracyPattern(k, sizes)
    assert verdict.certificate.groups == first
    assert _verdict_json(verdict) == _verdict_json(_reference_verdict(config))
    # The first collision is a violating family too, just not the first.
    vectors = [
        vector_sub(points[i], points[g[0]]) for g in collision for i in g[1:]
    ]
    assert rank(vectors) <= k
    assert collision > first


def test_exhaustive_search_keeps_only_one_prefix_of_keys():
    """A generic N = 3 set is searched through every k = 2 pattern; the keys
    of a prefix are dropped with it, so memory stays far below the ~2 MB
    that keeping every prefix's keys for the later patterns takes."""
    config = random_configuration(16, 3, 10**6, 1)
    tracemalloc.start()
    try:
        assert decide_all_projections(config).generic
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_planted_patterns_are_found():
    """Each planted configuration is certified by the pattern planted in it."""
    planted = [
        (k, pattern.sizes)
        for dim in (3, 4, 5)
        for k in range(2, dim)
        for pattern in minimal_patterns(k, dim)
    ]
    found = []
    for config in _planted_patterns_corpus():
        pattern = decide_all_projections(config).certificate.pattern
        found.append((pattern.k, pattern.sizes))
    assert found == planted


def test_shared_walk_keeps_each_patterns_group_order():
    """(3, 3, 2) and (3, 2, 2, 2) share one walk of (triangle, chord)
    prefixes that leaves the two groups unordered; (3, 3, 2) must still take
    its groups of three in order of their first points."""
    rng = SplitMix64(5555)
    pattern = DegeneracyPattern(4, (3, 3, 2))
    corpus = []
    while len(corpus) < 3:
        generic = random_configuration(9, 5, 10**6, 500 + len(corpus))
        planted = _plant(rng, generic, pattern)
        if planted is not None:
            corpus.append(_affine_image(rng, planted))
    for config in corpus:
        certificate = decide_all_projections(config).certificate
        assert certificate.pattern == pattern
        assert certificate.groups[0][0] < certificate.groups[1][0]
    assert _mismatches(corpus) == []


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
    for i in range(24):
        generic = random_configuration(6 + rng.below(4), 4, 10**6, 400 + i)
        out.append(_affine_image(rng, _planted_flat(rng, generic, 3 + i % 2)))
    return out


def _planted_flat(rng, config, spanning):
    """Insert a point in the affine hull of `spanning` random points at a
    random position: with 3 points a coplanar 4-subset, with 4 a 5-subset
    in a hyperplane."""
    points = list(config.points)
    chosen = []
    while len(chosen) < spanning:
        i = rng.below(len(points))
        if i not in chosen:
            chosen.append(i)
    base = points[chosen[0]]
    new = list(base)
    for i in chosen[1:]:
        t = F(rng.below(11) - 5, 1 + rng.below(4)) or F(1, 2)
        new = [x + t * d for x, d in zip(new, vector_sub(points[i], base))]
    points.insert(rng.below(len(points) + 1), tuple(new))
    return Configuration(config.dimension, tuple(points))


def test_classical_witness_matches_brute_force():
    corpus = _classical_corpus()
    found = set()
    for config in corpus:
        report = classical_general_position(config)
        expected = _classical_reference(config)
        assert report.witness == expected
        assert report.in_general_position == (expected is None)
        found.add(None if expected is None else len(expected))
    assert {None, 3, 4, 5} <= found
