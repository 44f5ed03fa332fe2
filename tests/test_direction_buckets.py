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

import hashlib
import json
import math
import tracemalloc
from fractions import Fraction
from collections import Counter
from itertools import combinations, count, groupby, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpos import (
    Configuration,
    DegeneracyPattern,
    SplitMix64,
    cantor_graph_stage,
    classical_general_position,
    decide_all_projections,
    decide_all_projections_oracle,
    iterate_system,
    minimal_patterns,
    perturb_to_generic,
    product_cantor_system,
    random_configuration,
    rank,
    vector_sub,
    verdict_to_json,
)
from genpos import genericity, spans
from genpos.genericity import Verdict, _build_certificate, _engine_patterns
from genpos.linalg import IncrementalSpan, primitive_row
from genpos.selftest import grid_configuration, grid_corpus
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
            mark = span.rank
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


def _first_level(config):
    """The first k at which the engine's walk of that level's patterns
    finds a family, or None; each level is one genericity._first_violation
    call, so a test's replacement of it sees every walk."""
    points = config.integer_points
    for k, patterns in groupby(_engine_patterns(config), lambda p: p.k):
        if genericity._first_violation(list(patterns), points) is not None:
            return k
    return None


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


def _cube_subsets():
    """Every four- and five-point subset of {0, 1}^4, 1 820 and 4 368 sets:
    the one exhaustive corpus with n <= N + 1. No three cube points are
    collinear, so level 1 fails only on parallel chords. On the four-point
    sets (n <= N) the top-level check reads the first three coordinates
    only, and gives up on many generic sets that the walks then settle."""
    cube = list(product((0, 1), repeat=4))
    return [
        Configuration(4, subset)
        for size in (4, 5)
        for subset in combinations(cube, size)
    ]


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
    "cube-subsets": _cube_subsets,
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


def _direction(row):
    """The non-zero row divided by its gcd and signed so its first non-zero
    entry is positive."""
    g = math.gcd(*row)
    if next(x for x in row if x) < 0:
        g = -g
    return tuple(x // g for x in row)


def _residual_key(matrix, row):
    """The direction of the row's image under the matrix."""
    return _direction([sum(a * x for a, x in zip(line, row)) for line in matrix])


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


def _prefix_images(config, prefix, pool):
    """The pool's images under the quotient map of the prefix span, built as
    the search builds it: the groups' plain differences in placement order."""
    points = config.integer_points
    span = IncrementalSpan(config.dimension)
    for group in prefix:
        for m in group[1:]:
            span.add_row([x - y for x, y in zip(points[m], points[group[0]])])
    return {i: span.image(points[i]) for i in pool}


@pytest.mark.parametrize("name", list(SAME_BUCKET_CORPORA))
def test_image_keys_bucket_as_residual_keys(monkeypatch, name):
    """The level-1 check of genpos.spans keys each point's first two
    coordinates against those of each point before it, in order, and stops
    at the first key that is None or repeats: where none is, it has keyed
    every pair and holds, and where one is, that is the last key. No
    bucket of parallel chords among the pairs it keys is split by their
    shadow keys. On every fifth tail that the walks of every level run (one
    _first_violation call per level), the chords among its free points and
    the vectors from the last prefix group's base fall into the same
    buckets under the search's own key, taken after the pair's shadow key
    as a tail takes it, as under the orthogonal residual modulo the prefix
    span, and no such bucket is split by the shadow keys."""
    shadow_key, tail = spans._shadow_key, genericity._tail
    keyed, calls, checked = [], count(), []

    def recording_shadow_key(head, tip):
        keyed.append((head, tip))
        return shadow_key(head, tip)

    def check_level_one(points):
        keyed.clear()
        holds = spans.spans_distinct(points, 1)
        n = len(points)
        pairs = [(j, t) for t in range(n) for j in range(t)][: len(keyed)]
        assert keyed == [(points[j], points[t]) for j, t in pairs], points
        keys = [shadow_key(head, tip) for head, tip in keyed]
        repeats = [key is None or key in keys[:i] for i, key in enumerate(keys)]
        assert not any(repeats[:-1]), points
        assert holds == (len(keys) == n * (n - 1) // 2 and not any(repeats)), points
        buckets = _buckets(
            (_direction([x - y for x, y in zip(points[t], points[j])]), (j, t))
            for j, t in pairs
        )
        key_of = dict(zip(pairs, keys))
        for bucket in buckets:
            assert len({key_of[pair] for pair in bucket}) == 1, (points, bucket)

    def checking_tail(sizes, prefix, free, key, shadow):
        if next(calls) % 5 == 0:
            spanned = [_difference(g[0], m) for g in prefix for m in g[1:]]
            matrix = _residual_map(config.dimension, spanned)
            pairs = list(combinations(free, 2))
            if prefix:
                pairs += [(prefix[-1][0], m) for m in free if m > prefix[-1][0]]
            # Every tail keys a pair by shadow before it keys it exactly.
            shadows = {pair: shadow(*pair) for pair in pairs}
            engine = _buckets((key(i, j), (i, j)) for i, j in pairs)
            reference = _buckets(
                (_residual_key(matrix, _difference(i, j)), (i, j)) for i, j in pairs
            )
            assert engine == reference, (sizes, prefix, free)
            for bucket in reference:
                assert len({shadows[pair] for pair in bucket}) == 1, (prefix, bucket)
            checked.append(len(prefix))
        return tail(sizes, prefix, free, key, shadow)

    def _difference(b, m):
        points = config.integer_points
        return [x - y for x, y in zip(points[m], points[b])]

    corpus = SAME_BUCKET_CORPORA[name]()
    monkeypatch.setattr(spans, "_shadow_key", recording_shadow_key)
    for config in corpus:
        check_level_one(config.integer_points)
    monkeypatch.undo()
    monkeypatch.setattr(genericity, "_tail", checking_tail)
    for config in corpus:
        _first_level(config)
    assert checked and min(checked) == 0 and max(checked) >= 1


def _lifted(config):
    """The set lifted by one more coordinate, (x . u)^2 with u = (1, 10,
    100, ...). A chord translated by t gains 2 (t . u)(e . u) in height, so
    parallel chords whose feet differ in x . u lift to chords that are not
    parallel, and the lifted set reaches the k >= 2 patterns."""
    u = [10**i for i in range(config.dimension)]
    return Configuration(
        config.dimension + 1,
        tuple((*p, sum(a * x for a, x in zip(u, p)) ** 2) for p in config.points),
    )


def _cantor_corpus():
    shapes = [cantor_graph_stage(stage) for stage in (1, 2, 3)]
    return shapes + [_lifted(shape) for shape in shapes]


def _product_cantor_corpus():
    origin = Configuration(2, ((0, 0),))
    seeds = Configuration(2, ((0, 0), (F(1, 5), F(1, 7))))
    system = product_cantor_system(2)
    planar = [iterate_system(system, stage, origin) for stage in (1, 2)]
    planar.append(iterate_system(system, 1, seeds))
    cube = iterate_system(product_cantor_system(3), 1, Configuration(3, ((0, 0, 0),)))
    return [cube, _lifted(cube)] + [_lifted(shape) for shape in planar]


PREFILTER_CORPORA = {
    **SAME_BUCKET_CORPORA,
    "cantor": _cantor_corpus,
    "product-cantor": _product_cantor_corpus,
    "grid": lambda: grid_corpus(77, 40, range(5, 9), ((3, 3), (4, 2))),
}


@pytest.mark.parametrize("name", list(PREFILTER_CORPORA))
def test_prefixes_the_prefilter_skips_have_no_tail_hit(monkeypatch, name):
    """A tail that keys pairs of free points keys only pairs of its own
    pool, the first point of the prefix's last group, if any, and its free
    points. With a shadow key that always repeats, a tail keys every item
    exactly; where the real shadow keys of its pool, on the prefix's
    images, are all distinct, the tail still returns None. On the empty
    prefix the pool is every point, and its keys are distinct and not None
    exactly where the level-1 check of genpos.spans holds. The walks run
    one _first_violation call per level, and decide's verdicts equal the
    search's byte for byte."""
    shadow_key, tail, skipped_tails = spans._shadow_key, genericity._tail, count()

    def checking_tail(sizes, prefix, free, *args):
        hit = tail(sizes, prefix, free, *args)
        if sizes[-1] <= 3:
            pool = [group[0] for group in prefix[-1:]] + free
            images = _prefix_images(config, prefix, pool)
            keys = [
                shadow_key(images[i][:2], images[j][:2])
                for i, j in combinations(pool, 2)
            ]
            distinct = len(set(keys)) == len(keys)
            if not prefix:
                holds = spans.spans_distinct(config.integer_points, 1)
                assert holds == (distinct and None not in keys), config
            if distinct:
                assert hit is None, (sizes, prefix, free)
                next(skipped_tails)
        return hit

    corpus = PREFILTER_CORPORA[name]()
    monkeypatch.setattr(genericity, "_shadow_key", lambda head, tip: ())
    monkeypatch.setattr(genericity, "_tail", checking_tail)
    forced = []
    for config in corpus:
        _first_level(config)
        forced.append(_verdict_json(decide_all_projections(config)))
    monkeypatch.undo()
    assert forced == [_verdict_json(decide_all_projections(c)) for c in corpus]
    assert next(skipped_tails) > 0


_BIG = st.one_of(
    st.integers(-(2**70), 2**70), st.sampled_from([2**53 + 1, -(2**53) - 3, 0])
)
_SHADOW = st.one_of(st.just((0, 0)), st.tuples(_BIG, _BIG))
_FACTOR = st.one_of(st.integers(-(2**40), 2**40), st.sampled_from([-1, 2**60]))


@settings(max_examples=300, deadline=None)
@given(
    head=st.tuples(_BIG, _BIG),
    other=st.tuples(_BIG, _BIG),
    v=_SHADOW,
    c=_FACTOR.filter(bool),
)
def test_multiples_share_the_shadow_key(head, other, v, c):
    """c * v gets v's shadow key for every non-zero integer c, negative c
    and entries beyond 2^53 included, wherever the pair starts; the key is
    None exactly for a zero shadow, else a float, in [-1, 1] where the
    shadow's second entry is at most its first in magnitude and in [2, 4]
    where it is larger."""
    key = genericity._shadow_key
    expected = key(other, (other[0] + v[0], other[1] + v[1]))
    assert key(head, (head[0] + c * v[0], head[1] + c * v[1])) == expected
    if v == (0, 0):
        assert expected is None
    else:
        assert type(expected) is float
        if abs(v[1]) <= abs(v[0]):
            assert -1 <= expected <= 1
        else:
            assert 2 <= expected <= 4


_SMALL = st.integers(-(2**20) + 1, 2**20 - 1)


@settings(max_examples=300, deadline=None)
@given(
    head=st.tuples(_BIG, _BIG),
    u=st.tuples(_SMALL, _SMALL),
    w=st.tuples(_SMALL, _SMALL),
)
def test_small_shadows_share_a_key_only_when_parallel(head, u, w):
    """Below 2^20 two distinct ratios differ by more than 2^-40, far above
    a float's spacing in [-1, 4], so shadows get one key exactly when they
    are parallel and both zero or both not; a constant key fails."""
    key = genericity._shadow_key
    parallel = u[0] * w[1] == u[1] * w[0] and (u == (0, 0)) == (w == (0, 0))
    ku = key(head, (head[0] + u[0], head[1] + u[1]))
    assert (ku == key((0, 0), w)) == parallel


@pytest.mark.parametrize("shadow, expected", [((1, 10**400), 3.0), ((10**400, 1), 0.0)])
def test_shadow_key_of_entries_beyond_a_float(shadow, expected):
    """The larger entry of these shadows over the smaller overflows a float
    (y / x on the first, x / y on the second); the key divides the smaller
    by the larger, so it is finite, and the shadow's multiples share it."""
    with pytest.raises(OverflowError):
        max(shadow) / min(shadow)
    x, y = shadow
    key = genericity._shadow_key
    assert key((0, 0), shadow) == expected
    assert key((5, -3), (5 - 7 * x, -3 - 7 * y)) == expected


def test_single_group_walks_run_no_prefilter(monkeypatch):
    """classical_general_position asks the level-1 check before its (3,)
    walk, a triple on the empty prefix: on this generic set the check keys
    every pair of the 9 points once and holds, so only the (s,) walks for
    s >= 4 run, one pattern each. Every shadow key those walks compute is
    their tails' own, on prefixes that are not empty. One repeated shadow
    key sends classical on to the (3,) walk and its tail. decide keys the
    same 36 pairs at level 1, then the top level, and walks no level of
    this set."""
    config = random_configuration(9, 4, 10**6, 3)
    first_violation, shadow_key, tail = (
        genericity._first_violation, spans._shadow_key, genericity._tail
    )
    walks, keyed, tails, inside, outside = [], [], [], [], count()

    def recording_first_violation(patterns, points):
        walks.append(patterns[0].sizes)
        return first_violation(patterns, points)

    def recording_check_key(head, tip):
        keyed.append(len(walks))
        return shadow_key(head, tip)

    def recording_walk_key(head, tip):
        if not inside:
            next(outside)
        return shadow_key(head, tip)

    def recording_tail(sizes, prefix, *args):
        tails.append(prefix)
        inside.append(sizes)
        try:
            return tail(sizes, prefix, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(genericity, "_first_violation", recording_first_violation)
    monkeypatch.setattr(spans, "_shadow_key", recording_check_key)
    monkeypatch.setattr(genericity, "_shadow_key", recording_walk_key)
    monkeypatch.setattr(genericity, "_tail", recording_tail)
    assert classical_general_position(config).in_general_position
    assert walks == [(4,), (5,)]
    assert keyed == [0] * 36
    assert tails and all(tails)
    assert next(outside) == 0
    walks.clear()
    keyed.clear()
    tails.clear()
    assert decide_all_projections(config).generic
    assert len(keyed) > 36 and not walks and not tails
    real = []

    def once_repeating_shadow_key(head, tip):
        real.append(shadow_key(head, tip))
        return real[0] if len(real) == 2 else real[-1]

    monkeypatch.setattr(spans, "_shadow_key", once_repeating_shadow_key)
    assert classical_general_position(config).in_general_position
    assert walks[0] == (3,) and () in tails



def _walk_maps(monkeypatch, run):
    """run() under recording: for each k whose patterns a _first_violation
    call walks, the (prefix number, span rank, row) of every
    IncrementalSpan.image call made during that walk, the prefix number
    counting the prefixes _prefixes has placed."""
    first_violation, prefixes, image = (
        genericity._first_violation, genericity._prefixes, IncrementalSpan.image
    )
    maps, level, placed = {}, [], count(1)
    prefix = [0]

    def recording_first_violation(patterns, points):
        level.append(patterns[0].k)
        maps.setdefault(level[-1], [])
        try:
            return first_violation(patterns, points)
        finally:
            level.pop()

    def counting_prefixes(*args):
        for item in prefixes(*args):
            prefix[0] = next(placed)
            yield item

    def recording_image(self, row):
        if level:
            maps[level[-1]].append((prefix[0], self.rank, tuple(row)))
        return image(self, row)

    monkeypatch.setattr(genericity, "_first_violation", recording_first_violation)
    monkeypatch.setattr(genericity, "_prefixes", counting_prefixes)
    monkeypatch.setattr(IncrementalSpan, "image", recording_image)
    try:
        run()
    finally:
        monkeypatch.undo()
    return maps


# Four points in general position, then four on the plane z = 0: the first
# violation is the (4,) family (4, 5, 6, 7), after the k = 2 walk has placed
# the prefixes of the points before it.
LATE_COPLANAR = (
    (1, 2, 5), (7, 3, 1), (2, 7, 9), (5, 4, 5),
    (-8, 5, 0), (-4, -4, 0), (-1, 5, 0), (-9, -1, 0),
)


def test_the_empty_prefix_maps_no_point(monkeypatch):
    """On the empty span a point is its own image, so the k = 1 walks map
    none: a stage-6 Cantor graph's decide, which violates at k = 1, and
    classical's (3,) walk on the 3 x 3 grid call IncrementalSpan.image
    nowhere in their walks."""
    cantor = cantor_graph_stage(6)
    verdicts = []
    maps = _walk_maps(
        monkeypatch, lambda: verdicts.append(decide_all_projections(cantor))
    )
    assert maps == {1: []}
    assert verdicts[0].certificate.pattern.k == 1
    grid = Configuration(2, [(x, y) for x in range(3) for y in range(3)])
    reports = []
    maps = _walk_maps(
        monkeypatch, lambda: reports.append(classical_general_position(grid))
    )
    assert maps == {1: []}
    assert reports[0].witness == (0, 1, 2)


def test_prefixes_past_the_empty_one_map_points_lazily(monkeypatch):
    """A set that violates first at k = 2 walks no k = 1 level (the level-1
    check holds) and maps points in its k = 2 walk on the prefix span of
    rank 1: each prefix maps a point at most once, and none maps all n."""
    config = Configuration(3, LATE_COPLANAR)
    verdicts = []
    maps = _walk_maps(
        monkeypatch, lambda: verdicts.append(decide_all_projections(config))
    )
    assert verdicts[0].certificate.groups == ((4, 5, 6, 7),)
    assert list(maps) == [2]
    mapped = [(number, row) for number, rank, row in maps[2] if rank == 1]
    assert mapped and len(set(mapped)) == len(mapped)
    assert {row for _, row in mapped} <= set(config.integer_points)
    per_prefix = Counter(number for number, _ in mapped)
    assert len(per_prefix) > 1 and max(per_prefix.values()) < len(config)


# Generic in dimension 4, where a point's image modulo one chord has three
# entries: some prefixes' shadow keys repeat though no two exact keys do.
SHADOW_FALSE_REPEAT = (
    (5, 1, 0, 5), (3, 2, 3, 3), (0, 4, 3, 4), (2, 4, 4, 5), (3, 5, 2, 0),
    (4, 0, 3, 2),
)


def test_false_shadow_repeat_falls_back_to_the_exact_tails(monkeypatch):
    """The tails of this set's walks, one _first_violation call per level,
    key some items exactly after prefixes that are not empty, because their
    shadow keys repeat, and hit nothing; decide finds the set generic, as
    the oracle does."""
    config = Configuration(4, SHADOW_FALSE_REPEAT)
    tail, hits, exact = genericity._tail, [], count()

    def recording_tail(sizes, prefix, free, key, shadow):
        def counting_key(b, m):
            next(exact)
            return key(b, m)

        hit = tail(sizes, prefix, free, counting_key if prefix else key, shadow)
        if prefix:
            hits.append(hit)
        return hit

    monkeypatch.setattr(genericity, "_tail", recording_tail)
    assert _first_level(config) is None
    assert hits and all(hit is None for hit in hits) and next(exact) > 0
    verdict = decide_all_projections(config)
    assert verdict.generic
    oracle = decide_all_projections_oracle(config)
    assert _verdict_json(verdict) == _verdict_json(oracle)


def _k1_planted_corpus():
    """Random sets in dimensions 2, 3 and 4 with one k = 1 shape planted
    on points a, b, c, d: a collinear triple (c on line ab), parallel chords
    (cd parallel to ab), none, and in dimension 3 or more, chords ab and cd
    whose endpoints share their first two coordinates (zero shadows, key
    None), or whose shadows are parallel while the chords are not."""
    rng = SplitMix64(21)
    out = []
    for dim in (2, 3, 4):
        for i in range(15):
            config = random_configuration(7 + rng.below(2), dim, 1000, 500 + i)
            points = [list(p) for p in config.points]
            a, b, c, d = (points[j] for j in (0, 2, 3, 5))
            t = F(rng.below(5) + 2, rng.below(3) + 1) * (-1) ** rng.below(2)
            shape = i % 5 if dim > 2 else i % 3
            if shape == 0:
                c[:] = [x + t * (y - x) for x, y in zip(a, b)]
            elif shape == 1:
                d[:] = [z + t * (y - x) for x, y, z in zip(a, b, c)]
            elif shape == 3:
                b[:2], d[:2] = a[:2], c[:2]
            elif shape == 4:
                d[:2] = [z + t * (y - x) for x, y, z in zip(a[:2], b[:2], c[:2])]
            out.append(Configuration(dim, tuple(map(tuple, points))))
    return out


def test_k1_prefilter_agrees_with_the_oracle():
    """The level-1 check gives up on a repeated or None shadow key, and the
    k = 1 walk runs: on sets with a planted collinear triple, parallel
    chords, chords with zero shadows (key None) or chords with parallel
    shadows only, the engine's verdicts equal the brute-force oracle's byte
    for byte. The corpus hits
    (3,), (2, 2) and generic verdicts, a repeated key None, and a generic
    set whose shadow keys repeat though no two chords are parallel."""
    key = genericity._shadow_key
    seen, none_repeats, false_repeats = set(), 0, 0
    for config in _k1_planted_corpus():
        verdict = decide_all_projections(config)
        oracle = decide_all_projections_oracle(config)
        assert _verdict_json(verdict) == _verdict_json(oracle), config
        seen.add(None if verdict.generic else verdict.certificate.pattern.sizes)
        keys = [key(p[:2], q[:2]) for p, q in combinations(config.integer_points, 2)]
        none_repeats += keys.count(None) > 1
        false_repeats += verdict.generic and len(set(keys)) < len(keys)
    assert {None, (3,), (2, 2)} <= seen
    assert none_repeats and false_repeats


def test_prefilter_stops_at_the_first_repeat(monkeypatch):
    """Where the k = 1 walk hits early, the level-1 check of genpos.spans
    stops at the first repeated shadow key: on a Cantor graph stage and on
    a grid it keys at most n of the n(n - 1) / 2 pairs before the exact
    walk finds the family. The walk's tails key with genericity's
    _shadow_key, which is not counted."""
    shadow_key = spans._shadow_key

    def counting_shadow_key(head, tip):
        next(keyed)
        return shadow_key(head, tip)

    monkeypatch.setattr(spans, "_shadow_key", counting_shadow_key)
    grid = grid_configuration(SplitMix64(5), 60, 2, 9)
    for config in (cantor_graph_stage(5), grid):
        keyed = count()
        verdict = decide_all_projections(config)
        assert verdict.certificate.pattern.k == 1
        assert 0 < next(keyed) <= len(config)


def test_late_hit_keys_few_pairs_exactly(monkeypatch):
    """This planar set's first family, two parallel chords, comes late, so
    the level-1 check keys most pairs before the first repeat. Each k = 1 tail
    keys its items by shadow first, so the exact keys (one gcd each) stay
    far below the n(n - 1) / 2 = 19 900 of keying every pair exactly."""
    real_gcd, exact = genericity.gcd, count()

    def counting_gcd(*row):
        next(exact)
        return real_gcd(*row)

    monkeypatch.setattr(genericity, "gcd", counting_gcd)
    config = random_configuration(200, 2, 10**4, 1)
    verdict = decide_all_projections(config)
    assert verdict.certificate.pattern == DegeneracyPattern(1, (2, 2))
    assert next(exact) <= len(config)


def _tail_corpus():
    """Grids, Cantor graph stages 1-5, product-Cantor stages, the k = 1
    planted sets and random sets with denominators 2-7 in N = 2-5: their
    tails hit through every shape, most on repeated exact keys."""
    sets = grid_corpus(2022, 60, range(4, 10), ((2, 4), (3, 3), (4, 2), (2, 5)))
    sets += [cantor_graph_stage(stage) for stage in range(1, 6)]
    sets += _product_cantor_corpus() + _k1_planted_corpus()
    rng = SplitMix64(2023)
    for i in range(240):
        dim, den = 2 + i % 4, 2 + rng.below(6)
        count = min(4 + rng.below(6), (den + 1) ** dim)
        sets.append(random_configuration(count, dim, den, 3000 + i))
    return sets


def _tail_outputs(corpus):
    """The decide verdict JSON and the classical report of every set."""
    return [
        json.dumps(verdict_to_json(decide_all_projections(config)))
        + repr(classical_general_position(config))
        for config in corpus
    ]


# sha256 of _tail_outputs over _tail_corpus, computed before the tails keyed
# shadows first, when every tail keyed every item exactly.
TAIL_OUTPUTS_SHA256 = (
    "77d7aa76f938cfa34fd277618ad12af22c885af129d60a4cc10ede9eb96839a4"
)


@pytest.mark.parametrize("shadow", ["real", "constant"])
def test_shadow_first_tails_keep_every_output(monkeypatch, shadow):
    """The tails key exactly only the items whose shadow key another item
    shares; the items they drop share no exact key, so decide and classical
    print the same bytes as when every item was keyed exactly. A constant
    shadow key keeps every item, and the exact keys decide alone. The
    corpus hits every tail shape: (3,) and (2, 2) at k = 1, (4,), (3, 2) and
    (2, 2, 2) at k = 2, and a new triple after a prefix, (3, 3), at k = 3."""
    if shadow == "constant":
        monkeypatch.setattr(genericity, "_shadow_key", lambda head, tip: ())
    corpus = _tail_corpus()
    outputs = _tail_outputs(corpus)
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    assert digest == TAIL_OUTPUTS_SHA256
    verdicts = [json.loads(out.partition("ClassicalReport")[0]) for out in outputs]
    assert any(verdict["generic"] for verdict in verdicts)
    sizes = {
        tuple(map(len, verdict["certificate"]["groups"]))
        for verdict in verdicts
        if not verdict["generic"]
    }
    assert {(3,), (2, 2), (4,), (3, 2), (2, 2, 2), (3, 3)} <= sizes


def _mismatches_oracle(corpus):
    """The sets whose decide verdict JSON differs from the oracle's."""
    return [
        config
        for config in corpus
        if _verdict_json(decide_all_projections(config))
        != _verdict_json(decide_all_projections_oracle(config))
    ]


def test_shadow_first_tails_agree_with_the_oracle():
    """On the sets of the tail corpus with at most 9 points, decide prints
    the brute-force oracle's verdict byte for byte."""
    small = [config for config in _tail_corpus() if len(config) <= 9]
    assert len(small) > 250
    assert _mismatches_oracle(small) == []


def test_cube_subsets_agree_with_the_oracle():
    """On every four- and five-point subset of {0, 1}^4 decide prints the
    brute-force oracle's verdict byte for byte; the corpus holds generic
    sets and both certificates, (2, 2) and (3, 2)."""
    corpus = _cube_subsets()
    verdicts = [decide_all_projections(config) for config in corpus]
    seen = {None if v.generic else v.certificate.pattern.sizes for v in verdicts}
    assert seen == {None, (2, 2), (3, 2)}
    assert _mismatches_oracle(corpus) == []


def test_a_tail_that_drops_a_repeated_item_is_caught(monkeypatch):
    """A tail that also drops the last item whose shadow key repeats loses
    exact repeats: the pinned outputs and the oracle both catch it."""
    shared = genericity._shared

    def dropping_shared(items, keys):
        return shared(items, keys)[:-1]

    monkeypatch.setattr(genericity, "_shared", dropping_shared)
    corpus = _tail_corpus()
    digest = hashlib.sha256("\n".join(_tail_outputs(corpus)).encode()).hexdigest()
    assert digest != TAIL_OUTPUTS_SHA256
    assert _mismatches_oracle([config for config in corpus if len(config) <= 9])


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


def _first_collision(keyed):
    """Reference: the earlier finder of a bucket collision. (earliest, next)
    for the bucket whose smallest item is smallest, or None."""
    first = {}
    best = None
    for key, item in keyed:
        earlier = first.setdefault(key, item)
        if earlier != item and (best is None or earlier < best[0]):
            best = (earlier, item)
    return best


def _first_member_and_chord(members, chords):
    """Reference: the earlier finder of a member and a chord. (member,
    chord) with the smallest member sharing a key with a chord, and the
    first such chord, or None."""
    first_member = {}
    for key, member in members:
        first_member.setdefault(key, member)
    best = None
    for key, chord in chords:
        member = first_member.get(key)
        if member is not None and (best is None or member < best[0]):
            best = (member, chord)
    return best


def _keyed(items):
    """Increasing items, each with a key from a small alphabet."""
    return items.flatmap(
        lambda xs: st.lists(
            st.integers(0, 3), min_size=len(xs), max_size=len(xs)
        ).map(lambda keys: list(zip(keys, xs)))
    )


_MEMBERS = _keyed(st.lists(st.integers(0, 20), unique=True, max_size=12).map(sorted))
_CHORDS = _keyed(
    st.lists(
        st.sampled_from(list(combinations(range(10), 2))), unique=True, max_size=12
    ).map(sorted)
)


@settings(max_examples=500, deadline=None)
@given(members=_MEMBERS, chords=_CHORDS)
def test_first_pair_is_both_earlier_finders(members, chords):
    """Passed one keyed list twice, the one finder is the bucket-minimum
    rule; passed members and chords, it is the member-and-chord rule. The
    streams may be empty."""
    find = genericity._first_pair
    assert find(members, members) == _first_collision(members)
    assert find(chords, chords) == _first_collision(chords)
    assert find(members, chords) == _first_member_and_chord(members, chords)


def test_exhaustive_search_keeps_only_one_prefix_of_keys():
    """A generic N = 3 set is searched through every k = 2 pattern; the point
    images of a prefix are dropped with it, and no key outlives the tail
    that computed it, so memory stays far below the ~2 MB that keeping
    every prefix's keys for the later patterns takes."""
    config = random_configuration(16, 3, 10**6, 1)
    tracemalloc.start()
    try:
        assert decide_all_projections(config).generic
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_walk_of_one_level_keeps_only_one_prefix_of_keys():
    """The same bound for the walk itself: decide settles this generic set
    by its top-level check, so the k = 2 walk is called on its own."""
    config = random_configuration(16, 3, 10**6, 1)
    patterns = [p for p in _engine_patterns(config) if p.k == 2]
    tracemalloc.start()
    try:
        assert genericity._first_violation(patterns, config.integer_points) is None
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
