"""The prefix walk places only prefixes that a tail can complete.

_prefixes stops the first point of each prefix group where too few indices
are left above it for the family points that must lie there, and
_first_violation runs a pattern's tail only when its free points can hold
it. A pruned prefix has no tail, so nothing the search returns may change:
every prefix of every family of a walk's patterns is still placed, and
violations planted on the highest indices, where the bound is tight, are
found exactly as the full-depth reference finds them.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from genpos import (
    Configuration,
    DegeneracyPattern,
    SplitMix64,
    classical_general_position,
    decide_all_projections,
    random_configuration,
    rank,
)
from genpos import genericity
from genpos.genericity import _canonical_families, _plan, _prefixes
from genpos.linalg import IncrementalSpan
from test_direction_buckets import (
    _affine_image,
    _first_level,
    _reference_verdict,
    _verdict_json,
)

F = Fraction


def _recorded_walks(monkeypatch, n, dimension):
    """(patterns, counts, equal, tail) of every walk that the levels of
    decide, one _first_violation call each, and classical build on a
    generic set of n points in the dimension."""
    calls, walks = [], []
    first_violation, prefixes = genericity._first_violation, genericity._prefixes

    def record_first_violation(patterns, points):
        calls.append(patterns)
        return first_violation(patterns, points)

    def record_prefixes(points, counts, equal, tail, span):
        walks.append((calls[-1], counts, equal, tail))
        return prefixes(points, counts, equal, tail, span)

    monkeypatch.setattr(genericity, "_first_violation", record_first_violation)
    monkeypatch.setattr(genericity, "_prefixes", record_prefixes)
    config = random_configuration(n, dimension, 10**6, 1)
    assert _first_level(config) is None
    assert classical_general_position(config).in_general_position
    monkeypatch.undo()
    return config, walks


@pytest.mark.parametrize("dimension", [2, 3, 4])
def test_bounded_walks_place_every_prefix_of_every_family(monkeypatch, dimension):
    """For n <= 9, every prefix of every canonical family of a walk's
    patterns is among the prefixes the bounded walk places."""
    for n in range(3, 10):
        config, walks = _recorded_walks(monkeypatch, n, dimension)
        assert walks
        points = config.integer_points
        for patterns, counts, equal, tail in walks:
            placed = {
                prefix
                for prefix, _ in _prefixes(
                    points, counts, equal, tail, IncrementalSpan(dimension)
                )
            }
            members = [p for p in patterns if _plan(p.sizes)[:2] == (counts, equal)]
            assert members
            for pattern in members:
                for family in _canonical_families(n, pattern.sizes):
                    prefix = tuple(g[:c] for g, c in zip(family, counts))
                    assert prefix in placed, (n, pattern, family)


def _plant_on_top(rng, config, pattern):
    """The configuration with its highest sum(sizes) indices replaced by a
    family of the pattern, groups in canonical order, whose vectors lie in
    a random k-dimensional subspace; drawn again while two points coincide."""
    dim, k = config.dimension, pattern.k
    while True:
        basis = [[F(rng.below(19) - 9) for _ in range(dim)] for _ in range(k)]
        if rank(basis) < k:
            continue
        points = list(config.points)
        slot = len(points) - sum(pattern.sizes)
        for size in pattern.sizes:
            base = points[slot]
            for i in range(slot + 1, slot + size):
                coeffs = [F(rng.below(13) - 6, 1 + rng.below(5)) for _ in range(k)]
                step = [sum(c * v[j] for c, v in zip(coeffs, basis)) for j in range(dim)]
                points[i] = tuple(b + d for b, d in zip(base, step))
            slot += size
        if len(set(points)) == len(points):
            return Configuration(dim, tuple(points))


TOP_SHAPES = [
    (3, (5,)), (3, (4, 2)), (3, (3, 3)), (3, (3, 2, 2)), (3, (2, 2, 2, 2)),
    (2, (4,)), (2, (3, 2)), (2, (2, 2, 2)),
]


@pytest.mark.parametrize("k, sizes", TOP_SHAPES)
def test_violation_on_highest_indices_matches_reference(k, sizes):
    """One family per tail shape on the highest indices, two generic points
    below it: the engine returns that family, byte for byte as the
    full-depth reference does."""
    pattern = DegeneracyPattern(k, sizes)
    rng = SplitMix64(1010 + len(sizes) * 10 + sizes[0])
    n = sum(sizes) + 2
    config = _affine_image(
        rng, _plant_on_top(rng, random_configuration(n, k + 1, 10**6, 7), pattern)
    )
    verdict = decide_all_projections(config)
    family, start = [], 2
    for size in sizes:
        family.append(tuple(range(start, start + size)))
        start += size
    assert verdict.certificate.pattern == pattern
    assert verdict.certificate.groups == tuple(family)
    assert _verdict_json(verdict) == _verdict_json(_reference_verdict(config))


def _tail_needs(sizes, prefix):
    """The tail's points (the family's points outside the prefix) and how
    many of them must lie above the last point of the prefix's last group:
    two new members of a last group of 4 or more, or the last member of a
    group before a chord."""
    *head, last = sizes
    joined = 2 if last > 3 else 1 if last == 2 and head[-1] > 2 else 0
    return sum(sizes) - sum(map(len, prefix)), joined


def test_two_chord_walk_places_fifty_five_prefixes(monkeypatch):
    """On 8 points in dimension 4 the (2, 2, 2, 2) walk places two chords
    with increasing first points; of the 210 such prefixes only those with
    the first chord at 0 and the second at most at 2 leave four points above
    the second chord's first point. decide settles this generic set by the
    checks of genpos.spans, so each level's walk is called on its own. Tails
    run only where their free points can hold them."""
    config = random_configuration(8, 4, 10**6, 1)
    chords = combinations(range(8), 2)
    assert sum(not set(a) & set(b) for a, b in combinations(chords, 2)) == 210
    placed, tails = [], []
    prefixes, tail = genericity._prefixes, genericity._tail

    def record_prefixes(points, counts, equal, tail_points, span):
        for prefix, used in prefixes(points, counts, equal, tail_points, span):
            if counts == (2, 2):
                placed.append(prefix)
            yield prefix, used

    def record_tail(sizes, prefix, free, *args):
        tails.append((sizes, prefix, list(free)))
        return tail(sizes, prefix, free, *args)

    monkeypatch.setattr(genericity, "_prefixes", record_prefixes)
    monkeypatch.setattr(genericity, "_tail", record_tail)
    assert _first_level(config) is None
    assert len(placed) == 55
    assert {p[0][0] for p in placed} == {0}
    assert max(p[1][0] for p in placed) == 2
    assert {len(prefix) for _, prefix, _ in tails} >= {1, 2}
    for sizes, prefix, free in tails:
        points, joined = _tail_needs(sizes, prefix)
        assert len(free) >= points, (sizes, prefix, free)
        if joined:
            assert sum(1 for i in free if i > prefix[-1][-1]) >= joined
