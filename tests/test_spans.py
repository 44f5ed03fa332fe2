"""The checks of spans_distinct against the level-by-level walks.

decide_all_projections clears level 1 once spans_distinct holds on it, and
settles a set generic once spans_distinct holds on its top level K = min(N
- 1, n - 2); otherwise it walks those levels as before. The check must be
sound: wherever it holds on a level, no walk up to that level finds a
family. It must settle every generic set that needs no coordinate it drops,
and where it gives up, decide's output is the walks', so it must equal the
brute-force oracle's byte for byte.
"""

import json
from fractions import Fraction
from itertools import combinations

import pytest

from genpos import (
    Configuration,
    SplitMix64,
    configuration_to_json,
    decide_all_projections,
    decide_all_projections_oracle,
    minimal_patterns,
    random_configuration,
    rank,
    verdict_to_json,
)
from genpos import genericity
from genpos.cli import run
from genpos.spans import spans_distinct
from test_direction_buckets import _affine_image, _first_level, _plant

F = Fraction

# Generic in dimension 4, with its first two points on one first
# coordinate: the first edge has no entry in the first coordinate, so the
# check keys the edges after it by (w0, v1 w2 - v2 w1).
SHARED_FIRST_COORDINATE = (
    (78, 4, 47, 82), (78, 45, 14, 66), (89, 29, 94, 25), (64, 52, 9, 5),
    (91, 56, 98, 62), (56, 49, 62, 63),
)

# Generic in dimension 5 with n = 5 points, so the top level K = 3 reads the
# first four coordinates only, and on them its first two points coincide:
# both checks give up, and decide walks every level.
COINCIDING_PROJECTION = (
    (67, 54, 36, 54, 56), (67, 54, 36, 54, 85), (12, 10, 99, 52, 23),
    (89, 18, 16, 43, 87), (92, 60, 77, 7, 42),
)


def _top(config):
    """K = min(N - 1, n - 2), the top level of the decide search."""
    return min(config.dimension, len(config) - 1) - 1


def _soundness_corpus():
    """Random sets in N = 3-6 over denominators 2 to 10^6, so that some
    violate at k = 1, some only higher up and some nowhere, and generic
    sets in N = 3 up to n = 40."""
    rng = SplitMix64(28)
    denominators = (2, 3, 5, 10, 100, 10**3, 10**6)
    out = []
    shapes = ((3, 5, 13, 28), (4, 6, 10, 21), (5, 7, 9, 14), (6, 8, 9, 7))
    for dim, low, high, count in shapes:
        for i in range(count):
            n = low + rng.below(high - low)
            den = denominators[i % len(denominators)]
            out.append(random_configuration(n, dim, den, rng.below(2**63)))
    out += [random_configuration(n, 3, 10**6, n) for n in (20, 40)]
    return out


def _tight_planted_corpus():
    """Every k >= 2 pattern of N = 3-5 planted on exactly its own points,
    where the fewest star forests hold each violating family, under a
    seeded affine map."""
    rng = SplitMix64(2929)
    out = []
    for dim in (3, 4, 5):
        for k in range(2, dim):
            for pattern in minimal_patterns(k, dim):
                planted = None
                while planted is None:
                    generic = random_configuration(
                        sum(pattern.sizes), dim, 10**6, rng.below(2**63)
                    )
                    planted = _plant(rng, generic, pattern)
                out.append(_affine_image(rng, planted))
    return out


def test_check_that_holds_leaves_every_walk_empty():
    """Wherever spans_distinct holds on level 1, the k = 1 walk finds
    nothing, and wherever it holds on the top level, every level's walk
    finds nothing. The corpus has sets the top-level check settles, sets
    that first violate at each k from 1 to 4, some of them planted on
    exactly the points of their pattern, and violating sets that level 1
    clears; the top-level check gives up on none of its generic sets."""
    settled, given_up, cleared, levels = 0, 0, 0, set()
    for config in _soundness_corpus() + _tight_planted_corpus():
        first = _first_level(config)
        levels.add(first)
        if spans_distinct(config.integer_points, 1):
            assert first != 1, config
            cleared += first is not None
        if spans_distinct(config.integer_points, _top(config)):
            assert first is None, config
            settled += 1
        elif first is None:
            given_up += 1
    assert settled >= 25 and given_up == 0 and cleared >= 10
    assert levels == {None, 1, 2, 3, 4}


def _generic_corpus():
    """Generic sets, as every level's walk finds them, with n = N + 1 to N
    + 3 in N = 2-5 and N + 1 to N + 2 in N = 6, so that the top level reads
    every coordinate: up to four for each denominator from 2 to 10^6, every
    other draw with its first two points moved onto one first coordinate."""
    rng = SplitMix64(2930)
    out = []
    for dim in (2, 3, 4, 5, 6):
        for den in (2, 3, 5, 10, 100, 10**3, 10**6):
            kept = 0
            for attempt in range(40):
                if kept == 4:
                    break
                n = dim + 1 + rng.below(3 if dim < 6 else 2)
                config = random_configuration(n, dim, den, rng.below(2**63))
                if attempt % 2:
                    points = [list(p) for p in config.points]
                    points[1][0] = points[0][0]
                    if len(set(map(tuple, points))) < n:
                        continue
                    config = Configuration(dim, tuple(map(tuple, points)))
                if _first_level(config) is None:
                    out.append(config)
                    kept += 1
    return out


def test_check_settles_every_generic_set_it_reads_whole():
    """On generic sets with n >= N + 1, whose top level reads all N
    coordinates, spans_distinct holds on the top level: level 1 in the
    plane, and in N = 3-6 whether or not a first extension edge has a zero
    first entry, as it has where the first two points share their first
    coordinate."""
    corpus = _generic_corpus()
    shared = [c for c in corpus if c.integer_points[0][0] == c.integer_points[1][0]]
    assert len(corpus) >= 120 and len(shared) >= 50
    assert {_top(c) for c in corpus} == {1, 2, 3, 4, 5}
    for config in corpus + [Configuration(4, SHARED_FIRST_COORDINATE)]:
        assert spans_distinct(config.integer_points, _top(config)), config


def _chords_in_a_plane(rng, dim):
    """Six points whose chords (0, 1), (2, 3) and (4, 5) lie in one random
    2-plane, the other coordinates random: drawn again until no two of the
    chords are parallel and no two points coincide."""
    while True:
        plane = [[F(rng.below(19) - 9) for _ in range(dim)] for _ in range(2)]
        points = []
        for _ in range(3):
            base = [F(rng.below(10**6), 10**6) for _ in range(dim)]
            a, b = (F(rng.below(13) - 6, 1 + rng.below(5)) for _ in range(2))
            points += [base, [x + a * u + b * v for x, u, v in zip(base, *plane)]]
        chords = [[y - x for x, y in zip(points[i], points[i + 1])] for i in (0, 2, 4)]
        if all(rank(pair) == 2 for pair in combinations(chords, 2)):
            if len(set(map(tuple, points))) == 6:
                return Configuration(dim, tuple(map(tuple, points)))


@pytest.mark.parametrize("dim", [4, 5, 6])
def test_three_chords_in_a_plane_agree_with_the_oracle(dim):
    """Three chords parallel to one 2-plane are a k = 2 violation below
    the top level, and no K-edge star forest holds all three chords as
    edges. The check gives up on them, and decide prints what the oracle
    prints."""
    rng = SplitMix64(4200 + dim)
    for _ in range(3):
        config = _chords_in_a_plane(rng, dim)
        assert not spans_distinct(config.integer_points, _top(config))
        verdict = decide_all_projections(config)
        assert verdict.certificate.pattern.k == 2
        assert verdict == decide_all_projections_oracle(config)
        assert json.dumps(verdict_to_json(verdict)) == json.dumps(
            verdict_to_json(decide_all_projections_oracle(config))
        )


def _decide_and_oracle_match(tmp_path, points):
    """The decide command's exit code and output equal decide-oracle's."""
    path = tmp_path / "set.json"
    config = Configuration(len(points[0]), points)
    path.write_text(json.dumps(configuration_to_json(config)), encoding="utf-8")
    decide = run(["decide", "-c", str(path)])
    oracle = run(["decide-oracle", "-c", str(path)])
    assert (decide.exit_code, decide.payload) == (oracle.exit_code, oracle.payload)
    return json.loads(decide.payload)


def test_shared_first_coordinate_is_settled_and_matches_the_oracle(tmp_path):
    """A generic N = 4 set whose first two points share their first
    coordinate: the check holds, as it does on the same set with that
    coordinate moved last, and the decide command prints what
    decide-oracle prints, byte for byte."""
    config = Configuration(4, SHARED_FIRST_COORDINATE)
    rotated = Configuration(4, tuple(p[1:] + p[:1] for p in SHARED_FIRST_COORDINATE))
    assert spans_distinct(config.integer_points, 3)
    assert spans_distinct(rotated.integer_points, 3)
    assert _decide_and_oracle_match(tmp_path, SHARED_FIRST_COORDINATE) == {
        "generic": True
    }


def test_coinciding_projection_gives_up_and_matches_the_oracle(tmp_path):
    """A generic set with n <= N whose first two points coincide on the
    first K + 1 coordinates: both checks give up, and the decide command
    prints what decide-oracle prints, byte for byte, from the walks."""
    config = Configuration(5, COINCIDING_PROJECTION)
    assert _top(config) == 3
    assert not spans_distinct(config.integer_points, 1)
    assert not spans_distinct(config.integer_points, 3)
    assert _decide_and_oracle_match(tmp_path, COINCIDING_PROJECTION) == {
        "generic": True
    }


def test_decide_walks_no_level_of_a_settled_set(monkeypatch):
    """A generic set that the checks settle is walked at no level; one that
    they give up on is walked at every level."""
    levels = []
    first_violation = genericity._first_violation

    def recording_first_violation(patterns, points):
        levels.append(patterns[0].k)
        return first_violation(patterns, points)

    monkeypatch.setattr(genericity, "_first_violation", recording_first_violation)
    for points in SHARED_FIRST_COORDINATE, random_configuration(9, 4, 10**6, 1).points:
        assert decide_all_projections(Configuration(4, points)).generic
    assert levels == []
    assert decide_all_projections(Configuration(5, COINCIDING_PROJECTION)).generic
    assert levels == [1, 2, 3]
