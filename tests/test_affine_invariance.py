"""decide is invariant under invertible affine maps.

Each family's test is the rank of its difference vectors, and an invertible
rational affine map x -> Ax + t keeps every such rank. So decide on A P + t
must return the verdict, the pattern and the groups it returns on P, with a
witness that spans A times the old witness, and the single-kernel check
must fail on that witness. The check needs no oracle, which refuses more
than 12 points, so it reaches n = 40.

Under A the float shadow keys, the bucket contents and the minors, zero
entries and repeats of both checks of genpos.spans all change, and a set
that a check gives up on may map to one that it settles, so this is a
differential test of every fast path that rests on them. A fault that
depends only on exact keys, such as a _first_pair that returns the wrong
one of two colliding items, is the same on P and on A P + t and keeps the
invariance; finding those stays the oracle's job.
"""

from fractions import Fraction

from genpos import (
    Configuration,
    SplitMix64,
    cantor_graph_stage,
    check_general_position,
    decide_all_projections,
    iterate_system,
    product_cantor_system,
    random_configuration,
    rank,
)
from test_direction_buckets import _lifted, _planted, _planted_patterns_corpus
from test_spans import COINCIDING_PROJECTION, SHARED_FIRST_COORDINATE

F = Fraction


def _affine_map(rng, dim):
    """An invertible integer matrix A with small entries and a rational t."""
    while True:
        matrix = [[rng.below(7) - 3 for _ in range(dim)] for _ in range(dim)]
        if rank(matrix) == dim:
            break
    return matrix, [F(rng.below(19) - 9, 1 + rng.below(7)) for _ in range(dim)]


def _apply(matrix, vector):
    return tuple(sum(a * x for a, x in zip(row, vector)) for row in matrix)


def _corpus():
    """Cantor-graph and product-Cantor stages, sets of small denominators
    up to n = 30 that violate at k = 1 and above, generic sets up to n = 40
    in N = 2-5, two generic sets that share a coordinate between their
    first two points, one of which both checks give up on, and every
    k >= 2 pattern planted in N = 3-5."""
    rng = SplitMix64(7007)
    out = [cantor_graph_stage(stage) for stage in range(1, 6)]
    out += [_lifted(cantor_graph_stage(stage)) for stage in (1, 2)]
    for dim, stage in ((2, 1), (2, 2), (3, 1)):
        origin = Configuration(dim, ((0,) * dim,))
        out.append(iterate_system(product_cantor_system(dim), stage, origin))
    for i in range(12):
        dim = 2 + i % 4
        n = (10 + rng.below(21)) if dim == 2 else dim + 2 + rng.below(4)
        out.append(random_configuration(n, dim, 2 + rng.below(12), 900 + i))
    for n, dim in ((40, 2), (40, 3), (24, 3), (10, 4), (8, 5)):
        out.append(random_configuration(n, dim, 10**6, n + dim))
    for i in range(2):
        generic = random_configuration(12 + rng.below(20), 2, 10**6, 950 + i)
        out.append(_planted(rng, generic, collinear=i == 0))
    out.append(Configuration(4, SHARED_FIRST_COORDINATE))
    out += _planted_patterns_corpus()
    return out + [Configuration(5, COINCIDING_PROJECTION)]


def test_affine_images_keep_verdict_pattern_and_groups():
    rng = SplitMix64(2828)
    shapes, sizes = set(), set()
    for config in _corpus():
        verdict = decide_all_projections(config)
        sizes.add((config.dimension, len(config), verdict.generic))
        if not verdict.generic:
            shapes.add(verdict.certificate.pattern.sizes)
        for _ in range(2):
            matrix, shift = _affine_map(rng, config.dimension)
            image = Configuration(
                config.dimension,
                tuple(
                    tuple(x + t for x, t in zip(_apply(matrix, p), shift))
                    for p in config.points
                ),
            )
            mapped = decide_all_projections(image)
            assert mapped.generic == verdict.generic, (config, matrix, shift)
            if verdict.generic:
                continue
            old, new = verdict.certificate, mapped.certificate
            assert (new.pattern, new.groups) == (old.pattern, old.groups)
            moved = [_apply(matrix, g) for g in old.witness.generators]
            assert rank(moved) == new.witness.dim == rank(
                moved + list(new.witness.generators)
            )
            assert not check_general_position(image, new.witness).passed
    assert {(3,), (2, 2), (4,), (3, 2), (2, 2, 2), (3, 3)} <= shapes
    assert {dim for dim, _, _ in sizes} == {2, 3, 4, 5}
    assert max(n for _, n, generic in sizes if generic) == 40
    assert max(n for _, n, generic in sizes if not generic) >= 30
