"""The integer-lattice core against its rational definitions.

decide, fibers and the per-fiber rank run on points scaled by the lcm of all
coordinate denominators. These corpora stress that scaling: pairwise-coprime
denominators (a large global lcm), negative coordinates, perturbation
outputs (2^16 in every denominator) and integer points mixed with
fractional ones. Degenerate members are built by adding a point collinear
with two others or closing a parallel chord, so certificates are compared
as well as generic verdicts.
"""

import functools
import json
from fractions import Fraction

import pytest

from genpos import (
    AffineMap,
    Configuration,
    IteratedFunctionSystem,
    SplitMix64,
    Subspace,
    cantor_graph_stage,
    check_general_position,
    decide_all_projections,
    decide_all_projections_oracle,
    fibers,
    iterate_system,
    perturb_to_generic,
    product_cantor_system,
    rank,
    vector_sub,
    verdict_to_json,
)
from genpos.genericity import ORACLE_DEFAULT_MAX_POINTS
from genpos.selftest import grid_configuration, random_subspace

F = Fraction

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)


def _coprime_points(rng, count, dim):
    """Each coordinate over its own prime, numerators in -1000..1000."""
    return [
        tuple(F(rng.below(2001) - 1000, PRIMES[(i * dim + j) % len(PRIMES)])
              for j in range(dim))
        for i in range(count)
    ]


def _negative_points(rng, count, dim):
    return [
        tuple(F(-1 - rng.below(50), 1 + rng.below(6)) for _ in range(dim))
        for _ in range(count)
    ]


def _mixed_points(rng, count, dim):
    """Integer points and fractional points over different primes, interleaved."""
    out = []
    for i in range(count):
        if i % 2:
            out.append(tuple(F(rng.below(21) - 10) for _ in range(dim)))
        else:
            prime = PRIMES[rng.below(len(PRIMES))]
            out.append(tuple(F(rng.below(41) - 20, prime) for _ in range(dim)))
    return out


def _degenerate(rng, points):
    """Add a point collinear with two others, or one closing a parallel chord."""
    n = len(points)
    a, b = rng.below(n), rng.below(n - 1)
    b += b >= a
    t = F(rng.below(7) - 3, PRIMES[rng.below(len(PRIMES))])
    if rng.below(2):
        base = points[a]
    else:
        base = points[(max(a, b) + 1) % n]
    step = vector_sub(points[b], points[a])
    return points + [tuple(x + t * d for x, d in zip(base, step))]


def _distinct(dim, points):
    if len(set(points)) < len(points):
        return None
    return Configuration(dim, tuple(points))


@functools.cache
def corpus():
    """Built on first use, not at import: perturb_to_generic runs the engine,
    so an engine fault fails the tests that use the corpus instead of
    breaking collection."""
    out = []
    rng = SplitMix64(4242)
    makers = (_coprime_points, _negative_points, _mixed_points)
    for i in range(90):
        dim = 2 + i % 2
        points = makers[i % 3](rng, 4 + rng.below(4), dim)
        if (i // 3) % 2:
            points = _degenerate(rng, points)
        config = _distinct(dim, points)
        if config is not None:
            out.append(config)
    for i in range(12):
        dim = 2 + i % 2
        grid = grid_configuration(rng, 4 + rng.below(3), dim, 3)
        moved = perturb_to_generic(grid, F(1, 100), seed=i)
        points = list(moved.points)
        if i % 2:
            points = _degenerate(rng, points)
        config = _distinct(dim, points)
        if config is not None:
            out.append(config)
    return out


# Parametrised tests are collected before the corpus is built.
CORPUS_SIZE = 95


def _verdict_json(verdict):
    return json.dumps(verdict_to_json(verdict), sort_keys=True)


def test_corpus_covers_both_verdicts():
    generic = sum(decide_all_projections(c).generic for c in corpus())
    assert len(corpus()) == CORPUS_SIZE
    assert 20 <= generic <= CORPUS_SIZE - 20


@pytest.mark.parametrize("index", range(CORPUS_SIZE))
def test_decide_matches_oracle_byte_for_byte(index):
    config = corpus()[index]
    engine = decide_all_projections(config)
    oracle = decide_all_projections_oracle(config)
    assert _verdict_json(engine) == _verdict_json(oracle)


def _fibers_by_definition(config, kernel):
    """i ~ j iff rank(generators + [p_i - p_j]) == dim; classes by first member."""
    gens = list(kernel.generators)
    classes = []
    for i, p in enumerate(config.points):
        for cls in classes:
            diff = vector_sub(p, config.points[cls[0]])
            if rank(gens + [diff]) == kernel.dim:
                cls.append(i)
                break
        else:
            classes.append([i])
    return tuple(tuple(c) for c in classes)


def _kernels(config, rng):
    """The decide witness if any, a chord direction, and a random kernel."""
    dim = config.dimension
    out = []
    verdict = decide_all_projections(config)
    if not verdict.generic:
        out.append(verdict.certificate.witness)
    out.append(Subspace(dim, (vector_sub(config.points[1], config.points[0]),)))
    out.append(random_subspace(rng, dim, 1 + rng.below(dim - 1)))
    return out


def test_fibers_match_definition_on_corpus():
    rng = SplitMix64(77)
    nontrivial = 0
    for config in corpus():
        for kernel in _kernels(config, rng):
            expected = _fibers_by_definition(config, kernel)
            assert fibers(config, kernel) == expected
            nontrivial += len(expected) < len(config.points)
    assert nontrivial >= CORPUS_SIZE


@pytest.mark.parametrize("stage", [4, 5, 6])
def test_fibers_match_definition_on_cantor_stages(stage):
    config = cantor_graph_stage(stage)
    rng = SplitMix64(stage)
    kernels = _kernels(config, rng) + [Subspace(2, ((F(1), F(1)),))]
    for kernel in kernels:
        assert fibers(config, kernel) == _fibers_by_definition(config, kernel)


def test_per_fiber_rank_matches_rational_rank():
    rng = SplitMix64(99)
    for config in corpus():
        for kernel in _kernels(config, rng):
            for fiber in check_general_position(config, kernel).nondegenerate:
                base = config.points[fiber.indices[0]]
                diffs = [vector_sub(config.points[i], base) for i in fiber.indices[1:]]
                independent = rank(diffs) == len(fiber.indices) - 1
                assert fiber.affinely_independent == independent


def _contraction(rng, dimension):
    """A random affine contraction of Q^dimension: each matrix cell has
    absolute value at most 1/(dimension + 1), so every row sums below 1 in
    absolute value, and the translation lies in [0, 1]^dimension."""
    matrix = tuple(
        tuple(F(rng.below(5) - 2, 2 * (dimension + 1) + rng.below(4))
              for _ in range(dimension))
        for _ in range(dimension)
    )
    translation = tuple(F(rng.below(8), 2 + rng.below(6)) for _ in range(dimension))
    return AffineMap(matrix, translation)


@functools.cache
def contraction_corpus():
    """Stages of seeded random rational contraction systems, the random
    Cantor sets of the paper: N = 2-3, 2-3 maps, stages 1-2, at most 12
    points in the plane and 8 in space, where the oracle's time grows
    fastest. Their denominators grow as D^stage. Then affine images of
    product-Cantor stages, which keep their parallel chords and so stay
    degenerate."""
    out = []
    rng = SplitMix64(2021)
    for i in range(48):
        dim, count, stage = 2 + i % 2, 2 + (i // 2) % 2, 1 + (i // 4) % 2
        limit = 12 if dim == 2 else 8
        if count**stage > limit:
            stage = 1
        system = IteratedFunctionSystem(
            dim, tuple(_contraction(rng, dim) for _ in range(count))
        )
        seeds = 1 + rng.below(limit // count**stage)
        points = {tuple(F(rng.below(7), 1 + rng.below(4)) for _ in range(dim))
                  for _ in range(seeds)}
        out.append(iterate_system(system, stage, Configuration(dim, tuple(points))))
    for i in range(12):
        dim = 2 + i % 2
        origin = Configuration(dim, ((0,) * dim,))
        stage = iterate_system(product_cantor_system(dim), 1, origin)
        while True:  # redraw a map that merges two of the points
            affine = IteratedFunctionSystem(dim, (_contraction(rng, dim),))
            image = iterate_system(affine, 1, stage)
            if len(image) == len(stage):
                break
        out.append(image)
    return out


CONTRACTION_CORPUS_SIZE = 60


def test_contraction_corpus_covers_both_verdicts():
    configs = contraction_corpus()
    assert len(configs) == CONTRACTION_CORPUS_SIZE
    assert all(len(c) <= ORACLE_DEFAULT_MAX_POINTS for c in configs)
    generic = [decide_all_projections(c).generic for c in configs]
    assert 10 <= sum(generic) <= CONTRACTION_CORPUS_SIZE - 10
    assert not any(generic[48:])
    assert max(c.denominator for c in configs) >= 10**4


@pytest.mark.parametrize("index", range(CONTRACTION_CORPUS_SIZE))
def test_decide_matches_oracle_on_contraction_stages(index):
    config = contraction_corpus()[index]
    engine = decide_all_projections(config)
    oracle = decide_all_projections_oracle(config)
    assert _verdict_json(engine) == _verdict_json(oracle)
