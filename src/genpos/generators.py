"""Deterministic producers of instructive configurations, each computed as
integer rows over one denominator and handed to Configuration._on_lattice.
An AffineMap is a lattice record too: product_cantor_system builds its maps
with AffineMap._on_lattice, and no producer builds a rational row.

Randomness comes from SplitMix64 (Steele, Lea and Flood's 64-bit mixer) with
unbiased bounded sampling by rejection. The algorithm is part of the external
contract: a given seed yields bit-identical output on every platform and in
every release.
"""

from __future__ import annotations

import math
from itertools import product

from .errors import InputError, PerturbationError
from .genericity import decide_all_projections
from .geometry import Configuration
from .linalg import _LatticeRecord, _Record, integer, lattice, rational_pair

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudo-random generator; tiny, fast, fully reproducible."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = integer(seed, "seed", 0) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection.

        A draw joins as many 64-bit words as bound - 1 needs (at least one,
        so a bound up to 2^64 draws one word) and is rejected at or above
        the largest multiple of bound it can reach."""
        integer(bound, "bound", 1)
        words = (max(bound - 1, 1).bit_length() + 63) // 64
        limit = 1 << 64 * words
        limit -= limit % bound
        while True:
            draw = self.next_u64()
            for _ in range(1, words):
                draw = draw << 64 | self.next_u64()
            if draw < limit:
                return draw % bound


class AffineMap(_LatticeRecord):
    """x -> (Ax + c) / D with integer A and c, built from a rational matrix
    and translation: D is the lcm of all their denominators. Its lattice
    rows are the rows of A and then c, so a producer that holds them over
    one denominator builds the map with _on_lattice."""

    __slots__ = ("matrix", "translation", "denominator")
    _shown = __slots__

    def __init__(self, matrix, translation):
        # The translation is checked alone first, so that its errors name it,
        # and the matrix is checked to be a list before it is unpacked.
        _, (t,) = lattice((translation,), "translation")
        if not isinstance(matrix, (list, tuple)):
            raise InputError("matrix: missing or not a list")
        n = len(t)
        den, rows = lattice((*matrix, translation), "matrix", n)
        if len(rows) != n + 1:
            raise InputError(f"matrix: expected {n}x{n} to match the translation")
        self._fill(n, den, rows)

    def _fill(self, _, denominator, rows):
        # The dimension is len(translation), so it is not stored twice.
        super().__init__(rows[:-1], rows[-1], denominator)

    def _key(self):
        return len(self.translation), self.denominator, (*self.matrix, self.translation)

    def apply(self, row, scale: int) -> tuple[int, ...]:
        """The image of the point row / scale, as a row over D * scale."""
        return tuple(
            sum(a * x for a, x in zip(arow, row)) + t * scale
            for arow, t in zip(self.matrix, self.translation)
        )


class IteratedFunctionSystem(_Record):
    """A finite list of affine maps sharing one ambient dimension."""

    __slots__ = ("dimension", "maps")

    def __init__(self, dimension: int, maps):
        integer(dimension, "dimension", 1)
        if not isinstance(maps, (list, tuple)):
            raise InputError("maps: missing or not a list")
        if not maps:
            raise InputError("maps: at least one map is required")
        for i, m in enumerate(maps):
            if not isinstance(m, AffineMap):
                raise InputError(f"maps[{i}]: not an AffineMap")
            if len(m.translation) != dimension:
                raise InputError(
                    f"maps[{i}]: dimension {len(m.translation)} does not match "
                    f"system dimension {dimension}"
                )
        super().__init__(dimension, maps)


def product_cantor_system(dimension: int) -> IteratedFunctionSystem:
    """The 2^N contractions x -> x/3 + t, t in {0, 2/3}^N, each built on
    the lattice as the identity and 3t over 3."""
    integer(dimension, "dimension", 1)
    identity = [[int(i == j) for j in range(dimension)] for i in range(dimension)]
    maps = tuple(
        AffineMap._on_lattice(dimension, 3, (*identity, t))
        for t in product((0, 2), repeat=dimension)
    )
    return IteratedFunctionSystem(dimension, maps)


def iterate_system(
    system: IteratedFunctionSystem, stage: int, seeds: Configuration
) -> Configuration:
    """Apply every length-`stage` word of the system's maps to every seed.

    The points are built level by level: each level is every map applied
    to every point of the last, as integer rows over one denominator, so
    equal points merge exactly and each is mapped on once. The result is
    sorted by coordinates; stage 0 returns the seeds unchanged.
    """
    integer(stage, "stage", 0)
    if seeds.dimension != system.dimension:
        raise InputError(
            f"seeds dimension {seeds.dimension} does not match system "
            f"dimension {system.dimension}"
        )
    if stage == 0:
        return seeds
    den = math.lcm(*(m.denominator for m in system.maps))
    scale, level = seeds.denominator, set(seeds.integer_points)
    for _ in range(stage):
        level = {
            tuple(den // m.denominator * x for x in m.apply(row, scale))
            for m in system.maps for row in level
        }
        scale *= den
    return Configuration._on_lattice(system.dimension, scale, sorted(level))


def cantor_graph_stage(stage: int) -> Configuration:
    """The stage of (x, y) -> (x/3, y/2), (x/3 + 2/3, y/2 + 1/2) from (0,0)
    and (1,1): those two and the endpoints of the middle-thirds gaps removed
    so far, each at the Cantor function's plateau value, ordered by x.

    Stage n has 2 + 2*(2^n - 1) points; every plateau value appears twice.
    """
    integer(stage, "stage", 1)
    shrink = (("1/3", 0), (0, "1/2"))
    maps = (AffineMap(shrink, (0, 0)), AffineMap(shrink, ("2/3", "1/2")))
    seeds = Configuration(2, ((0, 0), (1, 1)))
    return iterate_system(IteratedFunctionSystem(2, maps), stage, seeds)


def _distinct_draws(
    rng: SplitMix64, count: int, dimension: int, top: int
) -> list[tuple[int, ...]]:
    """count pairwise-distinct tuples of dimension integers uniform in
    0..top, drawn in order; a tuple equal to an earlier one is redrawn."""
    # 2 or more values per axis give count points from count.bit_length() axes
    if (top < 1 or dimension < count.bit_length()) and (top + 1) ** dimension < count:
        raise InputError(
            f"count: the grid has only {(top + 1) ** dimension} "
            f"distinct points, fewer than {count}"
        )
    chosen: list[tuple[int, ...]] = []
    taken: set[tuple[int, ...]] = set()
    while len(chosen) < count:
        p = tuple(rng.below(top + 1) for _ in range(dimension))
        if p in taken:
            continue
        taken.add(p)
        chosen.append(p)
    return chosen


def random_configuration(
    count: int, dimension: int, denominator: int, seed: int
) -> Configuration:
    """Points with coordinates p/denominator, p uniform in 0..denominator.

    Sampling uses SplitMix64 seeded as given; a point equal to an earlier one
    is redrawn, so the result is always pairwise distinct.
    """
    integer(count, "count", 1)
    integer(dimension, "dimension", 1)
    integer(denominator, "denominator", 2)
    draws = _distinct_draws(SplitMix64(seed), count, dimension, denominator)
    return Configuration._on_lattice(dimension, denominator, draws)


_OFFSET_GRID = 1 << 16
PERTURB_DEFAULT_MAX_ATTEMPTS = 16


def _ball_offset(rng: SplitMix64, dimension: int) -> list[int]:
    # uniform on the integer grid inside the radius-2^16 ball, by rejection
    while True:
        cells = [rng.below(2 * _OFFSET_GRID + 1) - _OFFSET_GRID for _ in range(dimension)]
        if sum(c * c for c in cells) <= _OFFSET_GRID * _OFFSET_GRID:
            return cells


def perturb_to_generic(
    config: Configuration,
    epsilon,
    seed: int,
    max_attempts: int = PERTURB_DEFAULT_MAX_ATTEMPTS,
) -> Configuration:
    """Move every point by at most epsilon until the result is generic.

    Offsets are drawn from the rational grid of spacing epsilon/2^16 inside
    the epsilon-ball, so the squared distance moved is at most epsilon^2 and
    all arithmetic stays exact, on integer rows over lcm(denominator, 2^16 q)
    for epsilon = p/q. Raises PerturbationError, carrying the last
    certificate seen, once max_attempts candidates failed.
    """
    try:
        p, q = rational_pair(epsilon)
    except InputError as exc:
        raise InputError(f"epsilon: {exc}") from None
    if p <= 0:
        raise InputError("epsilon: must be positive")
    integer(max_attempts, "max_attempts", 1)
    rng, dim = SplitMix64(seed), config.dimension
    den = math.lcm(config.denominator, q * _OFFSET_GRID)
    scale, step = den // config.denominator, p * (den // (q * _OFFSET_GRID))
    last_certificate = None
    for _ in range(max_attempts):
        moved = [
            tuple(scale * x + step * d for x, d in zip(row, _ball_offset(rng, dim)))
            for row in config.integer_points
        ]
        if len(set(moved)) < len(moved):
            continue
        candidate = Configuration._on_lattice(dim, den, moved, config.labels)
        verdict = decide_all_projections(candidate)
        if verdict.generic:
            return candidate
        last_certificate = verdict.certificate
    raise PerturbationError(max_attempts, last_certificate)
