"""Deterministic producers of instructive configurations.

Randomness comes from SplitMix64 (Steele, Lea and Flood's 64-bit mixer) with
unbiased bounded sampling by rejection. The algorithm is part of the external
contract: a given seed yields bit-identical output on every platform and in
every release.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import InputError, PerturbationError
from .genericity import decide_all_projections
from .geometry import Configuration, Point
from .linalg import Vector, as_rational, integer, rational_rows

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
        """Uniform integer in [0, bound), unbiased via rejection."""
        if bound < 1:
            raise InputError("bound: must be >= 1")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % bound)
        while True:
            draw = self.next_u64()
            if draw < limit:
                return draw % bound


def cantor_graph_stage(stage: int) -> Configuration:
    """Endpoints of the middle-thirds gaps removed through `stage`, paired
    with the plateau value the Cantor function takes there, plus (0,0) and
    (1,1). Points are ordered by x.

    Stage n has 2 + 2*(2^n - 1) points; every plateau value appears twice.
    """
    integer(stage, "stage", 1)
    points: list[Point] = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]
    intervals: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(1))]
    for s in range(1, stage + 1):
        nxt: list[tuple[Fraction, Fraction]] = []
        for i, (a, b) in enumerate(intervals):
            third = (b - a) / 3
            left, right = a + third, b - third
            y = Fraction(2 * i + 1, 2**s)
            points.append((left, y))
            points.append((right, y))
            nxt.append((a, left))
            nxt.append((right, b))
        intervals = nxt
    points.sort(key=lambda p: p[0])
    return Configuration(2, tuple(points))


@dataclass(frozen=True)
class AffineMap:
    """x -> Mx + t with rational matrix M and translation t."""

    matrix: tuple[Vector, ...]
    translation: Vector

    def __post_init__(self):
        (t,) = rational_rows((self.translation,), "translation")
        n = len(t)
        rows = rational_rows(self.matrix, "matrix", n)
        if len(rows) != n:
            raise InputError(f"matrix: expected {n}x{n} to match the translation")
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "translation", t)

    def apply(self, point: Point) -> Point:
        return tuple(
            sum((m * x for m, x in zip(row, point)), Fraction(0)) + t
            for row, t in zip(self.matrix, self.translation)
        )


@dataclass(frozen=True)
class IteratedFunctionSystem:
    """A finite list of affine maps sharing one ambient dimension."""

    dimension: int
    maps: tuple[AffineMap, ...]

    def __post_init__(self):
        integer(self.dimension, "dimension", 1)
        if not self.maps:
            raise InputError("maps: at least one map is required")
        for i, m in enumerate(self.maps):
            if len(m.translation) != self.dimension:
                raise InputError(
                    f"maps[{i}]: dimension {len(m.translation)} does not match "
                    f"system dimension {self.dimension}"
                )


def product_cantor_system(dimension: int) -> IteratedFunctionSystem:
    """The 2^N contractions x -> x/3 + t, t in {0, 2/3}^N."""
    integer(dimension, "dimension", 1)
    third = Fraction(1, 3)
    identity_third = tuple(
        tuple(third if i == j else Fraction(0) for j in range(dimension))
        for i in range(dimension)
    )
    maps = tuple(
        AffineMap(identity_third, t)
        for t in product((Fraction(0), Fraction(2, 3)), repeat=dimension)
    )
    return IteratedFunctionSystem(dimension, maps)


def iterate_system(
    system: IteratedFunctionSystem, stage: int, seeds: Configuration
) -> Configuration:
    """Apply every length-`stage` word of the system's maps to every seed.

    The points are built level by level: each level is every map applied to
    every point of the level before it, deduplicated exactly, so a point
    reached by several words is mapped on once. The result is sorted by
    coordinates; stage 0 returns the seeds unchanged.
    """
    integer(stage, "stage", 0)
    if seeds.dimension != system.dimension:
        raise InputError(
            f"seeds dimension {seeds.dimension} does not match system "
            f"dimension {system.dimension}"
        )
    if stage == 0:
        return seeds
    level: set[Point] = set(seeds.points)
    for _ in range(stage):
        level = {m.apply(x) for m in system.maps for x in level}
    return Configuration(system.dimension, tuple(sorted(level)))


def _distinct_draws(
    rng: SplitMix64, count: int, dimension: int, top: int
) -> list[tuple[int, ...]]:
    """count pairwise-distinct tuples of dimension integers uniform in
    0..top, drawn in order; a tuple equal to an earlier one is redrawn."""
    if (top + 1) ** dimension < count:
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
    return Configuration(
        dimension, tuple(tuple(Fraction(x, denominator) for x in p) for p in draws)
    )


_OFFSET_GRID = 1 << 16


def _ball_offset(rng: SplitMix64, dimension: int, step: Fraction) -> Vector:
    # uniform on the integer grid inside the radius-2^16 ball, by rejection
    while True:
        cells = [rng.below(2 * _OFFSET_GRID + 1) - _OFFSET_GRID for _ in range(dimension)]
        if sum(c * c for c in cells) <= _OFFSET_GRID * _OFFSET_GRID:
            return tuple(step * c for c in cells)


def perturb_to_generic(
    config: Configuration, epsilon, seed: int, max_attempts: int = 16
) -> Configuration:
    """Move every point by at most epsilon until the result is generic.

    Offsets are drawn from the rational grid of spacing epsilon/2^16 inside
    the epsilon-ball, so the squared distance moved is at most epsilon^2 and
    all arithmetic stays exact. Raises PerturbationError, carrying the last
    certificate seen, once max_attempts candidates failed.
    """
    eps = as_rational(epsilon)
    if eps <= 0:
        raise InputError("epsilon: must be positive")
    integer(max_attempts, "max_attempts", 1)
    rng = SplitMix64(seed)
    step = eps / _OFFSET_GRID
    last_certificate = None
    for _ in range(max_attempts):
        moved = [
            tuple(x + d for x, d in zip(p, _ball_offset(rng, config.dimension, step)))
            for p in config.points
        ]
        # keyed on integer pairs: hashing a Fraction costs a modular inverse
        distinct = {tuple((x.numerator, x.denominator) for x in p) for p in moved}
        if len(distinct) < len(moved):
            continue
        candidate = Configuration(config.dimension, tuple(moved), config.labels)
        verdict = decide_all_projections(candidate)
        if verdict.generic:
            return candidate
        last_certificate = verdict.certificate
    raise PerturbationError(max_attempts, last_certificate)
