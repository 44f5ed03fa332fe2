"""Decide whether a configuration is in general position under all projections.

A violation is witnessed combinatorially: pick disjoint groups of at least
two points each and form, inside every group, the difference vectors from its
first point. With m = sum(group size - 1) vectors in dimension N, a family
whose vectors span fewer than min(m, N) dimensions yields a projection kernel
(that very span) under which the per-kernel check fails. Genericity is the
absence of any such family.

It suffices to search families whose vector count lands exactly one above the
span bound: from any violating family one can drop dependent difference
vectors until m = rank + 1 while the span keeps its dimension. The engine
therefore enumerates, for each k from 1 to N-1, the group-size patterns with
sum(size - 1) = k + 1 in a fixed canonical order (sizes as descending
partitions, largest first), and returns the lexicographically first violating
point assignment of the first pattern that has one, as a reproducible
certificate.

For k = 1 the two patterns are a collinear triple (3,) and two disjoint
parallel chords (2, 2); both are collisions among sign-normalised primitive
difference directions, so they are decided by hashing directions into
buckets in O(n^2) expected time (the classical degeneracy-testing view of
Gajentaan and Overmars). For k >= 2 each pattern's point assignments are
searched depth-first in lexicographic order. Because rank only grows as
vectors are added, a branch is abandoned as soon as the accumulated vectors
span more than k dimensions, so no violating assignment is ever skipped. Both
paths return the same first family in the same canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, OracleGuardError
from .geometry import Configuration, Subspace, difference_rank, subspace_to_json
from .linalg import (
    IncrementalSpan,
    Vector,
    primitive_row,
    rank,
    vector_sub,
)

ORACLE_DEFAULT_MAX_POINTS = 12


@dataclass(frozen=True)
class DegeneracyPattern:
    """Group sizes plus a span bound k describing a degeneracy to avoid.

    Sizes are kept as a descending multiset; validity requires every size to
    be at least 2 and sum(size - 1) >= k + 1. The bound k must additionally
    satisfy 0 < k < N for the ambient dimension N at the point of use.
    """

    k: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise InputError("k: must be an integer >= 1")
        sizes = tuple(sorted((int(s) for s in self.sizes), reverse=True))
        if not sizes:
            raise InputError("sizes: at least one group is required")
        if sizes[-1] < 2:
            raise InputError("sizes: every group must have at least 2 points")
        if sum(s - 1 for s in sizes) < self.k + 1:
            raise InputError(
                f"sizes: sum(size - 1) = {sum(s - 1 for s in sizes)} "
                f"must be at least k+1 = {self.k + 1}"
            )
        object.__setattr__(self, "sizes", sizes)

    @property
    def vector_count(self) -> int:
        return sum(s - 1 for s in self.sizes)

    def validate_for(self, dimension: int) -> None:
        if self.k >= dimension:
            raise InputError(
                f"k: {self.k} is not below the ambient dimension {dimension}"
            )


@dataclass(frozen=True)
class PointGroups:
    """Disjoint groups of point indices; the first index of a group is its base."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        if not groups:
            raise InputError("groups: at least one group is required")
        seen: set[int] = set()
        for j, g in enumerate(groups):
            if not g:
                raise InputError(f"groups[{j}]: group is empty")
            for idx in g:
                if idx < 0:
                    raise InputError(f"groups[{j}]: negative index {idx}")
                if idx in seen:
                    raise InputError(f"groups: index {idx} is repeated")
                seen.add(idx)
        object.__setattr__(self, "groups", groups)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.groups)


@dataclass(frozen=True)
class Certificate:
    """A violating family together with the projection kernel it induces."""

    pattern: DegeneracyPattern
    groups: tuple[tuple[int, ...], ...]
    witness: Subspace


@dataclass(frozen=True)
class Verdict:
    generic: bool
    certificate: Certificate | None = None

    def __post_init__(self):
        if self.generic != (self.certificate is None):
            raise ValueError("generic verdicts carry no certificate, violations must")


def difference_system(config: Configuration, groups: PointGroups) -> list[Vector]:
    """All in-group difference vectors, base point to every other member."""
    n = len(config.points)
    for j, g in enumerate(groups.groups):
        for t, idx in enumerate(g):
            if idx >= n:
                raise InputError(
                    f"groups[{j}][{t}]: index {idx} out of range for "
                    f"{n} points"
                )
    vectors: list[Vector] = []
    for g in groups.groups:
        base = config.points[g[0]]
        for idx in g[1:]:
            vectors.append(vector_sub(config.points[idx], base))
    return vectors


def is_degenerate_tuple(config: Configuration, groups: PointGroups, k: int) -> bool:
    """True iff the grouped difference vectors span at most k dimensions."""
    pattern = DegeneracyPattern(k, groups.sizes)
    pattern.validate_for(config.dimension)
    return rank(difference_system(config, groups)) <= k


def _partitions_desc(total: int, max_parts: int | None = None):
    """Partitions of `total` into parts >= 1, descending, largest-first order.

    With max_parts, only partitions of at most that many parts are built: a
    first part below remaining / parts_left could not be completed, so it is
    never tried.
    """

    def rec(remaining: int, max_part: int, parts_left: int):
        if remaining == 0:
            yield ()
            return
        smallest = -(-remaining // parts_left)
        for first in range(min(remaining, max_part), smallest - 1, -1):
            for rest in rec(remaining - first, first, parts_left - 1):
                yield (first,) + rest

    yield from rec(total, total, total if max_parts is None else max_parts)


def minimal_patterns(k: int, dimension: int) -> list[DegeneracyPattern]:
    """All patterns with sum(size - 1) exactly k + 1, in canonical order."""
    if not isinstance(k, int) or k < 1:
        raise InputError("k: must be an integer >= 1")
    if k >= dimension:
        raise InputError(f"k: {k} is not below the ambient dimension {dimension}")
    return [
        DegeneracyPattern(k, tuple(part + 1 for part in partition))
        for partition in _partitions_desc(k + 1)
    ]


def _all_patterns(dimension: int, max_vectors: int) -> list[DegeneracyPattern]:
    """Every admissible pattern with sum(size - 1) up to max_vectors."""
    out: list[DegeneracyPattern] = []
    for k in range(1, dimension):
        for total in range(k + 1, max_vectors + 1):
            for partition in _partitions_desc(total):
                out.append(DegeneracyPattern(k, tuple(p + 1 for p in partition)))
    return out


def _engine_patterns(config: Configuration) -> list[DegeneracyPattern]:
    """Minimal patterns that fit the point count, for k <= min(N - 1, n - 2).

    The sizes of a pattern for k sum to k + 1 plus its number of groups, so
    it fits n points iff it has at most n - k - 1 groups; none fits once
    k > n - 2. Only fitting partitions are built.
    """
    n = len(config.points)
    return [
        DegeneracyPattern(k, tuple(part + 1 for part in partition))
        for k in range(1, min(config.dimension, n - 1))
        for partition in _partitions_desc(k + 1, n - k - 1)
    ]


def _build_certificate(
    config: Configuration, groups: tuple[tuple[int, ...], ...]
) -> Certificate:
    """Certificate from a violating family: witness is the span of its vectors.

    The witness generators are the greedy maximal independent subsequence of
    the difference system, so the span is unchanged but redundant vectors are
    dropped. The recorded k is the actual span dimension.
    """
    vectors = difference_system(config, PointGroups(groups))
    span = IncrementalSpan(config.dimension)
    basis = [v for v in vectors if span.add(v)]
    witness = Subspace(config.dimension, tuple(basis))
    pattern = DegeneracyPattern(witness.dim, tuple(len(g) for g in groups))
    return Certificate(pattern, groups, witness)


class _DifferenceRows:
    """Primitive integer rows of p_m - p_b for m > b, on the integer lattice.

    Both searches read it: the depth-first search for k >= 2 takes a group's
    rows from its base point, and the k = 1 direction buckets take their keys
    from it. Each only ever pairs a base with later points, so table[b][m] is
    defined for m > b (entries up to b are None). The rows for a base are
    built together on first use and then shared by every pattern and every
    visit; a base no search reaches costs nothing.
    """

    __slots__ = ("_points", "_rows")

    def __init__(self, config: Configuration):
        self._points = config.integer_points
        self._rows: list[list[list[int] | None] | None] = [None] * len(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def __getitem__(self, b: int) -> list[list[int] | None]:
        rows = self._rows[b]
        if rows is None:
            base = self._points[b]
            rows = [None] * (b + 1)
            rows += [
                primitive_row([x - y for x, y in zip(p, base)])
                for p in self._points[b + 1:]
            ]
            self._rows[b] = rows
        return rows


def _direction(row: list[int]) -> tuple[int, ...]:
    """The primitive row signed so that its first non-zero entry is positive.

    Points are distinct, so a difference row is never zero.
    """
    for x in row:
        if x:
            return tuple(row) if x > 0 else tuple(-y for y in row)


def _first_collision(keyed):
    """(earliest, next) for the bucket whose smallest item is smallest.

    `keyed` yields (key, item) with items increasing; a bucket is the items
    sharing a key, and only buckets of two or more items count. The answer is
    the smallest bucket minimum paired with the second item of its bucket,
    or None when no key repeats. The scan runs to the end, since a bucket
    with a smaller minimum may collide after another bucket has.
    """
    first: dict = {}
    best = None
    for key, item in keyed:
        earlier = first.setdefault(key, item)
        if earlier != item and (best is None or earlier < best[0]):
            best = (earlier, item)
    return best


def _first_collinear_triple(table: _DifferenceRows) -> tuple[int, int, int] | None:
    """Lexicographically first (a, b, c) with a < b < c and the three points
    collinear, or None.

    From each base a in increasing order the later points are bucketed by the
    direction of p_m - p_a; (b, c) are the two smallest members of the bucket
    with the smallest minimum. Expected O(n^2) time.
    """
    n = len(table)
    for a in range(n - 2):
        rows = table[a]
        hit = _first_collision((_direction(rows[m]), m) for m in range(a + 1, n))
        if hit is not None:
            return (a,) + hit
    return None


def _first_parallel_chords(
    table: _DifferenceRows,
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Lexicographically first two disjoint parallel chords, or None.

    Call only when no three points are collinear: then chords sharing a
    direction share no point, so any two pairs in a bucket form a family,
    and the lexicographically first is the bucket's two smallest pairs.
    Pairs (i, j), i < j, are bucketed by direction in lexicographic order.
    Expected O(n^2) time.
    """
    n = len(table)
    return _first_collision(
        (_direction(table[i][j]), (i, j)) for i in range(n - 1) for j in range(i + 1, n)
    )


def _first_violation(
    config: Configuration, pattern: DegeneracyPattern, table: _DifferenceRows
) -> tuple[tuple[int, ...], ...] | None:
    """Lexicographically first family matching the pattern whose vectors span
    at most k dimensions, or None.

    Groups are filled in size order; groups of equal size are forced to have
    increasing first elements, which removes permutation duplicates. Partial
    assignments whose vectors already span more than k dimensions are pruned;
    rank is monotone in the vector set, so nothing is lost.
    """
    n = len(config.points)
    k = pattern.k
    sizes = pattern.sizes
    if sum(sizes) > n:
        return None
    span = IncrementalSpan(config.dimension)
    used = [False] * n
    groups: list[list[int]] = []

    def place_group(j: int, min_first: int) -> bool:
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

    def extend(j: int, start: int) -> bool:
        group = groups[-1]
        if len(group) == sizes[j]:
            if j + 1 == len(sizes):
                return True
            min_first = group[0] + 1 if sizes[j + 1] == sizes[j] else 0
            return place_group(j + 1, min_first)
        rows = table[group[0]]
        for m in range(start, n):
            if used[m]:
                continue
            mark = span.mark()
            span.add_row(rows[m])
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


def _first_family(
    config: Configuration, pattern: DegeneracyPattern, table: _DifferenceRows
) -> tuple[tuple[int, ...], ...] | None:
    """Lexicographically first violating family of the pattern, or None.

    k = 1 goes to the direction buckets, every other k to the depth-first
    search. The (2, 2) buckets assume no collinear triple, which holds
    because the (3,) pattern comes first in canonical order.
    """
    if pattern.k > 1:
        return _first_violation(config, pattern, table)
    if pattern.sizes == (3,):
        triple = _first_collinear_triple(table)
        return None if triple is None else (triple,)
    return _first_parallel_chords(table)


def decide_all_projections(config: Configuration) -> Verdict:
    """Verdict over every projection kernel at once.

    Generic iff no family of disjoint groups has a deficient difference-vector
    span. One-point configurations and dimension 1 are generic by vacuity
    (no proper non-zero kernel or no admissible pattern exists). The search
    runs on the configuration's integer lattice; the certificate is built
    from the rational points.
    """
    if config.dimension == 1 or len(config.points) == 1:
        return Verdict(True)
    table = _DifferenceRows(config)
    for pattern in _engine_patterns(config):
        groups = _first_family(config, pattern, table)
        if groups is not None:
            return Verdict(False, _build_certificate(config, groups))
    return Verdict(True)


def _canonical_families(n: int, sizes: tuple[int, ...]):
    """All disjoint index families with the given sizes, canonical order."""

    def rec(j: int, available: list[int], min_first: int):
        if j == len(sizes):
            yield ()
            return
        size = sizes[j]
        for comb in combinations(available, size):
            if comb[0] < min_first:
                continue
            chosen = set(comb)
            rest = [i for i in available if i not in chosen]
            nxt = comb[0] + 1 if j + 1 < len(sizes) and sizes[j + 1] == size else 0
            for tail in rec(j + 1, rest, nxt):
                yield (comb,) + tail

    yield from rec(0, list(range(n)), 0)


def decide_all_projections_oracle(
    config: Configuration,
    max_points: int = ORACLE_DEFAULT_MAX_POINTS,
    minimal_only: bool = True,
) -> Verdict:
    """Brute-force cross-check of decide_all_projections.

    Enumerates every pattern and every family without pruning, testing each
    with is_degenerate_tuple. With minimal_only=False the patterns cover all
    sums up to the point count instead of just k + 1. Refuses configurations
    above max_points.
    """
    n = len(config.points)
    if n > max_points:
        raise OracleGuardError(
            f"brute force refused: {n} points exceeds the guard of {max_points}"
        )
    if config.dimension == 1 or n == 1:
        return Verdict(True)
    if minimal_only:
        patterns = _engine_patterns(config)
    else:
        patterns = [p for p in _all_patterns(config.dimension, n) if sum(p.sizes) <= n]
    for pattern in patterns:
        for groups in _canonical_families(n, pattern.sizes):
            if is_degenerate_tuple(config, PointGroups(groups), pattern.k):
                return Verdict(False, _build_certificate(config, groups))
    return Verdict(True)


@dataclass(frozen=True)
class ClassicalReport:
    """Classical general position: affine independence of all small subsets."""

    in_general_position: bool
    witness: tuple[int, ...] | None = None


def classical_general_position(config: Configuration) -> ClassicalReport:
    """Every d+1 points with d <= N must be affinely independent.

    On failure the witness is a smallest affinely dependent subset, earliest
    in lexicographic order. Three points are dependent iff collinear, so size
    3 is the direction-bucket search; larger sizes test every subset.
    """
    points = config.integer_points
    n = len(points)
    top = min(n, config.dimension + 1)
    if top >= 3:
        triple = _first_collinear_triple(_DifferenceRows(config))
        if triple is not None:
            return ClassicalReport(False, triple)
    for size in range(4, top + 1):
        for subset in combinations(range(n), size):
            if difference_rank(points, subset) < size - 1:
                return ClassicalReport(False, subset)
    return ClassicalReport(True)


def certificate_to_json(certificate: Certificate) -> dict:
    return {
        "k": certificate.pattern.k,
        "groups": [list(g) for g in certificate.groups],
        "witness_H": subspace_to_json(certificate.witness),
    }


def verdict_to_json(verdict: Verdict) -> dict:
    if verdict.generic:
        return {"generic": True}
    return {"generic": False, "certificate": certificate_to_json(verdict.certificate)}
