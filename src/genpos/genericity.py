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

Pattern k is searched only after every smaller k came back empty, so any k
vectors of a family are independent, and a family violates iff its last two
vectors are parallel modulo the span of the other k - 1. The search places
those k - 1 vectors (the prefix) in lexicographic order and decides the last
two by hashing their directions modulo the prefix span into buckets, the
degeneracy-testing view of Gajentaan and Overmars. Each prefix maps the
points its tails reach once, by the span's quotient map
(IncrementalSpan.image, the program's one elimination, which also reduces
each prefix vector the span stores), and keys the vector from point b to
point m by image(p_m) - image(p_b), divided by its gcd and sign-normalised;
a tail whose keys are all distinct is rejected by comparing the size of
their set with their number, and only a repeat runs the ordered scan for the
lexicographically first family. For k = 1 the prefix is empty: a collinear
triple (3,) or two disjoint parallel chords (2, 2), in O(n^2) expected time.
The patterns of one k are searched together: those that place the same
prefixes share one walk over them, and each prefix's keys are computed once
for all of them and dropped with the prefix. A walk places only prefixes that
a tail can complete: the first point of each prefix group leaves room above
it for the family points that must lie there (its own later points, the
groups ordered above it, and the fewest tail points that any of the walk's
patterns puts above the last group), and a pattern's tail runs only when its
free points can hold it. A pruned prefix has no tail, so the same search, one
path for every k, returns the lexicographically first family that a
depth-first search over all k + 1 vectors would find.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby, repeat, starmap
from math import gcd

from .errors import InputError, OracleGuardError
from .geometry import Configuration, Subspace, subspace_to_json
from .linalg import IncrementalSpan, Vector, integer, rank, vector_sub

ORACLE_DEFAULT_MAX_POINTS = 12


def _require_below(k: int, dimension: int) -> None:
    """The one check that a span bound k is below the ambient dimension."""
    if k >= dimension:
        raise InputError(f"k: {k} is not below the ambient dimension {dimension}")


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
        integer(self.k, "k", 1)
        sizes = [integer(s, f"sizes[{i}]", 2) for i, s in enumerate(self.sizes)]
        sizes = tuple(sorted(sizes, reverse=True))
        if not sizes:
            raise InputError("sizes: at least one group is required")
        if sum(s - 1 for s in sizes) < self.k + 1:
            raise InputError(
                f"sizes: sum(size - 1) = {sum(s - 1 for s in sizes)} "
                f"must be at least k+1 = {self.k + 1}"
            )
        object.__setattr__(self, "sizes", sizes)

    def validate_for(self, dimension: int) -> None:
        _require_below(self.k, dimension)


@dataclass(frozen=True)
class PointGroups:
    """Disjoint groups of point indices; the first index of a group is its base."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        groups = tuple(
            tuple(integer(idx, f"groups[{j}][{i}]", 0) for i, idx in enumerate(g))
            for j, g in enumerate(self.groups)
        )
        if not groups:
            raise InputError("groups: at least one group is required")
        seen: set[int] = set()
        for j, g in enumerate(groups):
            if not g:
                raise InputError(f"groups[{j}]: group is empty")
            for idx in g:
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
    """All in-group difference vectors, base point to every other member, as
    rational vectors. Only the brute-force oracle uses it."""
    n = len(config)
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
    _require_below(integer(k, "k", 1), integer(dimension, "dimension", 1))
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


def _engine_patterns(config: Configuration):
    """Minimal patterns that fit the point count, for k <= min(N - 1, n - 2),
    yielded in canonical order so a search that stops builds no more.

    The sizes of a pattern for k sum to k + 1 plus its number of groups, so
    it fits n points iff it has at most n - k - 1 groups; none fits once
    k > n - 2. Only fitting partitions are built.
    """
    n = len(config)
    for k in range(1, min(config.dimension, n - 1)):
        for partition in _partitions_desc(k + 1, n - k - 1):
            yield DegeneracyPattern(k, tuple(part + 1 for part in partition))


def _build_certificate(
    config: Configuration, groups: tuple[tuple[int, ...], ...]
) -> Certificate:
    """Certificate from a violating family: witness is the span of its vectors.

    The witness generators are the greedy maximal independent subsequence of
    the in-group differences, base point to every other member, so the span
    is unchanged but redundant vectors are dropped. The differences are taken
    on the integer lattice, and only the chosen ones become rational vectors.
    The recorded k is the actual span dimension.
    """
    points, den = config.integer_points, config.denominator
    span = IncrementalSpan(config.dimension)
    basis = []
    for g in groups:
        base = points[g[0]]
        for m in g[1:]:
            row = [x - y for x, y in zip(points[m], base)]
            if span.add_row(row):
                basis.append(tuple(Fraction(x, den) for x in row))
    witness = Subspace(config.dimension, tuple(basis))
    pattern = DegeneracyPattern(witness.dim, tuple(len(g) for g in groups))
    return Certificate(pattern, groups, witness)


class _DifferenceRows(dict):
    """Directions of p_m - p_b for m > b, on the integer lattice.

    table[b][m] is the difference row divided by the gcd of its entries and
    signed so that its first non-zero entry is positive, as a tuple; it is
    defined for m > b (entries up to b are None). A k = 1 key is the entry
    itself. The rows for a base are built together on first use and then
    shared by every pattern and every visit; a base no search reaches costs
    nothing.
    """

    __slots__ = ("dimension", "points")

    def __init__(self, config: Configuration):
        super().__init__()
        self.dimension = config.dimension
        self.points = config.integer_points

    def __missing__(self, b: int) -> list[tuple[int, ...] | None]:
        base = self.points[b]
        rows: list[tuple[int, ...] | None] = [None] * (b + 1)
        for p in self.points[b + 1:]:
            row = [x - y for x, y in zip(p, base)]  # non-zero: points differ
            g = gcd(*row)
            for x in row:
                if x:
                    break
            if x < 0:
                g = -g
            rows.append(tuple(row) if g == 1 else tuple([y // g for y in row]))
        self[b] = rows
        return rows


def _prefixes(
    table: _DifferenceRows,
    counts: tuple[int, ...],
    equal: tuple[bool, ...],
    tail: int,
    span: IncrementalSpan,
):
    """The first counts[j] points of every group j, in canonical order, each
    prefix with the flags of the indices it uses, skipping prefixes that no
    tail can complete.

    Groups are increasing, and where equal[j] (groups j and j + 1 have equal
    sizes) group j + 1 starts above the first element of group j. `span`,
    empty on entry, holds the vectors of the prefix drawn last: rows are
    added and rolled back along the placement.

    need[j] is the number of family points that must lie above the first
    point of group j: its own counts[j] - 1 later points; where equal[j],
    also group j + 1's first point and the need[j + 1] points above that;
    and for the last group the `tail` points that every tail puts above its
    first point. Those points are distinct, so group j's first point stops
    at n - need[j]: above it, fewer than need[j] indices are left.
    """
    n = len(table.points)
    used = [False] * n
    groups: list[list[int]] = []
    need = [0] * len(counts)
    later = tail
    for j in reversed(range(len(counts))):
        need[j] = counts[j] - 1 + later
        later = 1 + need[j] if j and equal[j - 1] else 0

    def place(j: int, min_first: int):
        if j == len(counts):
            yield tuple(tuple(g) for g in groups), used
            return
        for first in range(min_first, n - need[j]):
            if not used[first]:
                used[first] = True
                groups.append([first])
                yield from extend(j, first + 1)
                groups.pop()
                used[first] = False

    def extend(j: int, start: int):
        group = groups[-1]
        if len(group) == counts[j]:
            above = j + 1 < len(counts) and equal[j]
            yield from place(j + 1, group[0] + 1 if above else 0)
            return
        rows = table[group[0]]
        for m in range(start, n):
            if not used[m]:
                mark = span.mark()
                span.add_row(rows[m])
                used[m] = True
                group.append(m)
                yield from extend(j, m + 1)
                group.pop()
                used[m] = False
                span.rollback(mark)

    yield from place(0, 0)


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


def _two_members(group: tuple[int, ...], free: list[int], key):
    """The group extended by its first two later members whose vectors are
    parallel modulo the span, or None."""
    base, after = group[0], group[-1]
    members = [m for m in free if m > after]
    keys = list(map(key, repeat(base, len(members)), members))
    if len(set(keys)) == len(keys):  # no key repeats: no scan
        return None
    return group + _first_collision(zip(keys, members))


def _first_member_and_chord(members, chords):
    """(member, chord) with the smallest member sharing a key with a chord,
    and the first such chord, or None.

    Both iterables yield (key, item) with items increasing. Two members or
    two chords sharing a key form no family of the shape and are ignored.
    """
    first_member: dict = {}
    for key, member in members:
        first_member.setdefault(key, member)
    best = None
    for key, chord in chords:
        member = first_member.get(key)
        if member is not None and (best is None or member < best[0]):
            best = (member, chord)
    return best


def _plan(sizes: tuple[int, ...]):
    """The prefix of the pattern's families: the points it places in each
    group, whether each prefix group has the size of the next one (which
    then starts above its first point), whether the tail's new group starts
    above the first point of the prefix's last group for that reason, and
    how many tail points join that group above its last point: two for a
    last group of 4 or more, one for the last member of a group before a
    chord."""
    *head, last = sizes
    if last > 3:
        counts, above, joined = head + [last - 2], False, 2
    elif last == 3:
        counts, above, joined = head, head[-1:] == [3], 0
    elif head[-1] == 2:
        counts, above, joined = head[:-1], head[-2:-1] == [2], 0
    else:
        counts, above, joined = head[:-1] + [head[-1] - 1], False, 1
    equal = tuple(sizes[j] == sizes[j + 1] for j in range(len(counts) - 1))
    return tuple(counts), equal, above, joined


def _tail(sizes: tuple[int, ...], prefix, free: list[int], key):
    """The first family of the pattern that extends the prefix with two
    vectors parallel modulo its span, drawing new points from `free`, or
    None."""
    *head, last = sizes
    if last > 3:
        group = _two_members(prefix[-1], free, key)
        return None if group is None else prefix[:-1] + (group,)
    if last == 3:
        for base in free[:-2]:
            group = _two_members((base,), free, key)
            if group is not None:
                return prefix + (group,)
        return None
    keys = list(starmap(key, combinations(free, 2)))
    if head[-1] == 2:
        if len(set(keys)) == len(keys):
            return None
        return prefix + _first_collision(zip(keys, combinations(free, 2)))
    *groups, group = prefix
    members = [m for m in free if m > group[-1]]
    member_keys = list(map(key, repeat(group[0], len(members)), members))
    if set(member_keys).isdisjoint(keys):
        return None
    member, chord = _first_member_and_chord(
        zip(member_keys, members), zip(keys, combinations(free, 2))
    )
    return (*groups, group + (member,), chord)


def _first_violation(
    patterns: list[DegeneracyPattern], table: _DifferenceRows
) -> tuple[tuple[int, ...], ...] | None:
    """Lexicographically first family of the first of the patterns, all of
    one k, that has k + 1 vectors spanning at most k dimensions, or None.

    Call only once every smaller k has no violation: then any k vectors of a
    family are independent, so a family violates iff its last two vectors
    are parallel modulo the span of the others. The first k - 1 vectors (the
    prefix) are placed in canonical order, and the last two are found by
    bucketing directions modulo the prefix span. By the last group sizes the
    tail is one of four shapes:

    - a last group of 4 or more: two more members of it;
    - a last group of 3: a new group of three;
    - sizes (s >= 3, 2): the last member of the s-group, then a new chord;
    - sizes (2, 2): two new chords.

    A family is its prefix followed by its tail, so the first prefix that has
    a tail, with its first tail, is the first family. k = 1 is the empty
    prefix: a collinear triple (3,) or two parallel chords (2, 2).

    Patterns whose prefixes place the same number of points in each group
    place the same prefixes, apart from the order of groups of equal size,
    so they share one walk. It orders only the groups that every one of
    them orders, and a pattern skips the prefixes out of its own order. Each
    prefix maps each point its tails reach once (into a list dropped with
    the prefix), computes its keys once (into a dict dropped with the
    prefix, when the walk has more than one pattern) and runs the tail of
    every live pattern in canonical order, each on its own free indices
    when they can hold it; the walk skips prefixes that leave too few
    indices for the fewest tail points among its patterns (see _prefixes).
    A pattern that hits is dropped with every later one, while earlier ones
    walk on, so the earliest pattern with a violation wins with its first
    family.
    Walks run in the order of their first patterns, so once a walk has no
    live pattern, no later one has. Before the winner hits, a later pattern
    may hit on items that share a point: that completes a family of an
    earlier pattern, which therefore hits too.
    """
    n = len(table.points)
    walks: dict = {}
    for index, pattern in enumerate(patterns):
        counts, equal, above, joined = _plan(pattern.sizes)
        size = sum(pattern.sizes) - sum(counts)  # the tail's points
        walks.setdefault(counts, []).append(
            (index, pattern.sizes, equal, above, joined, size)
        )
    best, family = len(patterns), None
    span = IncrementalSpan(table.dimension)
    image, points = span.image, table.points
    zeros = [0] * table.dimension

    def reduced(b: int, m: int) -> tuple[int, ...]:
        """The direction of p_m - p_b modulo the prefix span: the difference
        of the two points' images under the span's quotient map, divided by
        the gcd of its entries and signed so that its first non-zero entry
        is positive. The map is linear with the span as its kernel, so the
        key is unique to the direction modulo the span. The search keys
        only vectors independent of the prefix span, so it is never zero."""
        slot = b * n + m
        direction = keys.get(slot)
        if direction is None:
            head, tip = images[b] or point_image(b), images[m] or point_image(m)
            row = [x - y for x, y in zip(tip, head)]
            g = gcd(*row)
            if row < zeros:
                g = -g
            direction = tuple(row) if g == 1 else tuple([x // g for x in row])
            if store:
                keys[slot] = direction
        return direction

    def point_image(i: int) -> list[int]:
        images[i] = row = image(points[i])
        return row

    def entry(b: int, m: int) -> tuple[int, ...]:
        return table[b][m]

    for counts, members in walks.items():
        order = tuple(map(all, zip(*(member[2] for member in members))))
        # Tail points above the first point of the prefix's last group: all
        # of them where the tail starts above it, else those that join it.
        tail = min(size if above else joined for *_, above, joined, size in members)
        # An empty prefix (k = 1) keys on the table itself. Otherwise keys
        # are kept for the prefix only when another pattern may read them:
        # within one pattern's tail no key is computed twice.
        key = reduced if counts else entry
        store = len(members) > 1
        keys = {}
        for prefix, used in _prefixes(table, counts, order, tail, span):
            if members[0][0] >= best:
                return family
            images = [None] * n  # point images under this prefix's span
            if store:
                keys = {}
            for index, sizes, equal, above, joined, size in members:
                if index >= best:
                    break
                if equal != order and any(
                    e and prefix[j][0] > prefix[j + 1][0] for j, e in enumerate(equal)
                ):
                    continue
                start = prefix[-1][0] + 1 if above else 0
                free = [i for i in range(start, n) if not used[i]]
                # No tail fits in fewer free points, or with fewer above the
                # last point of the group its members join.
                if len(free) < size or joined and free[-joined] < prefix[-1][-1]:
                    continue
                hit = _tail(sizes, prefix, free, key)
                if hit is not None:
                    best, family = index, hit
    return family


def decide_all_projections(config: Configuration) -> Verdict:
    """Verdict over every projection kernel at once.

    Generic iff no family of disjoint groups has a deficient difference-vector
    span. One-point configurations and dimension 1 are generic by vacuity
    (no proper non-zero kernel or no admissible pattern exists). The search
    and the certificate run on the configuration's integer lattice; only the
    witness basis is built as rational vectors.
    """
    if config.dimension == 1 or len(config) == 1:
        return Verdict(True)
    table = _DifferenceRows(config)
    for _, patterns in groupby(_engine_patterns(config), lambda p: p.k):
        groups = _first_violation(list(patterns), table)
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
    n = len(config)
    if n > integer(max_points, "max_points", 1):
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
    in lexicographic order. Sizes s are tried in increasing order, so when s
    is tried every smaller subset is independent: a dependent s-subset is a
    violating family of the single-group pattern (s,) with k = s - 2, and
    the decide search finds the first one.
    """
    n = len(config)
    table = _DifferenceRows(config)
    for size in range(3, min(n, config.dimension + 1) + 1):
        family = _first_violation([DegeneracyPattern(size - 2, (size,))], table)
        if family is not None:
            return ClassicalReport(False, family[0])
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
