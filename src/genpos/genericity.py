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
therefore walks the levels k = 1..min(N - 1, n - 2) (_levels), each through
the group sizes with sum(size - 1) = k + 1 that fit, in canonical order
(descending partitions, largest first), built by _level_sizes only for a
level that is walked, and returns the lexicographically first violating
point assignment of the first pattern that has one, as a reproducible
certificate. The oracle's exhaustive mode draws every larger sum from
_level_sizes too.

Pattern k is searched only after every smaller k came back empty, so any k
vectors of a family are independent, and a family violates iff its last two
vectors are parallel modulo the span of the other k - 1. The search places
those k - 1 vectors (the prefix) in lexicographic order and decides the last
two (the tail: two more members of a group, a new triple, a group's last
member and a new chord, or two new chords) by hashing their directions
modulo the prefix span into buckets, the degeneracy-testing view of
Gajentaan and Overmars. The search reads one input, the configuration's
integer points. A prefix adds the plain differences p_m - p_b of its groups
to an IncrementalSpan, which stores each as its primitive image
(IncrementalSpan.image, the program's one elimination, a linear map whose
kernel is the span); for k = 1 the prefix and its span are empty, and a
point is its own image, so the k = 1 walk maps none. Every other prefix
maps the points its tails reach once, on first use. Each prefix keys the
vector from point b to point m exactly by image(p_m) - image(p_b), divided
by its gcd and sign-normalised, so the sign of a stored row changes no
key, and by its shadow key: the correctly
rounded ratio of the two entries of the difference of the two points'
shadows, the first two entries of their images (k < N leaves at least two),
smaller over larger so that it never overflows (see _shadow_key), or None
where that difference is zero. Parallel image differences have parallel or
zero shadows, so equal keys have equal shadow keys.

Each tail keys its items (the members of a group, or chords) by shadow
first, and exactly only those whose shadow key another item shares (for a
member and a chord, an item of the other kind): on a Cantor graph stage of
128 points the (3,) tail keys 10 of its 127 members exactly. One scan of
those exact keys (_first_pair) finds the lexicographically first family, or
none. Only the shadow key rounds, and its rounding is a function of an
exact ratio of integers; everything else is integer arithmetic, and the
verdict reads only exact integer keys. For k = 1 the tails find a collinear
triple (3,) or two disjoint parallel chords (2, 2), in O(n^2) expected time.

The patterns of one k are searched together: those that place the same
prefixes share one walk over them, and each prefix maps its points once for
all of them and drops the images with the prefix. A walk places only
prefixes that a tail can complete: the first point of each prefix group
leaves room above it for the family points that must lie there (its own
later points, the groups ordered above it, and the fewest tail points that
any of the walk's patterns puts above the last group: 2 for a last group of
4 or more, 3 for a new triple and 4 for two chords that start above it, 1
for a group's last member, else 0), and a pattern's tail runs only when its
free points can hold it; on 8 points in dimension 4 the walk of (2, 2, 2, 2)
places 55 prefixes instead of 210. A pruned prefix has no tail, so the same
search, one path for every k, returns the lexicographically first family
that a depth-first search over all k + 1 vectors would find. The oracle
tests each family, and the certificate picks its witness, by
geometry.difference_basis.

A generic input is where no walk exits early, so decide settles a level
before its walks where genpos.spans.spans_distinct holds on it: level 1
before the k = 1 walk, and the top level K = min(N - 1, n - 2) before the
k >= 2 walks, which settles the configuration generic. It holds on level K
when every K-edge star forest (a family whose vector count is K) has rank K
and no two that share their first K - 1 vectors span one space; a violation
at a level below K extends to a forest of rank below K, and one at level K
drops its last or its second-to-last vector to give two forests of one
span. It keys each forest by the shadow key of a pair linear in its last
vector, and gives up on a zero pair, a repeated key or a dependent vector
(see genpos.spans); at level 1 it keys every chord by its first two
coordinates and stops at the first key that is None or repeats, so an early
violation costs a few keys. Where it gives up, the walks run as set out
above, so every certificate is the walks'. classical walks the same levels,
one pattern (k + 2,) each, and asks level 1 before its walk of triples.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, repeat, starmap
from math import gcd
from operator import sub

from .errors import InputError, OracleGuardError
from .geometry import Configuration, Subspace, difference_basis, subspace_to_json
from .linalg import IncrementalSpan, _Record, integer
from .spans import _shadow_key, spans_distinct

ORACLE_DEFAULT_MAX_POINTS = 12


class DegeneracyPattern(_Record):
    """Group sizes plus a span bound k describing a degeneracy to avoid.

    Sizes are kept as a descending multiset; validity requires every size to
    be at least 2 and sum(size - 1) >= k + 1. A bound k means something only
    below the ambient dimension N: minimal_patterns refuses k >= N, and the
    certificate's k, the span dimension of a violating family, is below N.
    """

    __slots__ = ("k", "sizes")

    def __init__(self, k: int, sizes):
        integer(k, "k", 1)
        if not isinstance(sizes, (list, tuple)):
            raise InputError("sizes: missing or not a list")
        sizes = [integer(s, f"sizes[{i}]", 2) for i, s in enumerate(sizes)]
        if not sizes:
            raise InputError("sizes: at least one group is required")
        if sum(sizes) - len(sizes) < k + 1:
            raise InputError(
                f"sizes: sum(size - 1) = {sum(sizes) - len(sizes)} "
                f"must be at least k+1 = {k + 1}"
            )
        super().__init__(k, tuple(sorted(sizes, reverse=True)))


class Certificate(_Record):
    """A violating family together with the projection kernel it induces:
    its DegeneracyPattern, its groups of point indices and the witness
    Subspace."""

    __slots__ = ("pattern", "groups", "witness")


class Verdict(_Record):
    """generic, and for a violation the Certificate that shows it."""

    __slots__ = ("generic", "certificate")

    def __init__(self, generic: bool, certificate: Certificate | None = None):
        if generic != (certificate is None):
            raise ValueError("generic verdicts carry no certificate, violations must")
        super().__init__(generic, certificate)


def _partitions_desc(total: int, max_parts: int):
    """Partitions of `total` into at most max_parts parts >= 1, descending,
    largest-first order. Only those are built: a first part below
    remaining / parts_left could not be completed, so it is never tried.
    """

    def rec(remaining: int, max_part: int, parts_left: int):
        if remaining == 0:
            yield ()
            return
        smallest = -(-remaining // parts_left)
        for first in range(min(remaining, max_part), smallest - 1, -1):
            for rest in rec(remaining - first, first, parts_left - 1):
                yield (first,) + rest

    yield from rec(total, total, max_parts)


def minimal_patterns(k: int, dimension: int) -> list[DegeneracyPattern]:
    """All patterns with sum(size - 1) exactly k + 1, in canonical order:
    level k's sizes on 2k + 2 points, which every one of them fits."""
    if integer(k, "k", 1) >= integer(dimension, "dimension", 1):
        raise InputError(f"k: {k} is not below the ambient dimension {dimension}")
    return [DegeneracyPattern(k, sizes) for sizes in _level_sizes(k, 2 * k + 2)]


def _levels(dimension: int, n: int) -> range:
    """The levels k = 1..min(N - 1, n - 2), the top level last: k < N, and
    level k's patterns need k + 2 points."""
    return range(1, min(dimension, n - 1))


def _level_sizes(k: int, n: int, minimal_only: bool = True) -> list:
    """Level k's group sizes that fit n points, in canonical order, with
    sum(size - 1) = k + 1, or with minimal_only=False every sum from k + 1
    up. A pattern of `total` vectors has total + groups points, so it fits
    iff it has at most n - total groups; only those partitions are built."""
    return [
        tuple(part + 1 for part in partition)
        for total in range(k + 1, k + 2 if minimal_only else n)
        for partition in _partitions_desc(total, n - total)
    ]


def _build_certificate(
    config: Configuration, groups: tuple[tuple[int, ...], ...]
) -> Certificate:
    """Certificate from a violating family: witness is the span of its vectors.

    The witness generators are the family's difference_basis, so the span is
    unchanged but redundant vectors are dropped. The differences are taken
    on the integer lattice and the witness is built on it, over the
    configuration's denominator. The recorded k is the actual span dimension.
    """
    basis = difference_basis(config.integer_points, groups)
    witness = Subspace._on_lattice(config.dimension, config.denominator, basis)
    pattern = DegeneracyPattern(witness.dim, tuple(len(g) for g in groups))
    return Certificate(pattern, groups, witness)


def _prefixes(
    points,
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
    empty on entry, holds the vectors of the prefix drawn last: the plain
    differences p_m - p_b of the integer points are added and rolled back
    along the placement.

    need[j] is the number of family points that must lie above the first
    point of group j: its own counts[j] - 1 later points; where equal[j],
    also group j + 1's first point and the need[j + 1] points above that;
    and for the last group the `tail` points that every tail puts above its
    first point. Those points are distinct, so group j's first point stops
    at n - need[j]: above it, fewer than need[j] indices are left.
    """
    n = len(points)
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
        base = points[group[0]]
        for m in range(start, n):
            if not used[m]:
                rank = span.rank
                span.add_row([x - y for x, y in zip(points[m], base)])
                used[m] = True
                group.append(m)
                yield from extend(j, m + 1)
                group.pop()
                used[m] = False
                span.rollback(rank)

    yield from place(0, 0)


def _first_pair(firsts, seconds):
    """(a, b) for the smallest item a of `firsts` that shares a key with an
    item b != a of `seconds`, with the first such b, or None.

    Both iterables yield (key, item) with items increasing. Passed one keyed
    list twice, the answer is the bucket whose smallest item is smallest,
    with the second item of that bucket; passed members and chords, it is
    the smallest member that shares a key with a chord, with the first such
    chord, and two members or two chords sharing a key count for nothing.
    """
    first: dict = {}
    for key, item in firsts:
        first.setdefault(key, item)
    best = None
    for key, item in seconds:
        earlier = first.get(key, item)
        if earlier != item and (best is None or earlier < best[0]):
            best = (earlier, item)
    return best


def _shared(items, keys) -> list:
    """The items, in their order, whose key another item shares."""
    counts = Counter(keys)
    return [item for item, key in zip(items, keys) if counts[key] > 1]


def _two_members(group: tuple[int, ...], free: list[int], key, shadow):
    """The group extended by its first two later members whose vectors are
    parallel modulo the span, or None. Only the members whose shadow key
    another member shares are keyed exactly."""
    base, after = group[0], group[-1]
    members = [m for m in free if m > after]
    members = _shared(members, list(map(shadow, repeat(base), members)))
    keyed = list(zip(map(key, repeat(base), members), members))
    pair = _first_pair(keyed, keyed)
    return None if pair is None else group + pair


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


def _tail(sizes: tuple[int, ...], prefix, free: list[int], key, shadow):
    """The first family of the pattern that extends the prefix with two
    vectors parallel modulo its span, drawing new points from `free`, or
    None.

    Equal keys have equal shadow keys, so every item is keyed by `shadow`
    first, and only the items whose shadow key another item shares (for a
    member and a chord, an item of the other kind) are keyed exactly by
    `key`. The items dropped share no key, so the family is unchanged."""
    *head, last = sizes
    if last > 3:
        group = _two_members(prefix[-1], free, key, shadow)
        return None if group is None else prefix[:-1] + (group,)
    if last == 3:
        for base in free[:-2]:
            group = _two_members((base,), free, key, shadow)
            if group is not None:
                return prefix + (group,)
        return None
    chord_shadows = list(starmap(shadow, combinations(free, 2)))
    if head[-1] == 2:
        chords = _shared(combinations(free, 2), chord_shadows)
        keyed = list(zip(starmap(key, chords), chords))
        pair = _first_pair(keyed, keyed)
        return None if pair is None else prefix + pair
    *groups, group = prefix
    members = [m for m in free if m > group[-1]]
    member_shadows = list(map(shadow, repeat(group[0]), members))
    common = set(member_shadows).intersection(chord_shadows)
    if not common:
        return None
    members = [m for m, s in zip(members, member_shadows) if s in common]
    chords = [c for c, s in zip(combinations(free, 2), chord_shadows) if s in common]
    pair = _first_pair(
        zip(map(key, repeat(group[0]), members), members),
        zip(starmap(key, chords), chords),
    )
    return None if pair is None else (*groups, group + (pair[0],), pair[1])


def _first_violation(
    patterns: list[tuple[int, ...]], points
) -> tuple[tuple[int, ...], ...] | None:
    """Lexicographically first family of the first of the patterns, group
    sizes all of one k, whose k + 1 vectors span at most k dimensions, or None.

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
    prefix: a collinear triple (3,) or two parallel chords (2, 2), keyed by
    the same key on the empty span, under which a point is its own image.

    `points` are the configuration's integer points, the search's one input.
    Patterns whose prefixes place the same number of points in each group,
    and order the same groups of equal size, place the same prefixes, so
    they share one walk. Each prefix maps each point its tails reach once,
    on first use (into a list dropped with the prefix); the empty prefix
    maps none, since its points are their own images. It runs the tail
    of every live pattern in canonical order, each on its own free indices
    when they can hold it; the walk skips prefixes that leave too few
    indices for the fewest tail points among its patterns (see _prefixes).
    Each tail keys its items by the closure shadow, which maps the points,
    and exactly (reduced) only those whose shadow key another item shares;
    the exact keys decide.
    A pattern that hits is dropped with every later one, while earlier ones
    walk on, so the earliest pattern with a violation wins with its first
    family.
    Walks run in the order of their first patterns, so once a walk has no
    live pattern, no later one has. Before the winner hits, a later pattern
    may hit on items that share a point: that completes a family of an
    earlier pattern, which therefore hits too.
    """
    n = len(points)
    walks: dict = {}
    for index, sizes in enumerate(patterns):
        counts, equal, above, joined = _plan(sizes)
        size = sum(sizes) - sum(counts)  # the tail's points
        walks.setdefault((counts, equal), []).append(
            (index, sizes, above, joined, size)
        )
    best, family = len(patterns), None
    span = IncrementalSpan(len(points[0]))
    image = span.image
    zeros = (0,) * span.dimension

    def shadow(b: int, m: int) -> float | None:
        """The shadow key of p_m - p_b modulo the prefix span: _shadow_key of
        the first two entries of the two points' images. It is the one place
        a tail maps a point, on first use, into the images reduced reads."""
        head, tip = images[b], images[m]
        if head is None:
            head = images[b] = image(points[b])
        if tip is None:
            tip = images[m] = image(points[m])
        return _shadow_key(head, tip)

    def reduced(b: int, m: int) -> tuple[int, ...]:
        """The direction of p_m - p_b modulo the prefix span: the difference
        of the two points' images under the span's quotient map, divided by
        the gcd of its entries and signed so that its first non-zero entry
        is positive. The map is linear with the span as its kernel, so the
        key is unique to the direction modulo the span. The search keys
        only vectors independent of the prefix span, so it is never zero.
        Every tail keys a pair by shadow before it keys it here, so both
        images are already mapped."""
        row = tuple(map(sub, images[m], images[b]))
        g = gcd(*row)
        if row < zeros:
            g = -g
        return row if g == 1 else tuple([x // g for x in row])

    for (counts, equal), members in walks.items():
        # Tail points above the first point of the prefix's last group: all
        # of them where the tail starts above it, else those that join it.
        tail = min(size if above else joined for *_, above, joined, size in members)
        for prefix, used in _prefixes(points, counts, equal, tail, span):
            if members[0][0] >= best:
                return family
            # Point images under this prefix's span; the empty span of the
            # k = 1 walk maps every point to itself.
            images = [None] * n if span.rank else points
            for index, sizes, above, joined, size in members:
                if index >= best:
                    break
                start = prefix[-1][0] + 1 if above else 0
                free = [i for i in range(start, n) if not used[i]]
                # No tail fits in fewer free points, or with fewer above the
                # last point of the group its members join.
                if len(free) < size or joined and free[-joined] < prefix[-1][-1]:
                    continue
                hit = _tail(sizes, prefix, free, reduced, shadow)
                if hit is not None:
                    best, family = index, hit
                    break
    return family


def decide_all_projections(config: Configuration) -> Verdict:
    """Verdict over every projection kernel at once.

    Generic iff no family of disjoint groups has a deficient difference-vector
    span. One-point configurations and dimension 1 are generic by vacuity:
    no pattern fits them. spans_distinct on level 1 clears k = 1 or gives
    up, and then the k = 1 walk runs. Once k = 1 has no violation,
    spans_distinct on the top level K = min(N - 1, n - 2) either settles the
    configuration generic or gives up, and then the walks of k = 2..K run.
    A level's sizes are built only for its walk. The search and the
    certificate run on the integer lattice; the witness basis is rational.
    """
    points = config.integer_points
    levels = _levels(config.dimension, len(points))
    for k in levels:
        if k == 1 and spans_distinct(points, 1):
            continue
        if k == 2 and spans_distinct(points, levels[-1]):
            return Verdict(True)
        groups = _first_violation(_level_sizes(k, len(points)), points)
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

    Enumerates every pattern and every family without pruning; a family
    violates its pattern when its difference_basis has at most k vectors.
    The levels and their sizes are the engine's (_levels, _level_sizes):
    with minimal_only=False every sum(size - 1) from k + 1 up that fits the
    point count, not just k + 1. Refuses configurations above max_points.
    """
    n = len(config)
    if n > integer(max_points, "max_points", 1):
        raise OracleGuardError(
            f"brute force refused: {n} points exceeds the guard of {max_points}"
        )
    points = config.integer_points
    for k in _levels(config.dimension, n):
        for sizes in _level_sizes(k, n, minimal_only):
            for groups in _canonical_families(n, sizes):
                if len(difference_basis(points, groups)) <= k:
                    return Verdict(False, _build_certificate(config, groups))
    return Verdict(True)


class ClassicalReport(_Record):
    """Classical general position: affine independence of all small subsets.
    The witness, where they are not, is the tuple of indices of a smallest
    dependent subset, and None otherwise."""

    __slots__ = ("in_general_position", "witness")

    def __init__(self, in_general_position: bool, witness=None):
        super().__init__(in_general_position, witness)


def classical_general_position(config: Configuration) -> ClassicalReport:
    """Every d+1 points with d <= N must be affinely independent.

    On failure the witness is a smallest affinely dependent subset, earliest
    in lexicographic order. It walks decide's levels in increasing order, so
    at level k every subset of k + 1 points is independent: a dependent
    (k + 2)-subset is a violating family of the pattern (k + 2,), and the
    decide search finds the first one. Where spans_distinct holds on level
    1, no three points are collinear, and the (3,) walk is skipped.
    """
    points = config.integer_points
    for k in _levels(config.dimension, len(points)):
        if k == 1 and spans_distinct(points, 1):
            continue
        family = _first_violation([(k + 2,)], points)
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
