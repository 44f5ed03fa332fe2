"""Settle one level of the decide search from the star forests of its size.

A star forest is a family of disjoint groups of points; its edges are the
difference vectors from each group's first point to its later members, in
canonical order: groups by increasing first point, members increasing. Let
K >= 1 be a level, at most min(N - 1, n - 2). Every K-edge star forest has
rank K and no two K-edge forests that share their first K - 1 edges span
the same space iff no level up to K has a violation:

- a violation at a level j < K is a dependent forest of j + 1 edges.
  Extended in the graphic matroid (the forests of the complete graph on the
  points) to K edges, it stays dependent, and its star form, the star from
  each tree's first point, spans what it spans: a K-edge star forest of
  rank below K;
- a violation at level K is a family of K + 1 edges spanning K dimensions.
  Without its last edge, or without its second-to-last one, it leaves two
  K-edge star forests that share its first K - 1 edges; if both have rank
  K, both span the family's span.

So at K = 1 the check clears level 1 alone, and at the top level K =
min(N - 1, n - 2) it settles the configuration generic. spans_distinct
tests it on the first K + 1 coordinates, which only makes it harder to
meet: a projected forest of rank K has rank K, and projected spans that
differ come from spans that differ.

At K = 1 a forest is one chord, and the check keys every chord by
_shadow_key of the pair of its first two coordinates, as K >= 2 keys the
pairs below: a chord of rank below 1 there has a zero pair, and two chords
of one span have parallel pairs, so one key.

For K >= 2 it walks the (K - 2)-edge prefixes on one IncrementalSpan, whose
image is a linear map q onto three entries with the prefix span as its
kernel. A forest of the prefix, a next edge v and a last edge w has rank K
iff q(v) and q(w) are independent, and two such forests that differ in w
alone span one space iff their q(w) span one plane with q(v). Each v
therefore keys every edge w that may follow it by L(q(w)), where L is a
linear map onto two entries whose kernel is the line of q(v) = (v0, v1, v2):
the two 2 x 2 minors (v0 w1 - v1 w0, v0 w2 - v2 w0) where v0 != 0, else
(w0, v1 w2 - v2 w1). A forest of rank below K then has a zero pair, and two
of one span have parallel pairs, so one key. Each v's keys go in a set of
their own, dropped with it. The pair is linear in q(w), so each point is
mapped once per v to the pair of its image, and the key of w is
_shadow_key of the pairs of its two points.

The check gives up, deciding nothing, on a zero pair, on a repeated key
(keys that repeat only because they round alike give up too, which sends
the configuration on to the decide walks), and on a dependent edge: a
prefix edge in the span of the edges before it, or a v with q(v) = 0.
"""

from __future__ import annotations

from itertools import combinations, starmap
from operator import sub

from .linalg import IncrementalSpan


def _shadow_key(head, tip) -> float | None:
    """The shadow key of the pair, from the difference (x, y) of its two
    shadows, the first two entries of head and tip (point images, or just
    those entries): y / x in [-1, 1] where |y| <= |x|, 3 + x / y in [2, 4]
    where |y| > |x|, or None where the shadows are equal. int / int is
    correctly rounded, so the key is a function of the exact ratio alone,
    and a ratio of magnitude at most 1 never overflows. If two image
    differences are parallel, v = c * w with c != 0, their shadows are c
    times each other or both zero, so their shadow keys are equal. Shadows
    that are not parallel may round to one key; that repeat only sends a
    tail's item on to its exact key, which decides, or spans_distinct to
    give up."""
    x, y = tip[0] - head[0], tip[1] - head[1]
    if abs(y) <= abs(x):
        return y / x if x else None
    return 3.0 + x / y


def spans_distinct(points, top: int) -> bool:
    """Whether the K-edge star forests of the integer points, K = top >= 1,
    have rank K and distinct spans wherever they share their first K - 1
    edges, tested on the first K + 1 coordinates as the module docstring
    sets out. True means no level up to K has a violation; False decides
    nothing."""
    if top == 1:
        seen = {None}
        for i, point in enumerate(points):
            for other in points[:i]:
                key = _shadow_key(other, point)
                if key in seen:
                    return False
                seen.add(key)
        return True
    n = len(points)
    rows = [point[: top + 1] for point in points]
    span = IncrementalSpan(top + 1)
    image = span.image
    used = [False] * n

    def later(base: int, last: int):
        """The edges that may follow a forest whose last group has first
        point `base` and last member `last`: a later member of that group,
        or a chord of two free points above `base`."""
        free = [i for i in range(base + 1, n) if not used[i]]
        for m in free:
            if m > last:
                yield base, m
        yield from combinations(free, 2)

    def distinct(base: int, last: int) -> bool:
        """Whether every v that may follow the placed prefix keys the w
        that may follow it distinctly, and by no zero pair."""
        free = [i for i in range(base + 1, n) if not used[i]]
        images = {i: image(rows[i]) for i in free}
        if base >= 0:
            images[base] = image(rows[base])
        for g, m in later(base, last):
            above = [i for i in free if i > g and i != m]
            if len(above) < 2 and not (above and above[0] > m):
                continue  # no w may follow v
            (x0, x1, x2), (y0, y1, y2) = images[g], images[m]
            v0, v1, v2 = y0 - x0, y1 - x1, y2 - x2
            if v0:
                pairs = [
                    (v0 * a1 - v1 * a0, v0 * a2 - v2 * a0)
                    for a0, a1, a2 in map(images.__getitem__, above)
                ]
                head = v0 * x1 - v1 * x0, v0 * x2 - v2 * x0
            elif v1 or v2:
                pairs = [
                    (a0, v1 * a2 - v2 * a1)
                    for a0, a1, a2 in map(images.__getitem__, above)
                ]
                head = x0, v1 * x2 - v2 * x1
            else:
                return False
            keys = [_shadow_key(head, p) for i, p in zip(above, pairs) if i > m]
            keys += starmap(_shadow_key, combinations(pairs, 2))
            unique = set(keys)
            if None in unique or len(unique) < len(keys):
                return False
        return True

    def walk(edges: int, base: int, last: int) -> bool:
        """Whether every prefix of `edges` more edges after the placed ones
        is independent and passes distinct."""
        if not edges:
            return distinct(base, last)
        for b, m in later(base, last):
            if not span.add_row(list(map(sub, rows[m], rows[b]))):
                return False
            new = (m,) if b == base else (b, m)
            for i in new:
                used[i] = True
            ok = walk(edges - 1, b, m)
            for i in new:
                used[i] = False
            span.rollback(span.rank - 1)
            if not ok:
                return False
        return True

    return walk(top - 2, -1, n)
