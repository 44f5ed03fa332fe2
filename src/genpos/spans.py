"""Decide a configuration generic from the star forests of its top level.

A star forest is a family of disjoint groups of points; its edges are the
difference vectors from each group's first point to its later members, in
canonical order: groups by increasing first point, members increasing. Let
K = min(N - 1, n - 2), the top level of the decide search. A configuration
is generic if every K-edge star forest has rank K and no two K-edge forests
that share their first K - 1 edges span the same space:

- a violation at a level j < K is a dependent forest of j + 1 edges.
  Extended in the graphic matroid (the forests of the complete graph on the
  points) to K edges, it stays dependent, and its star form, the star from
  each tree's first point, spans what it spans: a K-edge star forest of
  rank below K;
- a violation at level K is a family of K + 1 edges spanning K dimensions.
  Without its last edge, or without its second-to-last one, it leaves two
  K-edge star forests that share its first K - 1 edges; if both have rank
  K, both span the family's span.

spans_distinct tests this on the first K + 1 coordinates, which only makes
it harder to meet: a projected forest of rank K has rank K, and projected
spans that differ come from spans that differ. It walks the (K - 2)-edge
prefixes on one IncrementalSpan and gives up on a prefix edge that is
dependent or whose pivot is not 0, so that each stored row eliminates the
next coordinate and a point's image has three entries, for coordinates
K - 2, K - 1 and K. Each next edge v of a prefix keys every edge w that may
follow it by the two 2 x 2 minors (v0 w1 - v1 w0, v0 w2 - v2 w0) of their
images, rounded to one float by _shadow_key. Up to a non-zero factor that
depends on the prefix alone (a product of its pivots), these are the K x K
minors of the forest on coordinates 0..K - 1 and on 0..K - 2 and K: a
forest of rank below K has both zero, and two of rank K with one span have
proportional minors, so one key. A zero pair or a repeated
key gives up; keys that repeat only because they round alike give up too,
which sends the configuration on to the decide walks. Each v's keys go in a
set of their own, dropped with it. The minors are linear in w's image, so
each point is mapped once per v to the pair of minors of v with its image,
and the key of w is _shadow_key of the pairs of its two points.
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
    prefix on to its tails, an item on to its exact key, which decides, or
    spans_distinct to give up."""
    x, y = tip[0] - head[0], tip[1] - head[1]
    if abs(y) <= abs(x):
        return y / x if x else None
    return 3.0 + x / y


def spans_distinct(points, top: int) -> bool:
    """Whether the K-edge star forests of the integer points, K = top >= 2,
    have rank K and distinct spans wherever they share their first K - 1
    edges, tested on the first K + 1 coordinates as the module docstring
    sets out. True means the configuration is generic; False decides
    nothing."""
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
            pairs = [
                (v0 * a1 - v1 * a0, v0 * a2 - v2 * a0)
                for a0, a1, a2 in map(images.__getitem__, above)
            ]
            head = v0 * x1 - v1 * x0, v0 * x2 - v2 * x0
            keys = [_shadow_key(head, p) for i, p in zip(above, pairs) if i > m]
            keys += starmap(_shadow_key, combinations(pairs, 2))
            unique = set(keys)
            if None in unique or len(unique) < len(keys):
                return False
        return True

    def walk(edges: int, base: int, last: int) -> bool:
        """Whether every prefix of `edges` more edges after the placed ones
        keeps its pivots at 0 and passes distinct."""
        if not edges:
            return distinct(base, last)
        for b, m in later(base, last):
            if not span.add_row(list(map(sub, rows[m], rows[b]))) or span.rows[-1][0]:
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
