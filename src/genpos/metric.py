"""Exact squared Hausdorff distance between finite point sets.

Distances stay squared end to end: the Euclidean distance between rational
points is usually irrational, but every comparison we need can be decided on
squared values without leaving the rationals. The squared triangle
inequality that checks hausdorff_sq as a metric is in genpos.selftest.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .geometry import Configuration
from .linalg import distance_sq


def _directed_sq(src, dst) -> Fraction:
    return max(min(distance_sq(p, q) for q in dst) for p in src)


def hausdorff_sq(a: Configuration, b: Configuration) -> Fraction:
    """Squared Hausdorff distance, exact."""
    if a.dimension != b.dimension:
        raise InputError(
            f"dimension mismatch: {a.dimension} vs {b.dimension}"
        )
    return max(_directed_sq(a.points, b.points), _directed_sq(b.points, a.points))

