"""Primitive geometric predicates: orientation and segment intersection.

These are the leaves every higher-level routine (point location, DE-9IM,
overlay, hull) rests on. Orientation uses a relative-epsilon filter around
the 2x2 determinant: exact enough for the coordinate magnitudes the
benchmark generates (a state-sized plane, |coord| < 1e7) while staying
pure Python.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple, Union

from repro.geometry.base import Coord

# Relative tolerance for the orientation determinant. The determinant of
# three points with magnitude M carries roundoff ~ M^2 * 2^-52; a filter a
# few orders above that treats near-degenerate triples as collinear, which
# is the stable choice for benchmark data snapped to a grid.
_REL_EPS = 1e-12


def orientation(a: Coord, b: Coord, c: Coord) -> int:
    """Sign of the signed area of triangle abc: 1 = ccw, -1 = cw, 0 = collinear.

    The zero filter has two parts: a term relative to the determinant's own
    operands (roundoff of this computation) and a floor proportional to
    coordinate magnitude times the ab span — the error a *derived* input
    point (e.g. a previously computed segment intersection) carries is
    ``eps * |coord|``, which the purely relative term misses when ``c``
    happens to land near ``a`` or ``b``.
    """
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    scale = (
        abs(b[0] - a[0]) * abs(c[1] - a[1]) + abs(b[1] - a[1]) * abs(c[0] - a[0])
    )
    magnitude = max(
        abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1]), abs(c[0]), abs(c[1])
    )
    span = abs(b[0] - a[0]) + abs(b[1] - a[1])
    if abs(det) <= _REL_EPS * (scale + magnitude * span):
        return 0
    return 1 if det > 0.0 else -1


def collinear(a: Coord, b: Coord, c: Coord) -> bool:
    return orientation(a, b, c) == 0


def on_segment(p: Coord, a: Coord, b: Coord) -> bool:
    """True iff point ``p`` lies on the closed segment ``ab``."""
    ax, ay = a
    bx, by = b
    eps = _REL_EPS * max(abs(ax), abs(ay), abs(bx), abs(by), 1.0)
    px, py = p
    # bounds first: four comparisons reject what an orientation would
    if ax <= bx:
        if px < ax - eps or px > bx + eps:
            return False
    elif px < bx - eps or px > ax + eps:
        return False
    if ay <= by:
        if py < ay - eps or py > by + eps:
            return False
    elif py < by - eps or py > ay + eps:
        return False
    return orientation(a, b, p) == 0


SegmentIntersection = Union[None, Coord, Tuple[Coord, Coord]]


def segment_intersection(
    a: Coord, b: Coord, c: Coord, d: Coord
) -> SegmentIntersection:
    """Intersection of closed segments ab and cd.

    Returns ``None`` (disjoint), a single coordinate (point intersection,
    including endpoint touches), or a coordinate pair (collinear overlap,
    ordered along the shared line).
    """
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)

    if o1 != o2 and o3 != o4 and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return _proper_intersection_point(a, b, c, d)

    if o1 == 0 and o2 == 0 and o3 == 0 and o4 == 0:
        return _collinear_overlap(a, b, c, d)

    # touching cases: one endpoint on the other segment
    touches = []
    if o1 == 0 and on_segment(c, a, b):
        touches.append(c)
    if o2 == 0 and on_segment(d, a, b):
        touches.append(d)
    if o3 == 0 and on_segment(a, c, d):
        touches.append(a)
    if o4 == 0 and on_segment(b, c, d):
        touches.append(b)
    if not touches:
        # General position but the straddle test failed: disjoint.
        if o1 != o2 and o3 != o4:
            return _proper_intersection_point(a, b, c, d)
        return None
    unique = sorted(set(touches))
    if len(unique) == 1:
        return unique[0]
    return (unique[0], unique[-1])


def _proper_intersection_point(a: Coord, b: Coord, c: Coord, d: Coord) -> Coord:
    rx, ry = b[0] - a[0], b[1] - a[1]
    sx, sy = d[0] - c[0], d[1] - c[1]
    denom = rx * sy - ry * sx
    if denom == 0.0:  # numerically parallel despite straddle: midpoint fallback
        return ((a[0] + b[0] + c[0] + d[0]) / 4.0, (a[1] + b[1] + c[1] + d[1]) / 4.0)
    t = ((c[0] - a[0]) * sy - (c[1] - a[1]) * sx) / denom
    t = min(1.0, max(0.0, t))
    return (a[0] + t * rx, a[1] + t * ry)


def _collinear_overlap(
    a: Coord, b: Coord, c: Coord, d: Coord
) -> SegmentIntersection:
    # project on the dominant axis of ab
    if abs(b[0] - a[0]) >= abs(b[1] - a[1]):
        key = lambda p: p[0]  # noqa: E731
    else:
        key = lambda p: p[1]  # noqa: E731
    lo1, hi1 = sorted((a, b), key=key)
    lo2, hi2 = sorted((c, d), key=key)
    lo = max(lo1, lo2, key=key)
    hi = min(hi1, hi2, key=key)
    if key(lo) > key(hi):
        return None
    if lo == hi or key(lo) == key(hi):
        return lo
    return (lo, hi)


def segments_properly_cross(a: Coord, b: Coord, c: Coord, d: Coord) -> bool:
    """True iff ab and cd cross at a single interior point of both."""
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    return o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0 and o1 != o2 and o3 != o4


def point_segment_distance(p: Coord, a: Coord, b: Coord) -> float:
    """Distance from point ``p`` to the closed segment ``ab``."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        return math.hypot(p[0] - a[0], p[1] - a[1])
    t = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / seg2
    t = max(0.0, min(1.0, t))
    return math.hypot(p[0] - (a[0] + t * dx), p[1] - (a[1] + t * dy))


def segment_segment_distance(a: Coord, b: Coord, c: Coord, d: Coord) -> float:
    """Distance between closed segments (0 when they intersect)."""
    if segment_intersection(a, b, c, d) is not None:
        return 0.0
    return min(
        point_segment_distance(a, c, d),
        point_segment_distance(b, c, d),
        point_segment_distance(c, a, b),
        point_segment_distance(d, a, b),
    )
