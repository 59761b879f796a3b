"""Buffer computation (``ST_Buffer``).

Strategy: a positive buffer is the union of round-capped *capsules* built
around every segment (plus the original area for polygons); discs stand in
for point buffers. Negative polygon buffers erode by subtracting boundary
capsules. All capsules of one buffer are unioned in one overlay pass
(``union_all``), so buffer quality is bounded by ``quad_segs`` exactly
like in PostGIS.
"""

from __future__ import annotations

import math
from typing import List

from repro.algorithms.overlay import difference, union_all
from repro.errors import GeometryError
from repro.geometry.base import Coord, Geometry
from repro.geometry.collection import EMPTY, GeometryCollection
from repro.geometry.linestring import LineString, MultiLineString
from repro.geometry.point import MultiPoint, Point
from repro.geometry.polygon import MultiPolygon, Polygon


def circle(center: Coord, radius: float, quad_segs: int = 8) -> Polygon:
    """A regular polygon approximating a disc (4 * quad_segs vertices)."""
    if radius <= 0.0:
        raise GeometryError("circle radius must be positive")
    n = max(4 * quad_segs, 8)
    cx, cy = center
    coords = [
        (cx + radius * math.cos(2.0 * math.pi * i / n),
         cy + radius * math.sin(2.0 * math.pi * i / n))
        for i in range(n)
    ]
    return Polygon(coords)


def segment_capsule(
    a: Coord, b: Coord, radius: float, quad_segs: int = 8
) -> Polygon:
    """A round-capped rectangle (stadium) around segment ab."""
    if a == b:
        return circle(a, radius, quad_segs)
    dx, dy = b[0] - a[0], b[1] - a[1]
    norm = math.hypot(dx, dy)
    ux, uy = dx / norm, dy / norm
    nx, ny = -uy, ux  # left normal
    base = math.atan2(ny, nx)
    n = max(quad_segs * 2, 4)
    coords: List[Coord] = []
    coords.append((a[0] + radius * nx, a[1] + radius * ny))
    # cap around a: sweep from +normal to -normal going through -direction
    for i in range(1, n):
        ang = base + math.pi * i / n
        coords.append((a[0] + radius * math.cos(ang), a[1] + radius * math.sin(ang)))
    coords.append((a[0] - radius * nx, a[1] - radius * ny))
    coords.append((b[0] - radius * nx, b[1] - radius * ny))
    # cap around b: sweep from -normal back to +normal through +direction
    for i in range(1, n):
        ang = base + math.pi + math.pi * i / n
        coords.append((b[0] + radius * math.cos(ang), b[1] + radius * math.sin(ang)))
    coords.append((b[0] + radius * nx, b[1] + radius * ny))
    return Polygon(coords)


def buffer(geom: Geometry, radius: float, quad_segs: int = 8) -> Geometry:
    """Buffer a geometry by ``radius`` (negative radius erodes polygons)."""
    if geom.is_empty:
        return EMPTY
    if radius == 0.0:
        return geom
    if radius < 0.0:
        if not isinstance(geom, (Polygon, MultiPolygon)):
            return EMPTY  # eroding a point or curve leaves nothing
        return _erode(geom, -radius, quad_segs)
    if isinstance(geom, Point):
        return circle(geom.coord, radius, quad_segs)
    if isinstance(geom, MultiPoint):
        return union_all(
            [circle(p.coord, radius, quad_segs) for p in geom.points]
        )
    if isinstance(geom, (LineString, MultiLineString)):
        capsules = [
            segment_capsule(a, b, radius, quad_segs) for a, b in geom.segments()
        ]
        return union_all(capsules)
    if isinstance(geom, (Polygon, MultiPolygon)):
        capsules: List[Geometry] = [
            segment_capsule(a, b, radius, quad_segs) for a, b in geom.segments()
        ]
        return union_all([geom] + capsules)
    if isinstance(geom, GeometryCollection):
        return union_all([buffer(m, radius, quad_segs) for m in geom.geoms])
    raise GeometryError(f"cannot buffer {type(geom).__name__}")


def _erode(geom: Geometry, radius: float, quad_segs: int) -> Geometry:
    band = union_all(
        [segment_capsule(a, b, radius, quad_segs) for a, b in geom.segments()]
    )
    return difference(geom, band)
