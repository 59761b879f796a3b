"""Scalar measures and representative points: area, length, centroid,
point-on-surface — the ``ST_Area`` / ``ST_Length`` / ``ST_Centroid`` /
``ST_PointOnSurface`` family of the spatial-analysis micro benchmark.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.algorithms.location import Location, locate_in_polygon
from repro.errors import GeometryError, TopologyError
from repro.geometry.base import Geometry
from repro.geometry.collection import GeometryCollection
from repro.geometry.linestring import LineString, MultiLineString
from repro.geometry.point import MultiPoint, Point
from repro.geometry.polygon import MultiPolygon, Polygon, signed_ring_area


def area(geom: Geometry) -> float:
    """Planar area. Zero for points and curves; holes subtract."""
    if isinstance(geom, (Point, MultiPoint, LineString, MultiLineString)):
        return 0.0
    if isinstance(geom, Polygon):
        total = abs(signed_ring_area(geom.shell))
        for hole in geom.holes:
            total -= abs(signed_ring_area(hole))
        return total
    if isinstance(geom, MultiPolygon):
        return sum(area(p) for p in geom.polygons)
    if isinstance(geom, GeometryCollection):
        return sum(area(member) for member in geom.geoms)
    raise TypeError(f"cannot measure area of {type(geom).__name__}")


def length(geom: Geometry) -> float:
    """Curve length; for areal geometries, the perimeter (PostGIS semantics
    return 0 for ST_Length on polygons, but the micro benchmark issues
    ST_Length on line layers only, so we keep the more useful perimeter)."""
    if isinstance(geom, (Point, MultiPoint)):
        return 0.0
    if isinstance(geom, LineString):
        return sum(
            math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in geom.segments()
        )
    if isinstance(geom, MultiLineString):
        return sum(length(line) for line in geom.lines)
    if isinstance(geom, (Polygon, MultiPolygon)):
        return sum(
            math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in geom.segments()
        )
    if isinstance(geom, GeometryCollection):
        return sum(length(member) for member in geom.geoms)
    raise TypeError(f"cannot measure length of {type(geom).__name__}")


def perimeter(geom: Geometry) -> float:
    """Boundary length of areal geometries (``ST_Perimeter``)."""
    if isinstance(geom, (Polygon, MultiPolygon)):
        return length(geom)
    return 0.0


def _ring_centroid_terms(ring) -> Tuple[float, float, float]:
    """(signed area, weighted x, weighted y) shoelace terms for one ring."""
    a_sum = cx = cy = 0.0
    for (x0, y0), (x1, y1) in zip(ring, ring[1:]):
        cross = x0 * y1 - x1 * y0
        a_sum += cross
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    return a_sum / 2.0, cx / 6.0, cy / 6.0


def centroid(geom: Geometry) -> Point:
    """Center of mass, weighted by the geometry's own dimension."""
    if isinstance(geom, Point):
        return Point(geom.x, geom.y)
    if isinstance(geom, MultiPoint):
        xs = [p.x for p in geom.points]
        ys = [p.y for p in geom.points]
        return Point(sum(xs) / len(xs), sum(ys) / len(ys))
    if isinstance(geom, (LineString, MultiLineString)):
        total = wx = wy = 0.0
        for (ax, ay), (bx, by) in geom.segments():
            seg = math.hypot(bx - ax, by - ay)
            total += seg
            wx += seg * (ax + bx) / 2.0
            wy += seg * (ay + by) / 2.0
        if total == 0.0:
            first = next(geom.coords_iter())
            return Point(*first)
        return Point(wx / total, wy / total)
    if isinstance(geom, (Polygon, MultiPolygon)):
        a_total = cx_total = cy_total = 0.0
        polys = geom.polygons if isinstance(geom, MultiPolygon) else (geom,)
        for poly in polys:
            a, cx, cy = _ring_centroid_terms(poly.shell)
            a, cx, cy = abs(a), math.copysign(1.0, a) * cx, math.copysign(1.0, a) * cy
            for hole in poly.holes:
                ha, hcx, hcy = _ring_centroid_terms(hole)
                a -= abs(ha)
                cx -= math.copysign(1.0, ha) * hcx
                cy -= math.copysign(1.0, ha) * hcy
            a_total += a
            cx_total += cx
            cy_total += cy
        if a_total == 0.0:
            env = geom.envelope
            return Point(*env.center)
        return Point(cx_total / a_total, cy_total / a_total)
    if isinstance(geom, GeometryCollection):
        if geom.is_empty:
            raise GeometryError("centroid of an empty geometry")
        top = geom.dimension
        members = [m for m in geom.geoms if m.dimension == top]
        if top == 2:
            weights = [area(m) for m in members]
        elif top == 1:
            weights = [length(m) for m in members]
        else:
            weights = [1.0] * len(members)
        centroids = [centroid(m) for m in members]
        w_total = sum(weights)
        if w_total == 0.0:
            return centroids[0]
        x = sum(w * c.x for w, c in zip(weights, centroids)) / w_total
        y = sum(w * c.y for w, c in zip(weights, centroids)) / w_total
        return Point(x, y)
    raise TypeError(f"cannot compute centroid of {type(geom).__name__}")


def point_on_surface(geom: Geometry) -> Point:
    """A point guaranteed to lie on/in the geometry (``ST_PointOnSurface``)."""
    if isinstance(geom, Point):
        return Point(geom.x, geom.y)
    if isinstance(geom, MultiPoint):
        return Point(*geom.points[0].coord)
    if isinstance(geom, LineString):
        return geom.interpolate(0.5)
    if isinstance(geom, MultiLineString):
        longest = max(geom.lines, key=length)
        return longest.interpolate(0.5)
    if isinstance(geom, Polygon):
        return _polygon_interior_point(geom)
    if isinstance(geom, MultiPolygon):
        largest = max(geom.polygons, key=area)
        return _polygon_interior_point(largest)
    if isinstance(geom, GeometryCollection):
        if geom.is_empty:
            raise GeometryError("point_on_surface of an empty geometry")
        top = geom.dimension
        for member in geom.geoms:
            if member.dimension == top:
                return point_on_surface(member)
    raise TypeError(f"cannot compute point_on_surface of {type(geom).__name__}")


def _polygon_interior_point(poly: Polygon) -> Point:
    """Scanline midpoint strategy: cut the polygon at mid-height and take the
    midpoint of the widest interior span; falls back to centroid / vertex fan."""
    c = centroid(poly)
    if locate_in_polygon((c.x, c.y), poly) is Location.INTERIOR:
        return c
    env = poly.envelope
    # perturb the scan height away from vertex y-values to dodge degeneracies
    y = (env.min_y + env.max_y) / 2.0 + (env.max_y - env.min_y) * 1.0e-7
    crossings = []
    for (ax, ay), (bx, by) in poly.segments():
        if (ay > y) != (by > y):
            crossings.append(ax + (y - ay) * (bx - ax) / (by - ay))
    crossings.sort()
    best: Tuple[float, float] = (0.0, env.center[0])
    for left, right in zip(crossings[::2], crossings[1::2]):
        if right - left > best[0]:
            best = (right - left, (left + right) / 2.0)
    candidate = (best[1], y)
    if locate_in_polygon(candidate, poly) is Location.INTERIOR:
        return Point(*candidate)
    # last resort: probe midpoints of vertex fans
    shell = poly.shell
    for i in range(1, len(shell) - 1):
        probe = (
            (shell[0][0] + shell[i][0] + shell[i + 1][0]) / 3.0,
            (shell[0][1] + shell[i][1] + shell[i + 1][1]) / 3.0,
        )
        if locate_in_polygon(probe, poly) is Location.INTERIOR:
            return Point(*probe)
    raise TopologyError("could not find an interior point")


def num_points(geom: Geometry) -> int:
    """Total vertex count (``ST_NPoints``)."""
    return geom.num_points


def dimension(geom: Geometry) -> int:
    """Topological dimension (``ST_Dimension``)."""
    return geom.dimension
