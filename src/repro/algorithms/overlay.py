"""Public set-theoretic operations: intersection, union, difference,
symmetric difference — the ``ST_Intersection`` / ``ST_Union`` /
``ST_Difference`` / ``ST_SymDifference`` family.

Areal × areal cases delegate to the clipper in
:mod:`repro.algorithms.clipping`; mixed-dimension cases are computed by
splitting the lower-dimensional operand at the other's boundary and
classifying pieces — the same split-and-sample idea the DE-9IM engine uses.
"""

from __future__ import annotations

from functools import reduce
from typing import List, Optional, Sequence, Tuple

from repro.algorithms import clipping
from repro.algorithms.location import Location, locate
from repro.algorithms.predicates import segment_intersection
from repro.errors import GeometryError
from repro.geometry.base import Coord, Geometry
from repro.geometry.collection import EMPTY, GeometryCollection
from repro.geometry.linestring import LineString, MultiLineString
from repro.geometry.point import MultiPoint, Point
from repro.geometry.polygon import MultiPolygon, Polygon

_INT, _BND, _EXT = Location.INTERIOR, Location.BOUNDARY, Location.EXTERIOR


def _is_areal(geom: Geometry) -> bool:
    return isinstance(geom, (Polygon, MultiPolygon))


def _is_lineal(geom: Geometry) -> bool:
    return isinstance(geom, (LineString, MultiLineString))


def _is_puntal(geom: Geometry) -> bool:
    return isinstance(geom, (Point, MultiPoint))


def _points_of(geom: Geometry) -> List[Coord]:
    if isinstance(geom, Point):
        return [geom.coord]
    return [p.coord for p in geom.points]  # type: ignore[union-attr]


def _collect(members: Sequence[Geometry]) -> Geometry:
    """Pack result members into the tightest geometry type."""
    flat: List[Geometry] = []
    for m in members:
        if m is None or m.is_empty:
            continue
        if isinstance(m, GeometryCollection):
            flat.extend(m.geoms)
        elif isinstance(m, MultiPoint):
            flat.extend(m.points)
        elif isinstance(m, MultiLineString):
            flat.extend(m.lines)
        elif isinstance(m, MultiPolygon):
            flat.extend(m.polygons)
        else:
            flat.append(m)
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    if all(isinstance(m, Point) for m in flat):
        unique = list(dict.fromkeys(p.coord for p in flat))  # type: ignore[union-attr]
        if len(unique) == 1:
            return Point(*unique[0])
        return MultiPoint(unique)
    if all(isinstance(m, LineString) for m in flat):
        return MultiLineString(flat)
    if all(isinstance(m, Polygon) for m in flat):
        return MultiPolygon(flat)
    return GeometryCollection(flat)


def _line_segments(geom: Geometry) -> List[Tuple[Coord, Coord]]:
    return list(geom.segments())  # type: ignore[union-attr]


def _split_line_at(geom: Geometry, other: Geometry) -> List[Tuple[Coord, Coord]]:
    """All segments of lineal ``geom`` split at intersections with the
    boundary segments (or segments) of ``other``."""
    if _is_areal(other):
        other_segs = [s[:2] for s in clipping._boundary_segments(other)]
    elif _is_lineal(other):
        other_segs = _line_segments(other)
    else:
        other_segs = []
    pieces: List[Tuple[Coord, Coord]] = []
    for a, b in _line_segments(geom):
        cuts: List[Coord] = []
        for c, d in other_segs:
            hit = segment_intersection(a, b, c, d)
            if hit is None:
                continue
            if isinstance(hit, tuple) and hit and isinstance(hit[0], tuple):
                cuts.extend(hit)
            else:
                cuts.append(hit)  # type: ignore[arg-type]
        if _is_puntal(other):
            for p in _points_of(other):
                from repro.algorithms.predicates import on_segment

                if on_segment(p, a, b):
                    cuts.append(p)
        pieces.extend(_cut_segment(a, b, cuts))
    return pieces


def _cut_segment(
    a: Coord, b: Coord, cuts: List[Coord]
) -> List[Tuple[Coord, Coord]]:
    if not cuts:
        return [(a, b)]
    dx, dy = b[0] - a[0], b[1] - a[1]
    use_x = abs(dx) >= abs(dy)

    def param(p: Coord) -> float:
        return (p[0] - a[0]) / dx if use_x else (p[1] - a[1]) / dy

    waypoints = [a]
    for t, p in sorted((param(p), p) for p in cuts):
        if 1e-12 < t < 1.0 - 1e-12 and p != waypoints[-1]:
            waypoints.append(p)
    waypoints.append(b)
    return [(s, e) for s, e in zip(waypoints, waypoints[1:]) if s != e]


def _merge_pieces(pieces: List[Tuple[Coord, Coord]]) -> List[LineString]:
    """Chain contiguous pieces into maximal linestrings."""
    if not pieces:
        return []
    remaining = list(pieces)
    lines: List[LineString] = []
    while remaining:
        start, end = remaining.pop()
        chain = [start, end]
        extended = True
        while extended:
            extended = False
            for i, (s, e) in enumerate(remaining):
                if s == chain[-1]:
                    chain.append(e)
                    remaining.pop(i)
                    extended = True
                    break
                if e == chain[-1]:
                    chain.append(s)
                    remaining.pop(i)
                    extended = True
                    break
                if e == chain[0]:
                    chain.insert(0, s)
                    remaining.pop(i)
                    extended = True
                    break
                if s == chain[0]:
                    chain.insert(0, e)
                    remaining.pop(i)
                    extended = True
                    break
        lines.append(LineString(chain))
    return lines


def _midpoint(a: Coord, b: Coord) -> Coord:
    return ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)


# ---------------------------------------------------------------------------
# intersection
# ---------------------------------------------------------------------------


def intersection(a: Geometry, b: Geometry) -> Geometry:
    """Point-set intersection of two geometries."""
    if a.is_empty or b.is_empty:
        return EMPTY
    if not a.envelope.intersects(b.envelope):
        return EMPTY
    if _is_puntal(a):
        hits = [p for p in _points_of(a) if locate(p, b) is not _EXT]
        return _collect([Point(*p) for p in hits])
    if _is_puntal(b):
        return intersection(b, a)
    if _is_lineal(a) and _is_areal(b):
        return _line_areal_intersection(a, b)
    if _is_areal(a) and _is_lineal(b):
        return _line_areal_intersection(b, a)
    if _is_lineal(a) and _is_lineal(b):
        return _line_line_intersection(a, b)
    if _is_areal(a) and _is_areal(b):
        parts, line_pieces, touch_pts = clipping.overlay((a, b), "intersection")
        members: List[Geometry] = []
        areal = clipping.polygons_from_overlay(parts)
        if areal is not None:
            members.append(areal)
        members.extend(_merge_pieces(line_pieces))
        members.extend(Point(*p) for p in touch_pts)
        return _collect(members)
    if isinstance(a, GeometryCollection):
        return _collect([intersection(m, b) for m in a.geoms])
    if isinstance(b, GeometryCollection):
        return _collect([intersection(a, m) for m in b.geoms])
    raise GeometryError(
        f"intersection of {type(a).__name__} and {type(b).__name__}"
    )


def _line_areal_intersection(line: Geometry, areal: Geometry) -> Geometry:
    kept: List[Tuple[Coord, Coord]] = []
    touch: List[Coord] = []
    for s, e in _split_line_at(line, areal):
        where = locate(_midpoint(s, e), areal)
        if where is not _EXT:
            kept.append((s, e))
        else:
            for p in (s, e):
                if locate(p, areal) is not _EXT:
                    touch.append(p)
    members: List[Geometry] = list(_merge_pieces(kept))
    covered = set()
    for ln in members:
        covered.update(ln.coords)  # type: ignore[union-attr]
    for p in dict.fromkeys(touch):
        if p not in covered:
            members.append(Point(*p))
    return _collect(members)


def _line_line_intersection(a: Geometry, b: Geometry) -> Geometry:
    kept: List[Tuple[Coord, Coord]] = []
    points: List[Coord] = []
    for s, e in _split_line_at(a, b):
        mid = _midpoint(s, e)
        if locate(mid, b) is not _EXT:
            kept.append((s, e))
        else:
            for p in (s, e):
                if locate(p, b) is not _EXT and locate(p, a) is not _EXT:
                    points.append(p)
    members: List[Geometry] = list(_merge_pieces(kept))
    covered = set()
    for ln in members:
        covered.update(ln.coords)  # type: ignore[union-attr]
    for p in dict.fromkeys(points):
        if p not in covered:
            members.append(Point(*p))
    return _collect(members)


# ---------------------------------------------------------------------------
# union
# ---------------------------------------------------------------------------


def union(a: Geometry, b: Geometry) -> Geometry:
    """Point-set union."""
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    if _is_areal(a) and _is_areal(b):
        if not a.envelope.intersects(b.envelope):
            return _collect([a, b])
        merged = clipping.overlay_areal((a, b), "union")
        if merged is None:  # degenerate: fall back to collecting
            return _collect([a, b])
        return merged
    if _is_puntal(a) and _is_puntal(b):
        coords = list(dict.fromkeys(_points_of(a) + _points_of(b)))
        return _collect([Point(*p) for p in coords])
    if _is_lineal(a) and _is_lineal(b):
        pieces = _split_line_at(a, b)
        pieces += [
            (s, e)
            for s, e in _split_line_at(b, a)
            if locate(_midpoint(s, e), a) is _EXT
        ]
        return _collect(_merge_pieces(pieces))
    # mixed dimensions: keep the lower-dimensional part not absorbed by the
    # higher-dimensional operand
    hi, lo = (a, b) if a.dimension >= b.dimension else (b, a)
    leftover = difference(lo, hi)
    return _collect([hi, leftover])


def union_all(geoms: Sequence[Geometry]) -> Geometry:
    """Union of every geometry (``ST_Union(agg)``): the areal members in one
    overlay pass, then each other member unioned into that."""
    items = [g for g in geoms if g is not None and not g.is_empty]
    areal = [g for g in items if _is_areal(g)]
    merged = areal[0] if len(areal) == 1 else EMPTY
    if len(areal) > 1:
        merged = clipping.overlay_areal(areal, "union")
        if merged is None:  # degenerate: fall back to collecting
            merged = _collect(areal)
    return reduce(union, [g for g in items if not _is_areal(g)], merged)


# ---------------------------------------------------------------------------
# difference
# ---------------------------------------------------------------------------


def difference(a: Geometry, b: Geometry) -> Geometry:
    """Point-set difference ``a - b``."""
    if a.is_empty:
        return EMPTY
    if b.is_empty or not a.envelope.intersects(b.envelope):
        return a
    if _is_puntal(a):
        kept = [p for p in _points_of(a) if locate(p, b) is _EXT]
        return _collect([Point(*p) for p in kept])
    if _is_lineal(a):
        if b.dimension == 0:
            return a  # removing isolated points leaves the line intact
        kept_segments = [
            (s, e)
            for s, e in _split_line_at(a, b)
            if locate(_midpoint(s, e), b) is _EXT
        ]
        return _collect(_merge_pieces(kept_segments))
    if _is_areal(a):
        if b.dimension < 2:
            return a  # removing measure-zero sets leaves the area intact
        result = clipping.overlay_areal((a, b), "difference")
        return result if result is not None else EMPTY
    if isinstance(a, GeometryCollection):
        return _collect([difference(m, b) for m in a.geoms])
    raise GeometryError(f"difference of {type(a).__name__} and {type(b).__name__}")


def sym_difference(a: Geometry, b: Geometry) -> Geometry:
    """Point-set symmetric difference."""
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    if _is_areal(a) and _is_areal(b):
        if not a.envelope.intersects(b.envelope):
            return _collect([a, b])
        result = clipping.overlay_areal((a, b), "sym_difference")
        return result if result is not None else EMPTY
    if a.dimension == b.dimension:
        return _collect([difference(a, b), difference(b, a)])
    return _collect([difference(a, b), difference(b, a)])
