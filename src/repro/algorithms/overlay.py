"""Public set-theoretic operations: intersection, union, difference,
symmetric difference — the ``ST_Intersection`` / ``ST_Union`` /
``ST_Difference`` / ``ST_SymDifference`` family.

Every case with segments is noded by :mod:`repro.algorithms.clipping`:
areal × areal cases are its overlay; a line against a line, a polygon or a
collection is split there in the same sweep, and its pieces are kept by
their twins in the other operand or, without one, by where their midpoint
lies (:func:`_line_overlay`). Points are located directly.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, List, Sequence, Tuple

from repro.algorithms import clipping
from repro.algorithms.location import Location, locate, prepare
from repro.errors import GeometryError
from repro.geometry.base import Coord, Geometry
from repro.geometry.collection import EMPTY, GeometryCollection
from repro.geometry.linestring import LineString, MultiLineString
from repro.geometry.point import MultiPoint, Point
from repro.geometry.polygon import MultiPolygon, Polygon

_EXT = Location.EXTERIOR


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


def _merge_pieces(pieces: List[Tuple[Coord, Coord]]) -> List[LineString]:
    """Chain contiguous pieces into maximal linestrings, in the order the
    pieces come: each chain starts at the first piece not yet used and
    follows the pieces that share its ends, forward and then back."""
    at: Dict[Coord, List[int]] = {}
    for i, piece in enumerate(pieces):
        for p in piece:
            at.setdefault(p, []).append(i)
    used = [False] * len(pieces)

    def follow(end: Coord) -> List[Coord]:
        """The far ends of the unused pieces chained on from ``end``."""
        chain = []
        while True:
            for i in at[end]:
                if not used[i]:
                    break
            else:
                return chain
            used[i] = True
            s, e = pieces[i]
            end = e if s == end else s
            chain.append(end)

    lines: List[LineString] = []
    for i, (s, e) in enumerate(pieces):
        if not used[i]:
            used[i] = True
            ahead = follow(e)
            lines.append(LineString(follow(s)[::-1] + [s, e] + ahead))
    return lines


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
    if _is_lineal(a) and (_is_areal(b) or _is_lineal(b)):
        return _line_overlay(a, b, "intersection")
    if _is_areal(a) and _is_lineal(b):
        return _line_overlay(b, a, "intersection")
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


def _line_overlay(line: Geometry, other: Geometry, op: str) -> Geometry:
    """``line ∩ other``, ``line − other`` or ``line ∪ other`` (``other``
    lineal too), from one split of both operands' segments.

    A piece that has a twin in the other operand (the same rounded end
    points) lies on it because the split says so; only a twinless piece
    locates its midpoint. The points of an intersection are the crossings
    that no kept piece covers.
    """
    pieces, crossings = clipping._split_segments(
        [clipping._boundary_segments(line), clipping._boundary_segments(other)]
    )
    keys = [clipping._edge_key(p.start, p.end) for p in pieces]
    edges: Tuple[set, set] = (set(), set())
    for piece, key in zip(pieces, keys):
        edges[piece.owner].add(key)
    prepared = (prepare(line), prepare(other))

    def in_the_other(piece, key) -> bool:
        k = 1 - piece.owner
        return key in edges[k] or prepared[k].locate(piece.mid) is not _EXT

    if op == "union":
        kept = [
            p for p, key in zip(pieces, keys)
            if p.owner == 0 or not in_the_other(p, key)
        ]
    else:
        inside = op == "intersection"
        kept = [
            p for p, key in zip(pieces, keys)
            if p.owner == 0 and in_the_other(p, key) is inside
        ]
    members: List[Geometry] = list(_merge_pieces([(p.start, p.end) for p in kept]))
    if op == "intersection" and crossings:
        covered = {clipping._key(q) for p in kept for q in (p.start, p.end)}
        points = {clipping._key(q): q for q in crossings}
        members.extend(Point(*q) for k, q in points.items() if k not in covered)
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
        return _line_overlay(a, b, "union")
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
        return _line_overlay(a, b, "difference")
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
    return _collect([difference(a, b), difference(b, a)])
