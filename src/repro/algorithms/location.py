"""Point location: where does a point sit relative to a geometry?

DE-9IM is defined over the interior/boundary/exterior partition, so the
location primitives return one of the three :class:`Location` labels rather
than a bare boolean. Ring tests use a crossing-number walk with explicit
boundary detection (a point on an edge is BOUNDARY, never mis-counted).

:class:`Prepared` is the prepared geometry: one operand flattened once into
role-tagged vertices and segments that carry their own bounds, memoised on
the geometry, so that point location and :mod:`repro.algorithms.de9im` run
an orientation test only where a segment's box holds the point.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.algorithms.predicates import on_segment
from repro.geometry.base import Coord, Envelope, Geometry
from repro.geometry.collection import GeometryCollection
from repro.geometry.linestring import LineString, MultiLineString
from repro.geometry.point import MultiPoint, Point
from repro.geometry.polygon import MultiPolygon, Polygon


class Location(enum.IntEnum):
    INTERIOR = 0
    BOUNDARY = 1
    EXTERIOR = 2


_INT, _BND, _EXT = Location.INTERIOR, Location.BOUNDARY, Location.EXTERIOR

#: (start, end, role, interior_is_left, min_x, min_y, max_x, max_y) — role
#: is the class the segment's relative interior has in its own geometry;
#: the bounds are the coordinates' own float objects
Segment = Tuple[Coord, Coord, Location, bool, float, float, float, float]


def _segment(a: Coord, b: Coord, role: Location, left: bool) -> Segment:
    (ax, ay), (bx, by) = a, b
    if ax > bx:
        ax, bx = bx, ax
    if ay > by:
        ay, by = by, ay
    return (a, b, role, left, ax, ay, bx, by)


#: the key that sorts segments by their stored ``min_x``
MIN_X = itemgetter(4)


def box_pairs(
    segs_a: Sequence[Segment], segs_b: Sequence[Segment], pad: float
) -> Iterator[Tuple[Segment, Segment]]:
    """Every (a, b) whose boxes come within ``pad``: one forward sweep along
    x that merges the two sets. Both arrive sorted by their stored ``min_x``
    (:meth:`Prepared.segments_in` keeps that order), so nothing is sorted
    here."""
    i = j = 0
    while i < len(segs_a) and j < len(segs_b):
        flipped = segs_b[j][4] < segs_a[i][4]
        if flipped:
            first, rest, k = segs_b[j], segs_a, i
            j += 1
        else:
            first, rest, k = segs_a[i], segs_b, j
            i += 1
        # ``first`` starts no later than everything from ``rest[k]`` on
        reach, low, high = first[6] + pad, first[5] - pad, first[7] + pad
        while k < len(rest) and rest[k][4] <= reach:
            other = rest[k]
            k += 1
            if other[5] <= high and other[7] >= low:
                yield (other, first) if flipped else (first, other)


def _walk_ring(p: Coord, ring: Sequence[Segment], pad: float) -> Location:
    """Crossing-number walk over one closed ring's segments."""
    px, py = p
    lo, hi, right = py - pad, py + pad, px - pad
    inside = False
    for a, b, _role, _left, x0, y0, x1, y1 in ring:
        if y1 < lo or y0 > hi or x1 < right:
            continue  # neither on the segment nor crossed by the ray
        if x0 <= px + pad and on_segment(p, a, b):
            return _BND
        ax, ay = a
        bx, by = b
        # Count crossings of the ray from p towards +x: half-open rule on y.
        if (ay > py) != (by > py):
            if ax + (py - ay) * (bx - ax) / (by - ay) > px:
                inside = not inside
    return _INT if inside else _EXT


def locate_in_ring(p: Coord, ring: Sequence[Coord]) -> Location:
    """Locate ``p`` against a closed ring (interior = inside the ring)."""
    segments = [_segment(a, b, _BND, True) for a, b in zip(ring, ring[1:]) if a != b]
    return _walk_ring(p, segments, 1e-9 * max(abs(p[0]), abs(p[1]), 1.0))


class Prepared:
    """One geometry's vertices, segments and point-location structure.

    Holds no reference back to the geometry that memoises it: a cycle
    would leave every short-lived operand of an overlay to the collector.
    """

    __slots__ = (
        "env", "pad", "interior_points", "boundary_points", "segments",
        "puntal", "lineal", "areal", "boundary", "max_dim", "interior_reps",
        "by_x",
    )

    def __init__(self, geom: Geometry):
        # Each member's tuples are concatenated onto these, and ``() + t is
        # t``: a one-member geometry holds that member's own tuples and
        # nothing else, so a point or a short line costs a few hundred bytes.
        #: every vertex and isolated point, by its role
        self.interior_points: Tuple[Coord, ...] = ()
        self.boundary_points: Tuple[Coord, ...] = ()
        self.segments: Tuple[Segment, ...] = ()
        #: isolated points; per line member (its boundary points, its
        #: segments); per polygon (envelope, rings of segments, shell first)
        self.puntal: Tuple[Coord, ...] = ()
        self.lineal: Tuple[Tuple[Tuple[Coord, ...], Tuple[Segment, ...]], ...] = ()
        self.areal: Tuple[Tuple[Envelope, Tuple[Tuple[Segment, ...], ...]], ...] = ()
        #: the points whose role is BOUNDARY although their segment's is not
        self.boundary: Tuple[Coord, ...] = ()
        #: box rejections widen the envelope by ``pad``, its own tolerance
        self.env = None if geom.is_empty else geom.envelope
        self.pad = self.env.tolerance() if self.env else 0.0
        self.max_dim = geom.dimension
        #: filled by de9im on first use (one interior point per polygon)
        self.interior_reps: Optional[List[Coord]] = None
        #: ``segments`` is in ``min_x`` order (sorted on first use)
        self.by_x = False
        self._collect(geom)

    @property
    def boundary_dim(self) -> int:
        """Dimension of the geometry's boundary (-1 when empty)."""
        return 1 if self.areal else 0 if self.boundary else -1

    def _collect(self, geom: Geometry) -> None:
        if isinstance(geom, Point):
            self._collect_points((geom.coord,))
        elif isinstance(geom, MultiPoint):
            self._collect_points(tuple(p.coord for p in geom.points))
        elif isinstance(geom, LineString):
            self._collect_lines([geom], geom)
        elif isinstance(geom, MultiLineString):
            self._collect_lines(geom.lines, geom)
        elif isinstance(geom, Polygon):
            self._collect_polygon(geom)
        elif isinstance(geom, MultiPolygon):
            for poly in geom.polygons:
                self._collect_polygon(poly)
        elif isinstance(geom, GeometryCollection):
            for member in geom.geoms:
                self._collect(member)
        else:
            raise TypeError(f"cannot prepare {type(geom).__name__}")

    def _collect_points(self, coords: Tuple[Coord, ...]) -> None:
        self.puntal += coords
        self.interior_points += coords

    def _collect_lines(self, lines: Sequence[LineString], owner) -> None:
        boundary = {p.coord for p in owner.boundary_points()}
        ends, inner, segments = [], [], []
        for line in lines:
            for c in (line.coords[0], line.coords[-1]):
                # (the line's own coordinate object, not the Point's copy)
                (ends if c in boundary else inner).append(c)
            inner.extend(line.coords[1:-1])
            segments.extend(_segment(a, b, _INT, False) for a, b in line.segments())
        ends, segments = tuple(dict.fromkeys(ends)), tuple(segments)
        self.interior_points += tuple(inner)
        self.boundary_points += ends
        self.boundary += ends
        self.segments += segments
        self.lineal += ((ends, segments),)

    def _collect_polygon(self, poly: Polygon) -> None:
        rings = []
        for ring in poly.rings():
            self.boundary_points += ring[:-1]
            # shells are CCW and holes CW, so the polygon interior is
            # always to the left of the directed ring segment
            rings.append(tuple(
                _segment(a, b, _BND, True) for a, b in zip(ring, ring[1:]) if a != b
            ))
            self.segments += rings[-1]
        self.areal += ((poly.envelope, tuple(rings)),)

    def segments_in(self, x0: float, y0: float, x1: float, y1: float):
        """The segments whose box meets a window, in ``min_x`` order. The
        first call sorts ``segments`` once; the members keep ring order."""
        if not self.by_x:
            self.segments = tuple(sorted(self.segments, key=MIN_X))
            self.by_x = True
        inside = []
        for s in self.segments:
            if s[4] > x1:
                break  # and so does every segment after it
            if s[6] >= x0 and s[5] <= y1 and s[7] >= y0:
                inside.append(s)
        return inside

    # The box rejections are tolerant: a point carrying overlay rounding
    # error can sit epsilon outside the exact envelope while the segment
    # tests below would classify it ON the geometry. Only they decide.

    def locate(self, p: Coord) -> Location:
        """Union semantics: INTERIOR of any member wins, then BOUNDARY."""
        env = self.env
        if env is None:
            return _EXT  # the empty geometry
        px, py = p
        pad = self.pad
        left, right, low, high = px - pad, px + pad, py - pad, py + pad
        if right < env.min_x or left > env.max_x or high < env.min_y or low > env.max_y:
            return _EXT
        if p in self.puntal:
            return _INT
        best = _EXT
        for ends, segments in self.lineal:
            if p in ends:
                best = _BND
                continue
            for a, b, _role, _left, sx0, sy0, sx1, sy1 in segments:
                if (
                    sx0 <= right and sx1 >= left and sy0 <= high and sy1 >= low
                    and on_segment(p, a, b)
                ):
                    return _INT
        if self.areal:
            where = self.locate_areal(p)
            if where is _INT or best is _EXT:
                return where
        return best

    def locate_areal(self, p: Coord) -> Location:
        """Locate against the areal members only."""
        px, py = p
        pad = self.pad
        best = _EXT
        for env, rings in self.areal:
            if (
                px + pad < env.min_x or px - pad > env.max_x
                or py + pad < env.min_y or py - pad > env.max_y
            ):
                continue
            where = _walk_ring(p, rings[0], pad)
            if where is _INT:
                for hole in rings[1:]:
                    inner = _walk_ring(p, hole, pad)
                    if inner is not _EXT:
                        # on a hole's ring, or inside the hole
                        where = _BND if inner is _BND else _EXT
                        break
                if where is _INT:
                    return _INT
            if where is _BND:
                best = _BND
        return best


def prepare(geom: Geometry) -> Prepared:
    """The geometry's :class:`Prepared` form, built once and memoised.

    A geometry without segments has no bounds to keep: a point set is
    prepared again each time, which costs less than holding one
    :class:`Prepared` per row of a point table.
    """
    cached = geom._features
    if cached is None:
        cached = Prepared(geom)
        if cached.segments:
            geom._features = cached
    return cached


def locate_in_polygon(p: Coord, polygon: Polygon) -> Location:
    """Locate ``p`` against a polygon with holes."""
    return prepare(polygon).locate_areal(p)


def locate_on_line(p: Coord, line: LineString) -> Location:
    """Locate ``p`` against a linestring (interior = on the line, not an endpoint)."""
    return prepare(line).locate(p)


def locate(p: Coord, geom: Geometry) -> Location:
    """Locate a coordinate against any geometry type."""
    return prepare(geom).locate(p)
