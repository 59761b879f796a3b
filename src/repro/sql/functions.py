"""SQL function registry: scalar helpers, geometry constructors/accessors,
spatial analysis functions, spatial predicates, and aggregates.

Spatial *predicates* are routed through the active engine profile so that
the three benchmarked engines can differ in semantics (exact refinement
vs. MBR-only) and mechanism (fast-path predicates vs. full DE-9IM
matrices) — the axes the paper's evaluation turns on. Everything else is
profile-gated only by the supported-function set.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.algorithms import (
    area,
    buffer as geom_buffer,
    centroid,
    convex_hull,
    difference,
    distance,
    dwithin,
    intersection,
    is_simple,
    is_valid,
    length,
    perimeter,
    point_on_surface,
    relate,
    simplify,
    sym_difference,
    union,
)
from repro.errors import SqlPlanError, UnsupportedFeatureError
from repro.geometry import (
    Envelope,
    Geometry,
    LineString,
    MultiLineString,
    MultiPoint,
    Point,
    wkb_dumps,
    wkb_loads,
    wkt_dumps,
    wkt_loads,
)

SPATIAL_PREDICATES = frozenset(
    {
        "st_equals",
        "st_disjoint",
        "st_intersects",
        "st_touches",
        "st_crosses",
        "st_within",
        "st_contains",
        "st_overlaps",
        "st_covers",
        "st_coveredby",
    }
)


def _need_geometry(value: Any, func: str) -> Geometry:
    if not isinstance(value, Geometry):
        raise SqlPlanError(f"{func} expects a geometry argument, got {value!r}")
    return value


def _need_number(value: Any, func: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SqlPlanError(f"{func} expects a numeric argument, got {value!r}")
    return float(value)


class FunctionRegistry:
    """Name → implementation mapping for scalar SQL functions."""

    def __init__(self) -> None:
        self._functions: Dict[str, Callable[..., Any]] = {}
        self._register_general()
        self._register_geometry()

    def lookup(self, name: str) -> Callable[..., Any]:
        try:
            return self._functions[name]
        except KeyError:
            raise SqlPlanError(f"unknown function {name!r}")

    def has(self, name: str) -> bool:
        return name in self._functions

    def register(self, name: str, impl: Callable[..., Any]) -> None:
        self._functions[name.lower()] = impl

    # -- general scalars ------------------------------------------------------

    def _register_general(self) -> None:
        def null_safe(fn: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any) -> Any:
                if any(a is None for a in args):
                    return None
                return fn(*args)

            return wrapper

        self.register("abs", null_safe(lambda x: abs(x)))
        self.register("round", null_safe(
            lambda x, nd=0: round(float(x), int(nd))
        ))
        self.register("floor", null_safe(lambda x: math.floor(x)))
        self.register("ceil", null_safe(lambda x: math.ceil(x)))
        self.register("sqrt", null_safe(lambda x: math.sqrt(x)))
        self.register("power", null_safe(lambda x, y: float(x) ** float(y)))
        self.register("mod", null_safe(lambda x, y: x % y))
        self.register("lower", null_safe(lambda s: str(s).lower()))
        self.register("upper", null_safe(lambda s: str(s).upper()))
        self.register("trim", null_safe(lambda s: str(s).strip()))
        self.register("char_length", null_safe(lambda s: len(str(s))))
        self.register(
            "substr",
            null_safe(
                lambda s, start, count=None: (
                    str(s)[int(start) - 1 : int(start) - 1 + int(count)]
                    if count is not None
                    else str(s)[int(start) - 1 :]
                )
            ),
        )
        self.register(
            "coalesce",
            lambda *args: next((a for a in args if a is not None), None),
        )
        self.register("nullif", lambda a, b: None if a == b else a)
        self.register("least", null_safe(lambda *args: min(args)))
        self.register("greatest", null_safe(lambda *args: max(args)))

    # -- geometry functions ------------------------------------------------------

    def _register_geometry(self) -> None:
        reg = self.register

        reg("st_geomfromtext", lambda wkt, *_srid: wkt_loads(str(wkt)))
        reg("st_geographyfromtext", lambda wkt: wkt_loads(str(wkt)))
        reg("st_geomfromwkb", lambda blob, *_srid: wkb_loads(bytes(blob)))
        reg(
            "st_point",
            lambda x, y: Point(
                _need_number(x, "ST_Point"), _need_number(y, "ST_Point")
            ),
        )
        reg("st_makepoint", self._functions["st_point"])
        reg(
            "st_makeenvelope",
            lambda x1, y1, x2, y2, *_srid: _envelope_polygon(
                float(x1), float(y1), float(x2), float(y2)
            ),
        )

        reg("st_astext", lambda g: wkt_dumps(_need_geometry(g, "ST_AsText")))
        reg("st_asbinary", lambda g: wkb_dumps(_need_geometry(g, "ST_AsBinary")))
        reg("st_x", lambda g: _point_coord(g, 0))
        reg("st_y", lambda g: _point_coord(g, 1))
        reg("st_srid", lambda g: 0)
        reg(
            "st_npoints",
            lambda g: _need_geometry(g, "ST_NPoints").num_points,
        )
        reg("st_numpoints", self._functions["st_npoints"])
        reg(
            "st_dimension",
            lambda g: _need_geometry(g, "ST_Dimension").dimension,
        )
        reg(
            "st_geometrytype",
            lambda g: "ST_"
            + _need_geometry(g, "ST_GeometryType").geom_type.wkt_name.title(),
        )
        reg("st_isvalid", lambda g: is_valid(_need_geometry(g, "ST_IsValid")))
        reg("st_issimple", lambda g: is_simple(_need_geometry(g, "ST_IsSimple")))
        reg("st_isempty", lambda g: _need_geometry(g, "ST_IsEmpty").is_empty)
        reg(
            "st_isclosed",
            lambda g: bool(getattr(_need_geometry(g, "ST_IsClosed"), "is_closed", False)),
        )

        reg("st_area", lambda g: area(_need_geometry(g, "ST_Area")))
        reg("st_length", lambda g: length(_need_geometry(g, "ST_Length")))
        reg("st_perimeter", lambda g: perimeter(_need_geometry(g, "ST_Perimeter")))
        reg("st_distance", _distance)
        reg("st_centroid", lambda g: centroid(_need_geometry(g, "ST_Centroid")))
        reg(
            "st_pointonsurface",
            lambda g: point_on_surface(_need_geometry(g, "ST_PointOnSurface")),
        )
        reg(
            "st_envelope",
            lambda g: _need_geometry(g, "ST_Envelope").envelope_geometry(),
        )
        reg("st_boundary", _boundary)
        reg(
            "st_buffer",
            lambda g, r, qs=8: geom_buffer(
                _need_geometry(g, "ST_Buffer"),
                _need_number(r, "ST_Buffer"),
                quad_segs=int(qs),
            ),
        )
        reg(
            "st_convexhull",
            lambda g: convex_hull(_need_geometry(g, "ST_ConvexHull")),
        )
        reg(
            "st_simplify",
            lambda g, tol: simplify(
                _need_geometry(g, "ST_Simplify"), _need_number(tol, "ST_Simplify")
            ),
        )
        reg(
            "st_intersection",
            lambda a, b: intersection(
                _need_geometry(a, "ST_Intersection"),
                _need_geometry(b, "ST_Intersection"),
            ),
        )
        reg(
            "st_union",
            lambda a, b: union(
                _need_geometry(a, "ST_Union"), _need_geometry(b, "ST_Union")
            ),
        )
        reg(
            "st_difference",
            lambda a, b: difference(
                _need_geometry(a, "ST_Difference"),
                _need_geometry(b, "ST_Difference"),
            ),
        )
        reg(
            "st_symdifference",
            lambda a, b: sym_difference(
                _need_geometry(a, "ST_SymDifference"),
                _need_geometry(b, "ST_SymDifference"),
            ),
        )

        reg("st_numgeometries", _num_geometries)
        reg("st_geometryn", _geometry_n)
        reg(
            "st_snaptogrid",
            lambda g, size: _snap_to_grid(
                _need_geometry(g, "ST_SnapToGrid"),
                _need_number(size, "ST_SnapToGrid"),
            ),
        )
        reg("st_azimuth", _azimuth)
        reg("st_reverse", _reverse)

        reg("st_startpoint", lambda g: _line_endpoint(g, start=True))
        reg("st_endpoint", lambda g: _line_endpoint(g, start=False))
        reg(
            "st_linesubstring",
            lambda g, lo, hi: _line_substring(
                _as_line(g, "ST_LineSubstring"),
                _need_number(lo, "ST_LineSubstring"),
                _need_number(hi, "ST_LineSubstring"),
            ),
        )
        reg(
            "st_lineinterpolatepoint",
            lambda g, frac: _as_line(g, "ST_LineInterpolatePoint").interpolate(
                _need_number(frac, "ST_LineInterpolatePoint")
            ),
        )
        reg(
            "st_linelocatepoint",
            lambda g, p: _as_line(g, "ST_LineLocatePoint").project(
                _as_point(p, "ST_LineLocatePoint")
            ),
        )
        reg(
            "st_dwithin",
            lambda a, b, r: dwithin(
                _need_geometry(a, "ST_DWithin"),
                _need_geometry(b, "ST_DWithin"),
                _need_number(r, "ST_DWithin"),
            ),
        )
        reg(
            "st_relate",
            lambda a, b, pattern=None: (
                str(relate(_need_geometry(a, "ST_Relate"), _need_geometry(b, "ST_Relate")))
                if pattern is None
                else relate(
                    _need_geometry(a, "ST_Relate"), _need_geometry(b, "ST_Relate")
                ).matches(str(pattern))
            ),
        )
        reg("st_expand", _expand)

        from repro.algorithms.distance import closest_point, shortest_line

        reg(
            "st_closestpoint",
            lambda a, b: closest_point(
                _need_geometry(a, "ST_ClosestPoint"),
                _need_geometry(b, "ST_ClosestPoint"),
            ),
        )
        reg(
            "st_shortestline",
            lambda a, b: shortest_line(
                _need_geometry(a, "ST_ShortestLine"),
                _need_geometry(b, "ST_ShortestLine"),
            ),
        )

        # geodetic functions (lon/lat on the sphere) — the "true geodetic
        # support" axis the paper compares engines on
        from repro.algorithms import geodesy

        reg(
            "st_distancesphere",
            lambda a, b: geodesy.sphere_distance_m(
                _need_geometry(a, "ST_DistanceSphere"),
                _need_geometry(b, "ST_DistanceSphere"),
            ),
        )
        reg(
            "st_lengthsphere",
            lambda g: geodesy.sphere_length_m(
                _need_geometry(g, "ST_LengthSphere")
            ),
        )
        reg(
            "st_areasphere",
            lambda g: geodesy.sphere_area_m2(
                _need_geometry(g, "ST_AreaSphere")
            ),
        )


def _envelope_polygon(x1: float, y1: float, x2: float, y2: float) -> Geometry:
    from repro.geometry.polygon import Polygon

    lo_x, hi_x = sorted((x1, x2))
    lo_y, hi_y = sorted((y1, y2))
    return Polygon(
        [(lo_x, lo_y), (hi_x, lo_y), (hi_x, hi_y), (lo_x, hi_y)]
    )


def _point_coord(value: Any, axis: int) -> float:
    geom = _need_geometry(value, "ST_X/ST_Y")
    if not isinstance(geom, Point):
        raise SqlPlanError("ST_X/ST_Y require a POINT")
    return geom.x if axis == 0 else geom.y


def _distance(a: Any, b: Any) -> Optional[float]:
    """As in PostGIS: NULL when either operand is empty."""
    a = _need_geometry(a, "ST_Distance")
    b = _need_geometry(b, "ST_Distance")
    return None if a.is_empty or b.is_empty else distance(a, b)


def _expand(value: Any, margin: Any) -> Geometry:
    """The envelope grown by ``margin``; as in PostGIS, an empty geometry
    expands to itself."""
    geom = _need_geometry(value, "ST_Expand")
    margin = _need_number(margin, "ST_Expand")
    if geom.is_empty:
        return geom
    return _envelope_polygon(*geom.envelope.expanded(margin).as_tuple())


def _boundary(value: Any) -> Geometry:
    geom = _need_geometry(value, "ST_Boundary")
    if hasattr(geom, "boundary"):
        return geom.boundary()  # polygons
    if isinstance(geom, LineString):
        pts = geom.boundary_points()
        if not pts:
            from repro.geometry.collection import EMPTY

            return EMPTY
        if len(pts) == 1:
            return pts[0]
        return MultiPoint(list(pts))
    if isinstance(geom, MultiLineString):
        pts = geom.boundary_points()
        if not pts:
            from repro.geometry.collection import EMPTY

            return EMPTY
        return MultiPoint(list(pts))
    from repro.geometry.collection import EMPTY

    return EMPTY  # points have an empty boundary


def _line_endpoint(value: Any, start: bool) -> Geometry:
    line = _as_line(value, "ST_StartPoint/ST_EndPoint")
    return line.start if start else line.end


def _as_line(value: Any, func: str) -> LineString:
    geom = _need_geometry(value, func)
    if isinstance(geom, LineString):
        return geom
    if isinstance(geom, MultiLineString) and len(geom) == 1:
        return geom[0]
    raise SqlPlanError(f"{func} requires a LINESTRING")


def _as_point(value: Any, func: str) -> Point:
    geom = _need_geometry(value, func)
    if not isinstance(geom, Point):
        raise SqlPlanError(f"{func} requires a POINT")
    return geom


def _members(geom: Geometry):
    from repro.geometry import (
        GeometryCollection,
        MultiLineString,
        MultiPoint,
        MultiPolygon,
    )

    if isinstance(geom, MultiPoint):
        return list(geom.points)
    if isinstance(geom, MultiLineString):
        return list(geom.lines)
    if isinstance(geom, MultiPolygon):
        return list(geom.polygons)
    if isinstance(geom, GeometryCollection):
        return list(geom.geoms)
    return [geom]


def _num_geometries(value: Any) -> int:
    return len(_members(_need_geometry(value, "ST_NumGeometries")))


def _geometry_n(value: Any, n: Any):
    members = _members(_need_geometry(value, "ST_GeometryN"))
    index = int(n)
    if not 1 <= index <= len(members):  # 1-based, like the standard
        return None
    return members[index - 1]


def _snap_to_grid(geom: Geometry, size: float) -> Geometry:
    if size <= 0.0:
        raise SqlPlanError("ST_SnapToGrid requires a positive cell size")

    def snap(coords):
        return [
            (round(x / size) * size, round(y / size) * size) for x, y in coords
        ]

    from repro.geometry import (
        GeometryCollection,
        MultiLineString,
        MultiPoint,
        MultiPolygon,
        Polygon,
    )

    if isinstance(geom, Point):
        (c,) = snap([geom.coord])
        return Point(*c)
    if isinstance(geom, MultiPoint):
        return MultiPoint(snap(p.coord for p in geom.points))
    if isinstance(geom, LineString):
        return LineString(_dedupe(snap(geom.coords)))
    if isinstance(geom, MultiLineString):
        return MultiLineString(
            [LineString(_dedupe(snap(line.coords))) for line in geom.lines]
        )
    if isinstance(geom, Polygon):
        return Polygon(
            _dedupe(snap(geom.shell)),
            [_dedupe(snap(h)) for h in geom.holes],
        )
    if isinstance(geom, MultiPolygon):
        return MultiPolygon([_snap_to_grid(p, size) for p in geom.polygons])
    if isinstance(geom, GeometryCollection):
        return GeometryCollection(
            [_snap_to_grid(m, size) for m in geom.geoms]
        )
    raise SqlPlanError(f"cannot snap {type(geom).__name__}")


def _dedupe(coords):
    out = []
    for c in coords:
        if not out or c != out[-1]:
            out.append(c)
    return out


def _azimuth(a: Any, b: Any) -> Any:
    """North-based clockwise bearing from point a to point b, in radians."""
    import math

    pa = _as_point(a, "ST_Azimuth")
    pb = _as_point(b, "ST_Azimuth")
    if pa.coord == pb.coord:
        return None
    return math.atan2(pb.x - pa.x, pb.y - pa.y) % (2.0 * math.pi)


def _reverse(value: Any) -> Geometry:
    geom = _need_geometry(value, "ST_Reverse")
    if isinstance(geom, LineString):
        return geom.reversed()
    if isinstance(geom, MultiLineString):
        return MultiLineString([line.reversed() for line in geom.lines])
    return geom


def _line_substring(line: LineString, lo: float, hi: float) -> Geometry:
    """The portion of ``line`` between fractions lo and hi of its length."""
    if not 0.0 <= lo <= hi <= 1.0:
        raise SqlPlanError("ST_LineSubstring requires 0 <= lo <= hi <= 1")
    if lo == hi:
        return line.interpolate(lo)
    import math

    total = line.length()
    start_d, end_d = lo * total, hi * total
    coords = []
    walked = 0.0
    for (ax, ay), (bx, by) in line.segments():
        seg = math.hypot(bx - ax, by - ay)
        seg_start, seg_end = walked, walked + seg
        if seg_end < start_d or seg_start > end_d:
            walked = seg_end
            continue
        t0 = max(0.0, (start_d - seg_start) / seg) if seg else 0.0
        t1 = min(1.0, (end_d - seg_start) / seg) if seg else 1.0
        p0 = (ax + t0 * (bx - ax), ay + t0 * (by - ay))
        p1 = (ax + t1 * (bx - ax), ay + t1 * (by - ay))
        if not coords:
            coords.append(p0)
        elif coords[-1] != p0:
            coords.append(p0)
        if coords[-1] != p1:
            coords.append(p1)
        walked = seg_end
    if len(coords) < 2:
        return line.interpolate(lo)
    return LineString(coords)


# -- aggregates -----------------------------------------------------------------


class Aggregate:
    """Base class for aggregate accumulators."""

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def add_all(self, values: Sequence[Any]) -> None:
        """One batch's argument values, in row order."""
        for value in values:
            self.add(value)

    def add_rows(self, count: int) -> None:
        """``AGG(*)`` over ``count`` rows: each row contributes a 1."""
        self.add_all([1] * count)

    def result(self) -> Any:
        raise NotImplementedError


class CountAgg(Aggregate):
    def __init__(self, distinct: bool = False):
        self.count = 0
        self.distinct = distinct
        self.seen: Optional[set] = set() if distinct else None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.seen is not None:
            key = value.wkt() if isinstance(value, Geometry) else value
            if key in self.seen:
                return
            self.seen.add(key)
        self.count += 1

    def add_rows(self, count: int) -> None:
        if self.seen is None:
            self.count += count  # COUNT(*): a batch adds its length
        else:
            super().add_rows(count)

    def result(self) -> int:
        return self.count


class SumAgg(Aggregate):
    def __init__(self) -> None:
        self.total: Optional[float] = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.total = value if self.total is None else self.total + value

    def result(self) -> Any:
        return self.total


class AvgAgg(Aggregate):
    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.total += value
        self.count += 1

    def result(self) -> Optional[float]:
        return self.total / self.count if self.count else None


class MinAgg(Aggregate):
    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None or value < self.best:
            self.best = value

    def result(self) -> Any:
        return self.best


class MaxAgg(Aggregate):
    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None or value > self.best:
            self.best = value

    def result(self) -> Any:
        return self.best


class UnionAgg(Aggregate):
    """``ST_Union(geom)`` as an aggregate: one-pass union of the group."""

    def __init__(self) -> None:
        self.geoms: List[Geometry] = []

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.geoms.append(_need_geometry(value, "ST_Union"))

    def result(self) -> Optional[Geometry]:
        if not self.geoms:
            return None
        from repro.algorithms import union_all

        return union_all(self.geoms)


class CollectAgg(Aggregate):
    """``ST_Collect(geom)``: pack the group into a collection."""

    def __init__(self) -> None:
        self.geoms: List[Geometry] = []

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.geoms.append(_need_geometry(value, "ST_Collect"))

    def result(self) -> Optional[Geometry]:
        if not self.geoms:
            return None
        from repro.geometry.collection import GeometryCollection

        return GeometryCollection(self.geoms)


class ExtentAgg(Aggregate):
    """``ST_Extent(geom)``: envelope of the whole group as a polygon."""

    def __init__(self) -> None:
        self.env: Optional[Envelope] = None

    def add(self, value: Any) -> None:
        if value is None or _need_geometry(value, "ST_Extent").is_empty:
            return
        env = value.envelope
        self.env = env if self.env is None else self.env.union(env)

    def result(self) -> Optional[Geometry]:
        if self.env is None:
            return None
        return _envelope_polygon(*self.env.as_tuple())


AGGREGATES: Dict[str, Callable[[], Aggregate]] = {
    "count": CountAgg,
    "sum": SumAgg,
    "avg": AvgAgg,
    "min": MinAgg,
    "max": MaxAgg,
    "st_union": UnionAgg,
    "st_collect": CollectAgg,
    "st_extent": ExtentAgg,
}

#: names that are aggregates only when called with a single argument —
#: ``ST_Union(a, b)`` stays a scalar function.
DUAL_ROLE_AGGREGATES = frozenset({"st_union", "st_collect"})
