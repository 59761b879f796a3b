"""Frozen statement lists for the two topology workloads.

Copied once from the J-T1 topology matrix and the J-T2 analysis suite
(``repro.core.micro``) and deliberately not imported from there: a
refactor of those modules must not silently change what the benchmark
runs. Each J-T1 join also carries the facts a layer probe needs to
replay its filter and refinement steps from outside the engine — the two
tables, the predicate, its argument order and the cheap conditions the
statement applies besides the spatial one.
"""

from collections import namedtuple

#: left/right are table names; ``pred`` is evaluated as pred(left, right);
#: ``left_eq`` is a (column, value) scan filter on the left table; ``pair``
#: names a cheap pair condition ("gid_lt" or "same_street"); ``indexed``
#: is False where no envelope filter applies
Join = namedtuple(
    "Join", "left right pred left_eq pair indexed",
    defaults=(None, None, True),
)

#: window statements: table, predicate
Window = namedtuple("Window", "table pred")

WINDOW = (20000.0, 20000.0, 40000.0, 40000.0)
_WINDOW_SQL = "ST_MakeEnvelope(20000, 20000, 40000, 40000)"

#: (id, sql, probe facts)
TOPOLOGY = (
    ("topo.polygon_equals_polygon",
     "SELECT COUNT(*) FROM arealm a JOIN arealm b "
     "ON ST_Equals(a.geom, b.geom) WHERE a.gid < b.gid",
     Join("arealm", "arealm", "st_equals", pair="gid_lt")),
    ("topo.polygon_disjoint_polygon",
     "SELECT COUNT(*) FROM counties c JOIN areawater w "
     "ON ST_Disjoint(c.geom, w.geom)",
     Join("counties", "areawater", "st_disjoint", indexed=False)),
    ("topo.polygon_intersects_polygon",
     "SELECT COUNT(*) FROM counties c JOIN areawater w "
     "ON ST_Intersects(c.geom, w.geom)",
     Join("counties", "areawater", "st_intersects")),
    ("topo.polygon_touches_polygon",
     "SELECT COUNT(*) FROM counties a JOIN counties b "
     "ON ST_Touches(a.geom, b.geom) WHERE a.gid < b.gid",
     Join("counties", "counties", "st_touches", pair="gid_lt")),
    ("topo.polygon_within_polygon",
     "SELECT COUNT(*) FROM arealm a JOIN counties c "
     "ON ST_Within(a.geom, c.geom)",
     Join("arealm", "counties", "st_within")),
    ("topo.polygon_contains_polygon",
     "SELECT COUNT(*) FROM counties c JOIN arealm a "
     "ON ST_Contains(c.geom, a.geom)",
     Join("counties", "arealm", "st_contains")),
    ("topo.polygon_overlaps_polygon",
     "SELECT COUNT(*) FROM arealm a JOIN areawater w "
     "ON ST_Overlaps(a.geom, w.geom)",
     Join("arealm", "areawater", "st_overlaps")),
    ("topo.line_intersects_polygon",
     "SELECT COUNT(*) FROM edges e JOIN areawater w "
     "ON ST_Intersects(e.geom, w.geom)",
     Join("edges", "areawater", "st_intersects")),
    ("topo.line_crosses_polygon",
     "SELECT COUNT(*) FROM rivers r JOIN counties c "
     "ON ST_Crosses(r.geom, c.geom)",
     Join("rivers", "counties", "st_crosses")),
    ("topo.line_within_polygon",
     "SELECT COUNT(*) FROM edges e JOIN counties c "
     "ON ST_Within(e.geom, c.geom) WHERE e.road_class = 'local'",
     Join("edges", "counties", "st_within",
          left_eq=("road_class", "local"))),
    ("topo.polygon_contains_line",
     "SELECT COUNT(*) FROM counties c JOIN rivers r "
     "ON ST_Contains(c.geom, r.geom)",
     Join("counties", "rivers", "st_contains")),
    ("topo.line_touches_polygon",
     "SELECT COUNT(*) FROM rivers r JOIN counties c "
     "ON ST_Touches(r.geom, c.geom)",
     Join("rivers", "counties", "st_touches")),
    ("topo.line_intersects_line",
     "SELECT COUNT(*) FROM rivers r JOIN edges e "
     "ON ST_Intersects(r.geom, e.geom)",
     Join("rivers", "edges", "st_intersects")),
    ("topo.line_crosses_line",
     "SELECT COUNT(*) FROM rivers r JOIN edges e "
     "ON ST_Crosses(r.geom, e.geom)",
     Join("rivers", "edges", "st_crosses")),
    ("topo.line_overlaps_line",
     "SELECT COUNT(*) FROM edges a JOIN edges b "
     "ON ST_Overlaps(a.geom, b.geom) "
     "WHERE a.gid < b.gid AND a.road_class = 'highway'",
     Join("edges", "edges", "st_overlaps",
          left_eq=("road_class", "highway"), pair="gid_lt")),
    ("topo.line_touches_line",
     "SELECT COUNT(*) FROM edges a JOIN edges b "
     "ON ST_Touches(a.geom, b.geom) "
     "WHERE a.gid < b.gid AND a.fullname = b.fullname "
     "AND a.county_fips = b.county_fips",
     Join("edges", "edges", "st_touches", pair="same_street")),
    ("topo.point_within_polygon",
     "SELECT COUNT(*) FROM pointlm p JOIN arealm a "
     "ON ST_Within(p.geom, a.geom)",
     Join("pointlm", "arealm", "st_within")),
    ("topo.polygon_contains_point",
     "SELECT COUNT(*) FROM counties c JOIN pointlm p "
     "ON ST_Contains(c.geom, p.geom)",
     Join("counties", "pointlm", "st_contains")),
    ("topo.point_intersects_polygon",
     "SELECT COUNT(*) FROM pointlm p JOIN areawater w "
     "ON ST_Intersects(p.geom, w.geom)",
     Join("pointlm", "areawater", "st_intersects")),
    ("topo.point_intersects_line",
     "SELECT COUNT(*) FROM pointlm p JOIN edges e "
     "ON ST_Intersects(p.geom, e.geom)",
     Join("pointlm", "edges", "st_intersects")),
    ("topo.point_equals_point",
     "SELECT COUNT(*) FROM pointlm a JOIN pointlm b "
     "ON ST_Equals(a.geom, b.geom) WHERE a.gid < b.gid",
     Join("pointlm", "pointlm", "st_equals", pair="gid_lt")),
    ("topo.region_intersects_polygon",
     f"SELECT COUNT(*) FROM arealm a WHERE ST_Intersects(a.geom, {_WINDOW_SQL})",
     Window("arealm", "st_intersects")),
    ("topo.region_intersects_line",
     f"SELECT COUNT(*) FROM edges e WHERE ST_Intersects(e.geom, {_WINDOW_SQL})",
     Window("edges", "st_intersects")),
    ("topo.region_contains_point",
     f"SELECT COUNT(*) FROM pointlm p WHERE ST_Within(p.geom, {_WINDOW_SQL})",
     Window("pointlm", "st_within")),
)

#: overlay cells replay ``op(left, right)`` over the pairs ``pred`` keeps
Overlay = namedtuple("Overlay", "left right pred op")
#: buffer cells replay ``buffer(geom, radius, quad_segs)`` over a scan
Buffer = namedtuple("Buffer", "table radius quad_segs where")

#: ``{fips}`` is bound at set-up to the first parcel's county, as
#: ``repro.core.micro.analysis.bind_dataset`` does
ANALYSIS = (
    ("analysis.dimension", "SELECT SUM(ST_Dimension(geom)) FROM edges", None),
    ("analysis.envelope",
     "SELECT SUM(ST_Area(ST_Envelope(geom))) FROM arealm", None),
    ("analysis.length", "SELECT SUM(ST_Length(geom)) FROM edges", None),
    ("analysis.area", "SELECT SUM(ST_Area(geom)) FROM counties", None),
    ("analysis.num_points", "SELECT SUM(ST_NPoints(geom)) FROM edges", None),
    ("analysis.centroid",
     "SELECT SUM(ST_X(ST_Centroid(geom))) FROM counties", None),
    ("analysis.point_on_surface",
     "SELECT SUM(ST_X(ST_PointOnSurface(geom))) FROM arealm", None),
    ("analysis.boundary",
     "SELECT SUM(ST_Length(ST_Boundary(geom))) FROM arealm", None),
    ("analysis.convex_hull",
     "SELECT SUM(ST_Area(ST_ConvexHull(geom))) FROM areawater", None),
    ("analysis.buffer_point",
     "SELECT SUM(ST_Area(ST_Buffer(geom, 500))) FROM pointlm "
     "WHERE gid <= 100",
     Buffer("pointlm", 500.0, 8, ("gid_le", 100))),
    ("analysis.buffer_line",
     "SELECT SUM(ST_Area(ST_Buffer(geom, 100, 4))) FROM edges "
     "WHERE road_class = 'highway'",
     Buffer("edges", 100.0, 4, ("road_class", "highway"))),
    ("analysis.distance",
     "SELECT MAX(ST_Distance(geom, ST_Point(50000, 50000))) FROM pointlm",
     None),
    ("analysis.simplify",
     "SELECT SUM(ST_NPoints(ST_Simplify(geom, 200))) FROM edges "
     "WHERE road_class = 'highway'", None),
    ("analysis.intersection",
     "SELECT SUM(ST_Area(ST_Intersection(c.geom, w.geom))) "
     "FROM counties c JOIN areawater w ON ST_Intersects(c.geom, w.geom)",
     Overlay("counties", "areawater", "st_intersects", "intersection")),
    ("analysis.union_pairwise",
     "SELECT SUM(ST_Area(ST_Union(a.geom, w.geom))) "
     "FROM arealm a JOIN areawater w ON ST_Intersects(a.geom, w.geom)",
     Overlay("arealm", "areawater", "st_intersects", "union")),
    ("analysis.difference",
     "SELECT SUM(ST_Area(ST_Difference(c.geom, w.geom))) "
     "FROM counties c JOIN areawater w ON ST_Intersects(c.geom, w.geom)",
     Overlay("counties", "areawater", "st_intersects", "difference")),
    ("analysis.sym_difference",
     "SELECT SUM(ST_Area(ST_SymDifference(a.geom, w.geom))) "
     "FROM arealm a JOIN areawater w ON ST_Overlaps(a.geom, w.geom)",
     Overlay("arealm", "areawater", "st_overlaps", "sym_difference")),
    ("analysis.union_aggregate",
     "SELECT ST_Area(ST_Union(geom)) FROM parcels "
     "WHERE county_fips = '{fips}'", None),
    ("analysis.as_text",
     "SELECT SUM(CHAR_LENGTH(ST_AsText(geom))) FROM arealm", None),
    ("analysis.relate_matrix",
     "SELECT COUNT(*) FROM arealm a JOIN areawater w "
     "ON a.geom && w.geom WHERE ST_Relate(a.geom, w.geom, 'T********')",
     None),
)
