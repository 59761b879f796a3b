"""Spatial-analysis micro benchmark (J-T2).

Each query isolates one OGC analysis function over a layer (or a layer
pair) and reduces the result to an aggregate so engines return one
comparable number. Functions missing from an engine's profile are
reported as "not supported" — a first-class outcome in the paper, which
found large feature gaps between the systems under test.
"""

from __future__ import annotations

from typing import List

from repro.core.query import BenchmarkQuery


def analysis_queries() -> List[BenchmarkQuery]:
    q: List[BenchmarkQuery] = []

    def add(query_id: str, title: str, sql: str, description: str = "") -> None:
        q.append(BenchmarkQuery(f"analysis.{query_id}", title, sql, description))

    add(
        "dimension",
        "Dimension",
        "SELECT SUM(ST_Dimension(geom)) FROM edges",
    )
    add(
        "envelope",
        "Envelope",
        "SELECT SUM(ST_Area(ST_Envelope(geom))) FROM arealm",
    )
    add(
        "length",
        "Length",
        "SELECT SUM(ST_Length(geom)) FROM edges",
    )
    add(
        "area",
        "Area",
        "SELECT SUM(ST_Area(geom)) FROM counties",
    )
    add(
        "num_points",
        "NumPoints",
        "SELECT SUM(ST_NPoints(geom)) FROM edges",
    )
    add(
        "centroid",
        "Centroid",
        "SELECT SUM(ST_X(ST_Centroid(geom))) FROM counties",
    )
    add(
        "point_on_surface",
        "PointOnSurface",
        "SELECT SUM(ST_X(ST_PointOnSurface(geom))) FROM arealm",
    )
    add(
        "boundary",
        "Boundary",
        "SELECT SUM(ST_Length(ST_Boundary(geom))) FROM arealm",
    )
    add(
        "convex_hull",
        "ConvexHull",
        "SELECT SUM(ST_Area(ST_ConvexHull(geom))) FROM areawater",
    )
    add(
        "buffer_point",
        "Buffer (points)",
        "SELECT SUM(ST_Area(ST_Buffer(geom, 500))) FROM pointlm "
        "WHERE gid <= 100",
    )
    add(
        "buffer_line",
        "Buffer (lines)",
        "SELECT SUM(ST_Area(ST_Buffer(geom, 100, 4))) FROM edges "
        "WHERE road_class = 'highway'",
    )
    add(
        "distance",
        "Distance",
        "SELECT MAX(ST_Distance(geom, ST_Point(50000, 50000))) FROM pointlm",
    )
    add(
        "simplify",
        "Simplify",
        "SELECT SUM(ST_NPoints(ST_Simplify(geom, 200))) FROM edges "
        "WHERE road_class = 'highway'",
    )
    add(
        "intersection",
        "Intersection (areal)",
        "SELECT SUM(ST_Area(ST_Intersection(c.geom, w.geom))) "
        "FROM counties c JOIN areawater w ON ST_Intersects(c.geom, w.geom)",
        "clip lakes to counties: overlay on every qualifying pair",
    )
    add(
        "union_pairwise",
        "Union (pairwise)",
        "SELECT SUM(ST_Area(ST_Union(a.geom, w.geom))) "
        "FROM arealm a JOIN areawater w ON ST_Intersects(a.geom, w.geom)",
    )
    add(
        "difference",
        "Difference",
        "SELECT SUM(ST_Area(ST_Difference(c.geom, w.geom))) "
        "FROM counties c JOIN areawater w ON ST_Intersects(c.geom, w.geom)",
    )
    add(
        "sym_difference",
        "SymDifference",
        "SELECT SUM(ST_Area(ST_SymDifference(a.geom, w.geom))) "
        "FROM arealm a JOIN areawater w ON ST_Overlaps(a.geom, w.geom)",
    )
    add(
        "union_aggregate",
        "Union (aggregate)",
        "SELECT ST_Area(ST_Union(geom)) FROM parcels "
        "WHERE county_fips = (SELECT_FIPS)",
        "dissolve one suburb's parcels into a single shape",
    )
    add(
        "as_text",
        "AsText (serialisation)",
        "SELECT SUM(CHAR_LENGTH(ST_AsText(geom))) FROM arealm",
    )
    add(
        "relate_matrix",
        "Relate (full matrix)",
        "SELECT COUNT(*) FROM arealm a JOIN areawater w "
        "ON a.geom && w.geom WHERE ST_Relate(a.geom, w.geom, 'T********')",
        "explicit DE-9IM pattern evaluation after an envelope filter",
    )
    return q


def bind_dataset(sql: str, dataset) -> str:
    """``sql`` with its dataset-dependent placeholders (a real FIPS code)
    substituted."""
    parcels = dataset.layer("parcels")
    fips_idx = parcels.columns.index("county_fips")
    fips = parcels.rows[0][fips_idx] if parcels.rows else "48001"
    return sql.replace("(SELECT_FIPS)", f"'{fips}'")
