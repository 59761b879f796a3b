"""Topological micro benchmark: DE-9IM relation × geometry-type-pair matrix.

This reconstructs the paper's primary micro table (J-T1): each query
isolates one named DE-9IM relation over one pair of geometry types drawn
from the TIGER-like layers, counting qualifying pairs so the result is a
single comparable number per engine. Selective queries go through the
spatial index (filter + refine); ``Disjoint`` deliberately cannot, which
is part of what the experiment shows.
"""

from __future__ import annotations

from typing import List

from repro.core.query import BenchmarkQuery


def topology_queries() -> List[BenchmarkQuery]:
    """The full topological micro suite, in report order."""
    q: List[BenchmarkQuery] = []

    def add(query_id: str, title: str, sql: str, description: str = "") -> None:
        q.append(BenchmarkQuery(f"topo.{query_id}", title, sql, description))

    # --- polygon vs polygon -------------------------------------------------
    add(
        "polygon_equals_polygon",
        "Polygon Equals Polygon",
        "SELECT COUNT(*) FROM arealm a JOIN arealm b "
        "ON ST_Equals(a.geom, b.geom) WHERE a.gid < b.gid",
        "self-join: distinct equal landmark polygons (expected ~0)",
    )
    add(
        "polygon_disjoint_polygon",
        "Polygon Disjoint Polygon",
        "SELECT COUNT(*) FROM counties c JOIN areawater w "
        "ON ST_Disjoint(c.geom, w.geom)",
        "non-indexable relation: full cross-pair evaluation",
    )
    add(
        "polygon_intersects_polygon",
        "Polygon Intersects Polygon",
        "SELECT COUNT(*) FROM counties c JOIN areawater w "
        "ON ST_Intersects(c.geom, w.geom)",
    )
    add(
        "polygon_touches_polygon",
        "Polygon Touches Polygon",
        "SELECT COUNT(*) FROM counties a JOIN counties b "
        "ON ST_Touches(a.geom, b.geom) WHERE a.gid < b.gid",
        "county adjacency via exactly-shared borders",
    )
    add(
        "polygon_within_polygon",
        "Polygon Within Polygon",
        "SELECT COUNT(*) FROM arealm a JOIN counties c "
        "ON ST_Within(a.geom, c.geom)",
    )
    add(
        "polygon_contains_polygon",
        "Polygon Contains Polygon",
        "SELECT COUNT(*) FROM counties c JOIN arealm a "
        "ON ST_Contains(c.geom, a.geom)",
    )
    add(
        "polygon_overlaps_polygon",
        "Polygon Overlaps Polygon",
        "SELECT COUNT(*) FROM arealm a JOIN areawater w "
        "ON ST_Overlaps(a.geom, w.geom)",
    )

    # --- line vs polygon ----------------------------------------------------
    add(
        "line_intersects_polygon",
        "Line Intersects Polygon",
        "SELECT COUNT(*) FROM edges e JOIN areawater w "
        "ON ST_Intersects(e.geom, w.geom)",
    )
    add(
        "line_crosses_polygon",
        "Line Crosses Polygon",
        "SELECT COUNT(*) FROM rivers r JOIN counties c "
        "ON ST_Crosses(r.geom, c.geom)",
    )
    add(
        "line_within_polygon",
        "Line Within Polygon",
        "SELECT COUNT(*) FROM edges e JOIN counties c "
        "ON ST_Within(e.geom, c.geom) WHERE e.road_class = 'local'",
    )
    add(
        "polygon_contains_line",
        "Polygon Contains Line",
        "SELECT COUNT(*) FROM counties c JOIN rivers r "
        "ON ST_Contains(c.geom, r.geom)",
        "rivers span the whole state: expected 0",
    )
    add(
        "line_touches_polygon",
        "Line Touches Polygon",
        "SELECT COUNT(*) FROM rivers r JOIN counties c "
        "ON ST_Touches(r.geom, c.geom)",
    )

    # --- line vs line -----------------------------------------------------------
    add(
        "line_intersects_line",
        "Line Intersects Line",
        "SELECT COUNT(*) FROM rivers r JOIN edges e "
        "ON ST_Intersects(r.geom, e.geom)",
    )
    add(
        "line_crosses_line",
        "Line Crosses Line",
        "SELECT COUNT(*) FROM rivers r JOIN edges e "
        "ON ST_Crosses(r.geom, e.geom)",
    )
    add(
        "line_overlaps_line",
        "Line Overlaps Line",
        "SELECT COUNT(*) FROM edges a JOIN edges b "
        "ON ST_Overlaps(a.geom, b.geom) "
        "WHERE a.gid < b.gid AND a.road_class = 'highway'",
    )
    add(
        "line_touches_line",
        "Line Touches Line",
        "SELECT COUNT(*) FROM edges a JOIN edges b "
        "ON ST_Touches(a.geom, b.geom) "
        "WHERE a.gid < b.gid AND a.fullname = b.fullname "
        "AND a.county_fips = b.county_fips",
        "consecutive address-range blocks of the same street",
    )

    # --- point vs polygon ----------------------------------------------------------
    add(
        "point_within_polygon",
        "Point Within Polygon",
        "SELECT COUNT(*) FROM pointlm p JOIN arealm a "
        "ON ST_Within(p.geom, a.geom)",
    )
    add(
        "polygon_contains_point",
        "Polygon Contains Point",
        "SELECT COUNT(*) FROM counties c JOIN pointlm p "
        "ON ST_Contains(c.geom, p.geom)",
    )
    add(
        "point_intersects_polygon",
        "Point Intersects Polygon",
        "SELECT COUNT(*) FROM pointlm p JOIN areawater w "
        "ON ST_Intersects(p.geom, w.geom)",
    )

    # --- point vs line / point -------------------------------------------------------
    add(
        "point_intersects_line",
        "Point Intersects Line",
        "SELECT COUNT(*) FROM pointlm p JOIN edges e "
        "ON ST_Intersects(p.geom, e.geom)",
        "points rarely sit exactly on lines: near-zero result, full filter cost",
    )
    add(
        "point_equals_point",
        "Point Equals Point",
        "SELECT COUNT(*) FROM pointlm a JOIN pointlm b "
        "ON ST_Equals(a.geom, b.geom) WHERE a.gid < b.gid",
    )

    # --- window (region) queries: the classic selective filter ----------------------
    window = (
        "ST_MakeEnvelope(20000, 20000, 40000, 40000)"
    )
    add(
        "region_intersects_polygon",
        "Region Intersects Polygon (window)",
        f"SELECT COUNT(*) FROM arealm a WHERE ST_Intersects(a.geom, {window})",
        "single-table index-driven window query",
    )
    add(
        "region_intersects_line",
        "Region Intersects Line (window)",
        f"SELECT COUNT(*) FROM edges e WHERE ST_Intersects(e.geom, {window})",
    )
    add(
        "region_contains_point",
        "Region Contains Point (window)",
        f"SELECT COUNT(*) FROM pointlm p WHERE ST_Within(p.geom, {window})",
    )
    return q
