"""Integration tests: full SQL statements through the embedded engine."""

import pytest

from repro.engines import Database
from repro.errors import SqlPlanError, SqlSyntaxError
from repro.geometry import Point, Polygon


@pytest.fixture
def db():
    database = Database("greenwood")
    database.execute("CREATE TABLE cities (id INTEGER, name TEXT, pop INTEGER, geom GEOMETRY)")
    database.execute(
        "INSERT INTO cities VALUES "
        "(1, 'Alpha', 100, ST_Point(0, 0)), "
        "(2, 'Beta', 250, ST_Point(10, 0)), "
        "(3, 'Gamma', 50, ST_Point(0, 10)), "
        "(4, 'Delta', NULL, ST_Point(10, 10))"
    )
    database.execute("CREATE TABLE zones (zid INTEGER, kind TEXT, geom GEOMETRY)")
    database.execute(
        "INSERT INTO zones VALUES "
        "(10, 'core', ST_GeomFromText('POLYGON((-1 -1, 5 -1, 5 5, -1 5, -1 -1))')), "
        "(20, 'ring', ST_GeomFromText('POLYGON((5 5, 15 5, 15 15, 5 15, 5 5))'))"
    )
    return database


class TestDdlAndDml:
    def test_create_duplicate_table_rejected(self, db):
        with pytest.raises(SqlPlanError):
            db.execute("CREATE TABLE cities (id INTEGER)")

    def test_create_if_not_exists_silent(self, db):
        db.execute("CREATE TABLE IF NOT EXISTS cities (id INTEGER)")

    def test_drop_table(self, db):
        db.execute("CREATE TABLE tmp (x INTEGER)")
        db.execute("DROP TABLE tmp")
        with pytest.raises(SqlPlanError):
            db.execute("SELECT * FROM tmp")

    def test_drop_missing_needs_if_exists(self, db):
        with pytest.raises(SqlPlanError):
            db.execute("DROP TABLE nope")
        db.execute("DROP TABLE IF EXISTS nope")

    def test_insert_column_subset(self, db):
        db.execute("INSERT INTO cities (id, name) VALUES (9, 'Omega')")
        got = db.execute("SELECT pop, geom FROM cities WHERE id = 9")
        assert got.rows[0] == (None, None)

    def test_insert_wrong_arity(self, db):
        with pytest.raises(SqlPlanError):
            db.execute("INSERT INTO cities (id, name) VALUES (9)")

    def test_type_coercion_rejects_garbage(self, db):
        from repro.errors import EngineError

        with pytest.raises(EngineError):
            db.execute("INSERT INTO cities VALUES ('x', 'n', 1, NULL)")

    def test_delete_with_predicate(self, db):
        result = db.execute("DELETE FROM cities WHERE pop < 200")
        assert result.rowcount == 2
        assert db.execute("SELECT COUNT(*) FROM cities").scalar() == 2

    def test_delete_updates_indexes(self, db):
        db.execute("CREATE SPATIAL INDEX city_idx ON cities (geom)")
        db.execute("DELETE FROM cities WHERE id = 1")
        got = db.execute(
            "SELECT COUNT(*) FROM cities "
            "WHERE ST_Intersects(geom, ST_MakeEnvelope(-1, -1, 1, 1))"
        )
        assert got.scalar() == 0


class TestSelectBasics:
    def test_projection_and_alias(self, db):
        got = db.execute("SELECT name AS n, pop * 2 AS double_pop FROM cities WHERE id = 2")
        assert got.columns == ["n", "double_pop"]
        assert got.rows == [("Beta", 500)]

    def test_star_expansion(self, db):
        got = db.execute("SELECT * FROM cities WHERE id = 1")
        assert got.columns == ["id", "name", "pop", "geom"]

    def test_select_without_from(self, db):
        assert db.execute("SELECT 1 + 2 * 3").scalar() == 7

    def test_where_null_is_filtered(self, db):
        got = db.execute("SELECT id FROM cities WHERE pop > 0")
        assert len(got.rows) == 3  # Delta's NULL pop excluded

    def test_is_null(self, db):
        got = db.execute("SELECT id FROM cities WHERE pop IS NULL")
        assert got.rows == [(4,)]

    def test_in_and_between(self, db):
        got = db.execute(
            "SELECT id FROM cities WHERE id IN (1, 3) AND pop BETWEEN 40 AND 120 "
            "ORDER BY id"
        )
        assert [r[0] for r in got.rows] == [1, 3]

    def test_like(self, db):
        got = db.execute("SELECT name FROM cities WHERE name LIKE '%ta' ORDER BY name")
        assert [r[0] for r in got.rows] == ["Beta", "Delta"]

    def test_order_by_desc_nulls(self, db):
        got = db.execute("SELECT id FROM cities ORDER BY pop DESC")
        # NULL sorts first in descending order (last ascending), as in
        # PostgreSQL
        assert got.rows == [(4,), (2,), (1,), (3,)]
        got = db.execute("SELECT id FROM cities ORDER BY pop")
        assert got.rows == [(3,), (1,), (2,), (4,)]

    def test_order_by_position(self, db):
        got = db.execute("SELECT id, pop FROM cities WHERE pop IS NOT NULL ORDER BY 2")
        assert [r[0] for r in got.rows] == [3, 1, 2]

    def test_limit_offset(self, db):
        got = db.execute("SELECT id FROM cities ORDER BY id LIMIT 2 OFFSET 1")
        assert [r[0] for r in got.rows] == [2, 3]

    def test_distinct(self, db):
        db.execute("INSERT INTO cities VALUES (5, 'Alpha', 1, ST_Point(1,1))")
        got = db.execute("SELECT DISTINCT name FROM cities WHERE name = 'Alpha'")
        assert len(got.rows) == 1

    def test_params(self, db):
        got = db.execute("SELECT id FROM cities WHERE name = ? AND pop > ?", ("Beta", 100))
        assert got.rows == [(2,)]

    def test_unknown_column_rejected(self, db):
        with pytest.raises(SqlPlanError):
            db.execute("SELECT nosuch FROM cities")

    def test_ambiguous_column_rejected(self, db):
        with pytest.raises(SqlPlanError):
            db.execute("SELECT geom FROM cities c, zones z")

    def test_string_concat(self, db):
        got = db.execute("SELECT name || '!' FROM cities WHERE id = 1")
        assert got.scalar() == "Alpha!"


class TestAggregates:
    def test_count_sum_avg_min_max(self, db):
        got = db.execute(
            "SELECT COUNT(*), COUNT(pop), SUM(pop), AVG(pop), MIN(pop), MAX(pop) "
            "FROM cities"
        )
        assert got.rows[0] == (4, 3, 400, 400 / 3, 50, 250)

    def test_empty_aggregate_row(self, db):
        got = db.execute("SELECT COUNT(*), SUM(pop) FROM cities WHERE id > 99")
        assert got.rows == [(0, None)]

    def test_group_by_with_having(self, db):
        db.execute("INSERT INTO cities VALUES (6, 'Beta', 10, ST_Point(2,2))")
        got = db.execute(
            "SELECT name, COUNT(*) c, SUM(pop) FROM cities GROUP BY name "
            "HAVING COUNT(*) > 1 ORDER BY name"
        )
        assert got.rows == [("Beta", 2, 260)]

    def test_count_distinct(self, db):
        db.execute("INSERT INTO cities VALUES (7, 'Alpha', 1, ST_Point(3,3))")
        got = db.execute("SELECT COUNT(DISTINCT name) FROM cities")
        assert got.scalar() == 4

    def test_aggregate_of_expression(self, db):
        got = db.execute("SELECT SUM(pop * 2) FROM cities WHERE pop IS NOT NULL")
        assert got.scalar() == 800

    def test_expression_over_aggregate(self, db):
        got = db.execute("SELECT MAX(pop) - MIN(pop) FROM cities")
        assert got.scalar() == 200

    def test_order_by_aggregate(self, db):
        got = db.execute(
            "SELECT name, SUM(pop) s FROM cities GROUP BY name ORDER BY s DESC LIMIT 2"
        )
        # Delta's NULL sum sorts first in descending order
        assert got.rows == [("Delta", None), ("Beta", 250)]

    def test_st_extent_aggregate(self, db):
        got = db.execute("SELECT ST_Area(ST_Extent(geom)) FROM cities")
        assert got.scalar() == 100.0

    def test_st_collect_aggregate(self, db):
        got = db.execute("SELECT ST_NPoints(ST_Collect(geom)) FROM cities")
        assert got.scalar() == 4

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(SqlPlanError):
            db.execute("SELECT id FROM cities WHERE COUNT(*) > 1")


class TestJoins:
    def test_spatial_join(self, db):
        got = db.execute(
            "SELECT c.name, z.zid FROM cities c JOIN zones z "
            "ON ST_Contains(z.geom, c.geom) ORDER BY c.id"
        )
        assert got.rows == [("Alpha", 10), ("Delta", 20)]

    def test_hash_join_on_equality(self, db):
        db.execute("CREATE TABLE pops (amount INTEGER, label TEXT)")
        db.execute(
            "INSERT INTO pops VALUES (100, 'small'), (250, 'medium')"
        )
        got = db.execute(
            "SELECT c.name, p.label FROM cities c JOIN pops p "
            "ON c.pop = p.amount ORDER BY c.id"
        )
        assert got.rows == [("Alpha", "small"), ("Beta", "medium")]
        plan = db.explain(
            "SELECT c.name FROM cities c JOIN pops p ON c.pop = p.amount"
        )
        assert "HashJoin" in plan

    def test_cross_join(self, db):
        got = db.execute("SELECT COUNT(*) FROM cities, zones")
        assert got.scalar() == 8

    def test_join_condition_with_extra_filter(self, db):
        got = db.execute(
            "SELECT c.name FROM cities c JOIN zones z "
            "ON ST_Contains(z.geom, c.geom) AND z.kind = 'core'"
        )
        assert got.rows == [("Alpha",)]

    def test_self_join_aliases(self, db):
        got = db.execute(
            "SELECT a.id, b.id FROM cities a JOIN cities b "
            "ON a.id < b.id WHERE a.id = 1 ORDER BY b.id"
        )
        assert [r[1] for r in got.rows] == [2, 3, 4]


class TestIndexUsage:
    def test_index_scan_chosen(self, db):
        db.execute("CREATE SPATIAL INDEX zidx ON zones (geom)")
        plan = db.explain(
            "SELECT zid FROM zones WHERE ST_Intersects(geom, ST_Point(0, 0))"
        )
        assert "IndexScan" in plan

    def test_seq_scan_without_index(self, db):
        plan = db.explain(
            "SELECT zid FROM zones WHERE ST_Intersects(geom, ST_Point(0, 0))"
        )
        assert "SeqScan" in plan

    def test_index_join_chosen(self, db):
        db.execute("CREATE SPATIAL INDEX cidx ON cities (geom)")
        plan = db.explain(
            "SELECT 1 FROM zones z JOIN cities c ON ST_Contains(z.geom, c.geom)"
        )
        assert "IndexNestedLoopJoin" in plan

    def test_index_and_scan_agree(self, db):
        query = (
            "SELECT zid FROM zones "
            "WHERE ST_Intersects(geom, ST_MakeEnvelope(0, 0, 6, 6))"
        )
        before = sorted(db.execute(query).rows)
        db.execute("CREATE SPATIAL INDEX zidx ON zones (geom)")
        after = sorted(db.execute(query).rows)
        assert before == after

    def test_dwithin_uses_expanded_probe(self, db):
        db.execute("CREATE SPATIAL INDEX cidx ON cities (geom)")
        got = db.execute(
            "SELECT id FROM cities WHERE ST_DWithin(geom, ST_Point(0, 0), 11) "
            "ORDER BY id"
        )
        assert [r[0] for r in got.rows] == [1, 2, 3]

    def test_envelope_operator_indexable(self, db):
        db.execute("CREATE SPATIAL INDEX cidx ON cities (geom)")
        plan = db.explain(
            "SELECT id FROM cities WHERE geom && ST_MakeEnvelope(0, 0, 1, 1)"
        )
        assert "IndexScan" in plan

    def test_insert_maintains_index(self, db):
        db.execute("CREATE SPATIAL INDEX cidx ON cities (geom)")
        db.execute("INSERT INTO cities VALUES (99, 'New', 5, ST_Point(0.5, 0.5))")
        got = db.execute(
            "SELECT id FROM cities "
            "WHERE ST_Intersects(geom, ST_MakeEnvelope(0.4, 0.4, 0.6, 0.6))"
        )
        assert got.rows == [(99,)]

    def test_create_index_on_non_geometry_rejected(self, db):
        with pytest.raises(SqlPlanError):
            db.execute("CREATE SPATIAL INDEX bad ON cities (name)")


class TestSpatialFunctions:
    def test_geometry_construction_and_accessors(self, db):
        got = db.execute(
            "SELECT ST_X(ST_Point(3, 4)), ST_Y(ST_Point(3, 4)), "
            "ST_AsText(ST_Point(1, 2))"
        )
        assert got.rows[0] == (3.0, 4.0, "POINT (1 2)")

    def test_geometry_type_and_dimension(self, db):
        got = db.execute(
            "SELECT ST_GeometryType(geom), ST_Dimension(geom) "
            "FROM zones WHERE zid = 10"
        )
        assert got.rows[0] == ("ST_Polygon", 2)

    def test_area_length_distance(self, db):
        got = db.execute(
            "SELECT ST_Area(geom), ST_Perimeter(geom) FROM zones WHERE zid = 10"
        )
        assert got.rows[0] == (36.0, 24.0)

    def test_relate_with_pattern(self, db):
        got = db.execute(
            "SELECT ST_Relate(a.geom, b.geom, 'FF*FF****') "
            "FROM zones a JOIN zones b ON a.zid < b.zid"
        )
        assert got.scalar() is False  # they touch at (5, 5)

    def test_geomfromtext_error_propagates(self, db):
        from repro.errors import WktParseError

        with pytest.raises(WktParseError):
            db.execute("SELECT ST_GeomFromText('NOT WKT')")

    def test_unknown_function(self, db):
        with pytest.raises(SqlPlanError):
            db.execute("SELECT ST_Frobnicate(geom) FROM zones")

    def test_scalar_functions(self, db):
        got = db.execute(
            "SELECT ABS(-3), ROUND(2.567, 1), LOWER('ABC'), UPPER('abc'), "
            "COALESCE(NULL, 7), SUBSTR('spatial', 1, 3)"
        )
        assert got.rows[0] == (3, 2.6, "abc", "ABC", 7, "spa")
