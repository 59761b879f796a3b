"""Tests for engine capability profiles: MBR vs exact semantics, the
full-matrix refinement path, unsupported feature sets, index defaults."""

import pytest

from repro.algorithms.de9im import evaluate
from repro.engines import Database, get_profile
from repro.engines.profiles import (
    BLUESTEM,
    GREENWOOD,
    IRONBARK,
    PROFILES,
    _mbr_predicate,
)
from repro.errors import UnsupportedFeatureError
from repro.geometry import LineString, Point, Polygon, wkt_loads

TRIANGLE = Polygon([(0, 0), (10, 0), (0, 10)])
NEAR_CORNER = Point(9, 9)  # inside the MBR, outside the triangle


class TestRegistry:
    def test_three_profiles(self):
        assert set(PROFILES) == {"greenwood", "bluestem", "ironbark"}

    def test_get_profile_case_insensitive(self):
        assert get_profile("GreenWood") is GREENWOOD

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            get_profile("oracle")

    def test_index_defaults(self):
        assert GREENWOOD.index_kind == "rtree"
        assert BLUESTEM.index_kind == "rtree"
        assert IRONBARK.index_kind == "quadtree"


class TestPredicateSemantics:
    def test_mbr_contains_overapproximates(self):
        assert _mbr_predicate("st_contains", TRIANGLE, NEAR_CORNER)
        assert not GREENWOOD.evaluate_predicate(
            "st_contains", TRIANGLE, NEAR_CORNER
        )
        assert not IRONBARK.evaluate_predicate(
            "st_contains", TRIANGLE, NEAR_CORNER
        )

    def test_mbr_intersects(self):
        assert BLUESTEM.evaluate_predicate(
            "st_intersects", TRIANGLE, NEAR_CORNER
        )

    def test_matrix_mode_matches_fast_mode(self):
        pairs = [
            (TRIANGLE, NEAR_CORNER),
            (TRIANGLE, Point(2, 2)),
            (TRIANGLE, Polygon([(5, 5), (15, 5), (15, 15), (5, 15)])),
            (TRIANGLE, LineString([(-5, 5), (15, 5)])),
            (
                Polygon([(0, 0), (10, 0), (10, 10), (0, 10)]),
                Polygon([(10, 0), (20, 0), (20, 10), (10, 10)]),
            ),
            (LineString([(0, 0), (10, 10)]), LineString([(0, 10), (10, 0)])),
        ]
        predicates = [
            "st_equals", "st_disjoint", "st_intersects", "st_touches",
            "st_crosses", "st_within", "st_contains", "st_overlaps",
            "st_covers", "st_coveredby",
        ]
        for a, b in pairs:
            for name in predicates:
                fast = GREENWOOD.evaluate_predicate(name, a, b)
                matrix = IRONBARK.evaluate_predicate(name, a, b)
                assert fast == matrix, f"{name} diverged on {a!r} vs {b!r}"

    def test_mbr_touches_definition(self):
        a = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        b = Polygon([(10, 0), (20, 0), (20, 10), (10, 10)])
        assert _mbr_predicate("st_touches", a, b)
        overlapping = Polygon([(5, 5), (15, 5), (15, 15), (5, 15)])
        assert not _mbr_predicate("st_touches", a, overlapping)

    def test_matrix_crosses_dimension_rules(self):
        line = LineString([(-5, 5), (15, 5)])
        square = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        assert evaluate("crosses", line, square, every_cell=True)
        assert evaluate("crosses", square, line, every_cell=True)
        assert not evaluate("crosses", square, square, every_cell=True)


class TestUnsupportedFeatures:
    def test_bluestem_rejects_predicates_it_lacks(self):
        with pytest.raises(UnsupportedFeatureError):
            BLUESTEM.evaluate_predicate("st_covers", TRIANGLE, NEAR_CORNER)

    def test_check_supported(self):
        GREENWOOD.check_supported("st_buffer")
        with pytest.raises(UnsupportedFeatureError):
            BLUESTEM.check_supported("st_convexhull")

    def test_engine_surfaces_unsupported_in_sql(self):
        db = Database("bluestem")
        db.execute("CREATE TABLE g (geom GEOMETRY)")
        db.execute("INSERT INTO g VALUES (ST_Point(1, 1))")
        with pytest.raises(UnsupportedFeatureError):
            db.execute("SELECT ST_Simplify(geom, 1) FROM g")


class TestAnswerDivergence:
    """The J-A1 ablation in miniature: same SQL, different answers."""

    SQL = "SELECT COUNT(*) FROM tri WHERE ST_Contains(geom, ST_Point(9, 9))"

    def _load(self, engine):
        db = Database(engine)
        db.execute("CREATE TABLE tri (id INTEGER, geom GEOMETRY)")
        db.execute(
            "INSERT INTO tri VALUES "
            "(1, ST_GeomFromText('POLYGON((0 0, 10 0, 0 10, 0 0))'))"
        )
        return db

    def test_exact_engines_agree(self):
        assert self._load("greenwood").execute(self.SQL).scalar() == 0
        assert self._load("ironbark").execute(self.SQL).scalar() == 0

    def test_mbr_engine_overcounts(self):
        assert self._load("bluestem").execute(self.SQL).scalar() == 1

    def test_divergence_survives_indexing(self):
        db = self._load("bluestem")
        db.execute("CREATE SPATIAL INDEX tidx ON tri (geom)")
        assert db.execute(self.SQL).scalar() == 1


class TestDegenerateOperands:
    WINDOW = (
        "SELECT COUNT(*) FROM t "
        "WHERE ST_Intersects(geom, ST_MakeEnvelope(0, 0, 1, 1))"
    )

    def _table(self, engine, *wkts):
        db = Database(engine)
        db.execute("CREATE TABLE t (id INTEGER, geom GEOMETRY)")
        for i, text in enumerate(wkts):
            db.execute(f"INSERT INTO t VALUES ({i}, ST_GeomFromText('{text}'))")
        return db

    @pytest.mark.parametrize("engine,degraded", [("greenwood", 0), ("ironbark", 1)])
    def test_sliver_without_an_interior_point_degrades_to_the_mbr(
        self, engine, degraded
    ):
        # valid, but no probe finds a point inside it: ironbark's full
        # matrix needs one, so its refinement fails as a TopologyError and
        # the MBR verdict answers
        db = self._table(engine, "POLYGON((0 1, -4e-9 0, 0 0.999999996, 0 1))")
        assert db.execute(self.WINDOW).scalar() == 1
        assert db.stats.degraded_results == degraded

    @pytest.mark.parametrize("engine", ["greenwood", "ironbark"])
    def test_an_empty_geometry_is_stored_like_null(self, engine):
        db = self._table(engine, "GEOMETRYCOLLECTION EMPTY", "POINT(0.5 0.5)")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2
        assert db.execute(self.WINDOW).scalar() == 1
        db.execute("CREATE SPATIAL INDEX t_geom ON t (geom)")
        assert len(db.catalog.index_for("t", "geom").index) == 1
        db.execute("INSERT INTO t VALUES (2, ST_GeomFromText('GEOMETRYCOLLECTION EMPTY'))")
        assert db.execute(self.WINDOW).scalar() == 1
        db.execute("DELETE FROM t WHERE id <> 1")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1


    @pytest.mark.parametrize("engine", ["greenwood", "bluestem", "ironbark"])
    def test_an_empty_geometry_expands_to_itself_and_has_no_distance(self, engine):
        # as in PostGIS: ST_Expand returns the empty geometry, and its
        # distance to anything is NULL (not an error, not infinity)
        empty = "ST_GeomFromText('GEOMETRYCOLLECTION EMPTY')"
        got = Database(engine).execute(
            f"SELECT ST_AsText(ST_Expand({empty}, 1)), "
            f"ST_Distance({empty}, ST_Point(0, 0)), "
            f"ST_Distance(ST_Point(0, 0), {empty}), "
            f"ST_Distance(ST_Point(0, 0), ST_Point(3, 4))"
        ).rows
        assert got == [("GEOMETRYCOLLECTION EMPTY", None, None, 5.0)]

    @pytest.mark.parametrize("engine", ["greenwood", "bluestem", "ironbark"])
    def test_an_empty_geometry_meets_no_envelope(self, engine):
        # as in PostGIS: the empty row is disjoint from the window, and
        # every other test, the MBR ones included, is false for it
        db = self._table(engine, "GEOMETRYCOLLECTION EMPTY", "POINT(0.5 0.5)")
        window = "ST_MakeEnvelope(0, 0, 1, 1)"
        tests = {
            f"geom && {window}": 1,
            f"ST_Intersects(geom, {window})": 1,
            f"ST_Within(geom, {window})": 1,
            f"ST_Contains({window}, geom)": 1,
            f"ST_Disjoint(geom, {window})": 1,
            f"ST_Disjoint({window}, geom)": 1,
        }
        joins = {"a.geom && b.geom": 1, "ST_Intersects(a.geom, b.geom)": 1}

        def answers():
            return (
                {t: db.execute(f"SELECT COUNT(*) FROM t WHERE {t}").scalar() for t in tests},
                {j: db.execute(f"SELECT COUNT(*) FROM t a, t b WHERE {j}").scalar()
                 for j in joins},
            )

        assert answers() == (tests, joins)  # unindexed: the join packs both sides
        db.execute("CREATE SPATIAL INDEX t_geom ON t (geom)")
        for strategy in ("auto", "inlj", "tree", "nlj"):
            db.join_strategy = strategy
            assert answers() == (tests, joins), strategy
        # and the envelope functions skip it (ST_Extent) or return it (ST_Envelope)
        db.execute("INSERT INTO t VALUES (2, ST_GeomFromText('POINT(2 3)'))")
        assert db.execute("SELECT ST_AsText(ST_Extent(geom)) FROM t").scalar() == (
            "POLYGON ((0.5 0.5, 2 0.5, 2 3, 0.5 3, 0.5 0.5))"
        )
        envelope = "SELECT ST_AsText(ST_Envelope(geom)) FROM t WHERE id = 0"
        assert db.execute(envelope).scalar() == "GEOMETRYCOLLECTION EMPTY"


class TestProfileIndexDefault:
    def test_create_index_uses_profile_kind(self):
        db = Database("ironbark")
        db.execute("CREATE TABLE g (geom GEOMETRY)")
        db.execute("INSERT INTO g VALUES (ST_Point(0, 0))")
        db.execute("CREATE SPATIAL INDEX gidx ON g (geom)")
        entry = db.catalog.index_for("g", "geom")
        assert entry.index.kind == "quadtree"

    def test_using_clause_overrides(self):
        db = Database("greenwood")
        db.execute("CREATE TABLE g (geom GEOMETRY)")
        db.execute("CREATE SPATIAL INDEX gidx ON g (geom) USING grid")
        entry = db.catalog.index_for("g", "geom")
        assert entry.index.kind == "grid"
