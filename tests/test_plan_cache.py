"""Tests for the per-database statement memo: one entry per SQL text
holds its parse and its cached SELECT plan."""

import pytest

from repro.engines import Database
from repro.txn import Session


@pytest.fixture
def db():
    database = Database("greenwood")
    database.execute("CREATE TABLE t (id INTEGER, geom GEOMETRY)")
    database.execute(
        "INSERT INTO t VALUES (1, ST_Point(0, 0)), (2, ST_Point(5, 5))"
    )
    return database


def _plans(db):
    """The memoised SELECT plans, by SQL text."""
    return {sql: prepared.plan for sql, prepared in db._memo.items()
            if prepared.plan is not None}


QUERY = (
    "SELECT COUNT(*) FROM t "
    "WHERE ST_Intersects(geom, ST_MakeEnvelope(-1, -1, 1, 1))"
)


class TestPlanCache:
    def test_repeated_select_hits_cache(self, db):
        db.execute(QUERY)
        assert QUERY in _plans(db)
        cached = _plans(db)[QUERY]
        db.execute(QUERY)
        assert _plans(db)[QUERY] is cached

    def test_results_identical_across_cache_hits(self, db):
        first = db.execute(QUERY).scalar()
        second = db.execute(QUERY).scalar()
        assert first == second == 1

    def test_ddl_flushes_plans(self, db):
        db.execute(QUERY)
        assert _plans(db)
        db.execute("CREATE SPATIAL INDEX tix ON t (geom)")
        assert not _plans(db)
        # the fresh plan must now use the index
        assert "IndexScan" in db.explain(QUERY)
        assert db.execute(QUERY).scalar() == 1

    def test_analyze_and_join_strategy_flush_plans(self, db):
        db.execute(QUERY)
        db.execute("ANALYZE")
        assert not _plans(db)
        db.execute(QUERY)
        db.join_strategy = "tree"
        assert not _plans(db)

    def test_cached_plan_survives_insert(self, db):
        """A plan caches the strategy, never data: DML keeps it, and it
        still finds the new row."""
        assert db.execute(QUERY).scalar() == 1
        cached = _plans(db)[QUERY]
        hits = db.stats.plan_cache_hits
        db.execute("INSERT INTO t VALUES (3, ST_Point(0.5, 0.5))")
        assert _plans(db)[QUERY] is cached
        assert db.execute(QUERY).scalar() == 2
        assert db.stats.plan_cache_hits == hits + 1
        db.execute("UPDATE t SET id = 4 WHERE id = 3")
        db.execute("DELETE FROM t WHERE id = 1")
        assert _plans(db)[QUERY] is cached
        assert db.execute(QUERY).scalar() == 1

    def test_cached_plan_sees_own_writes_not_concurrent_ones(self, db):
        db.execute("CREATE SPATIAL INDEX tix ON t (geom)")
        window = (
            "SELECT COUNT(*) FROM t "
            "WHERE ST_Intersects(geom, ST_MakeEnvelope(-1, -1, 10, 10))"
        )
        ids = "SELECT id FROM t ORDER BY id"
        cached = {}
        for sql in (window, ids):
            db.execute(sql)
            cached[sql] = _plans(db)[sql]
        writer, reader = Session(), Session()
        db.execute("BEGIN", session=reader)
        assert db.execute(ids, session=reader).rows == [(1,), (2,)]
        db.execute("BEGIN", session=writer)
        db.execute("UPDATE t SET id = 20 WHERE id = 2", session=writer)
        db.execute("DELETE FROM t WHERE id = 1", session=writer)
        # the writer's own changes, through the cached plans
        assert db.execute(ids, session=writer).rows == [(20,)]
        assert db.execute(window, session=writer).scalar() == 1
        # neither an open snapshot nor a fresh one sees uncommitted work
        assert db.execute(ids, session=reader).rows == [(1,), (2,)]
        assert db.execute(window, session=reader).scalar() == 2
        assert db.execute(ids).rows == [(1,), (2,)]
        db.execute("COMMIT", session=writer)
        # the reader's snapshot predates the commit; a new one does not
        assert db.execute(ids, session=reader).rows == [(1,), (2,)]
        assert db.execute(ids).rows == [(20,)]
        assert db.execute(window).scalar() == 1
        db.execute("COMMIT", session=reader)
        assert all(_plans(db)[sql] is plan for sql, plan in cached.items())

    def test_explain_parses_through_the_memo(self, db, monkeypatch):
        from repro.engines import database as engine

        db.execute(QUERY)
        parsed = []
        real_parse = engine.parse
        monkeypatch.setattr(
            engine, "parse", lambda sql: parsed.append(sql) or real_parse(sql)
        )
        assert "SeqScan" in db.explain(QUERY)
        assert db.execute(QUERY).scalar() == 1
        assert parsed == []
        other = "SELECT id FROM t"
        db.explain(other)
        db.execute(other)
        assert parsed == [other]

    def test_params_vary_on_cached_plan(self, db):
        sql = "SELECT COUNT(*) FROM t WHERE id = ?"
        assert db.execute(sql, (1,)).scalar() == 1
        assert db.execute(sql, (99,)).scalar() == 0
        assert db.execute(sql, (2,)).scalar() == 1

    def test_cache_bounded(self, db):
        db.PLAN_CACHE_SIZE = 4
        for i in range(10):
            db.execute(f"SELECT {i} FROM t")
        assert len(_plans(db)) <= 4 + 1

    def test_drop_table_invalidates(self, db):
        db.execute(QUERY)
        db.execute("DROP TABLE t")
        from repro.errors import SqlPlanError

        with pytest.raises(SqlPlanError):
            db.execute(QUERY)

    def test_ddl_between_lookup_and_latch_replans(self, db):
        """A SELECT finds its memo entry before it takes the latch; DDL
        that runs in between must not leave it the dropped index's plan
        (which misses a row inserted after the drop)."""
        db.execute("CREATE SPATIAL INDEX tix ON t (geom)")
        assert db.execute(QUERY).scalar() == 1
        armed = [True]

        def drop_index_and_insert(sql, _params):
            if sql == QUERY and armed[0]:
                armed[0] = False
                db.execute("DROP INDEX tix")
                db.execute("INSERT INTO t VALUES (3, ST_Point(0.5, 0.5))")

        db.obs.on_query_start(drop_index_and_insert)
        assert db.execute(QUERY).scalar() == 2
        assert not armed[0]
