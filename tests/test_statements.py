"""Statement fingerprinting, aggregation, and plan-flip detection."""

import pytest

from repro.engines import Database
from repro.obs.statements import (
    StatementStore,
    fingerprint,
    normalize,
    plan_fingerprint,
    plan_shape,
)


def _tiny_db(profile: str = "greenwood") -> Database:
    db = Database(profile)
    db.execute("CREATE TABLE a (id INTEGER, g GEOMETRY)")
    db.execute("CREATE TABLE b (id INTEGER, g GEOMETRY)")
    db.execute("INSERT INTO a VALUES (1, ST_GeomFromText('POINT(1 2)'))")
    db.execute("INSERT INTO a VALUES (2, ST_GeomFromText('POINT(3 4)'))")
    db.execute("INSERT INTO b VALUES (1, ST_GeomFromText('POINT(1 2)'))")
    return db


class TestNormalize:
    def test_literals_become_placeholders(self):
        assert normalize("SELECT id FROM t WHERE id = 42") == \
            "select id from t where id = ?"

    def test_strings_and_params_become_placeholders(self):
        out = normalize("SELECT * FROM t WHERE name = 'x' AND id = ?")
        assert "'x'" not in out
        assert out.count("?") == 2

    def test_case_folding(self):
        assert normalize("SELECT ID FROM T") == normalize("select id from t")

    def test_in_list_collapses(self):
        short = normalize("SELECT id FROM t WHERE id IN (1)")
        long = normalize("SELECT id FROM t WHERE id IN (1, 2, 3, 4, 5)")
        assert short == long
        assert "in ( ? )" in long

    def test_structure_still_distinguishes(self):
        assert normalize("SELECT a FROM t") != normalize("SELECT b FROM t")

    def test_fingerprint_equivalence(self):
        assert fingerprint("SELECT id FROM t WHERE id IN (1,2,3)") == \
            fingerprint("select id from t where id in (9)")


class TestStatementStore:
    def test_disabled_by_default(self):
        db = Database("greenwood")
        assert db.obs.statements.enabled is False
        assert db.obs.active is False

    def test_enabling_flips_obs_active(self):
        db = Database("greenwood")
        db.obs.enable_statements()
        assert db.obs.active is True
        db.obs.disable_statements()
        assert db.obs.active is False

    def test_equivalent_statements_aggregate_into_one_entry(self):
        db = _tiny_db()
        db.obs.enable_statements()
        db.execute("SELECT id FROM a WHERE id IN (1, 2, 3)")
        db.execute("select id from a where id in (9)")
        entries = db.obs.statements.statements()
        assert len(entries) == 1
        entry = entries[0]
        assert entry.calls == 2
        assert entry.statement == "select id from a where id in ( ? )"
        assert entry.total_seconds > 0.0
        # IN (1,2,3) matches ids 1 and 2; IN (9) matches none
        assert entry.rows_returned == 2

    def test_counters_fold_into_entry(self):
        db = _tiny_db()
        db.obs.enable_statements()
        db.execute("SELECT id FROM a")
        (entry,) = db.obs.statements.statements()
        assert entry.counters["rows_scanned"] >= 2

    def test_error_outcomes_counted(self):
        store = StatementStore()
        store.enable()
        store.record("SELECT 1", 0.01, 0, outcome="abort")
        store.record("SELECT 1", 0.01, 0, outcome="timeout")
        store.record("SELECT 1", 0.01, 1, outcome="ok")
        (entry,) = store.statements()
        assert entry.calls == 3
        assert entry.errors == 2
        assert entry.aborts == 1
        assert entry.timeouts == 1

    def test_failed_statement_recorded_as_error(self):
        db = _tiny_db()
        db.obs.enable_statements()
        with pytest.raises(Exception):
            db.execute("SELECT nope FROM a")
        entries = db.obs.statements.statements()
        assert entries and entries[0].errors == 1

    def test_retries_attributed_to_fingerprint(self):
        store = StatementStore()
        store.enable()
        store.record_retry("UPDATE t SET x = 1 WHERE id = 5")
        store.record_retry("update t set x = 2 where id = 7")
        (entry,) = store.statements()
        assert entry.retries == 2

    def test_wait_class_seconds_fold(self):
        store = StatementStore()
        store.enable()
        store.record("SELECT 1", 0.02, 1,
                     wait_class_seconds={"LockManager": 0.01})
        (entry,) = store.statements()
        assert entry.wait_class_seconds["LockManager"] == pytest.approx(0.01)

    def test_reset_clears_everything(self):
        db = _tiny_db()
        db.obs.enable_statements()
        db.execute("SELECT id FROM a")
        db.obs.statements.reset()
        assert db.obs.statements.statements() == []
        assert db.obs.statements.plans() == []
        assert db.obs.statements.plan_flips_total == 0

    def test_capacity_evicts_lru(self):
        store = StatementStore(capacity=2)
        store.enable()
        store.record("SELECT a FROM t", 0.01, 0)
        store.record("SELECT b FROM t", 0.01, 0)
        store.record("SELECT c FROM t", 0.01, 0)
        assert len(store.statements()) == 2

    def test_export_shape(self):
        db = _tiny_db()
        db.obs.enable_statements()
        db.execute("SELECT id FROM a")
        export = db.obs.statements.export()
        assert set(export) == {
            "by_total_time", "plans", "plan_flips", "plan_flips_total"
        }
        assert export["by_total_time"][0]["calls"] == 1

    def test_render_mentions_statement(self):
        db = _tiny_db()
        db.obs.enable_statements()
        db.execute("SELECT id FROM a")
        assert "select id from a" in db.obs.statements.render()


class TestPlanFlips:
    JOIN = "SELECT a.id FROM a, b WHERE ST_Intersects(a.g, b.g)"

    def test_stable_plan_records_no_flip(self):
        db = _tiny_db()
        db.obs.enable_statements()
        db.execute(self.JOIN)
        db.execute(self.JOIN)
        assert db.obs.statements.plan_flips_total == 0

    def test_forced_strategy_change_yields_exactly_one_flip(self):
        db = _tiny_db()
        db.obs.enable_statements()
        db.join_strategy = "nlj"
        db.execute(self.JOIN)
        db.join_strategy = "tree"
        db.execute(self.JOIN)
        store = db.obs.statements
        assert store.plan_flips_total == 1
        (flip,) = store.flips()
        assert flip["from_plan"] != flip["to_plan"]
        assert "NestedLoopJoin" in flip["from_shape"]
        # both tables are unindexed: the tree join packs both scans
        assert "SpatialTreeJoin[SeqScan(a),SeqScan(b)]" in flip["to_shape"]
        # repeat executions with the new plan do not flip again
        db.execute(self.JOIN)
        assert store.plan_flips_total == 1

    def test_flip_bumps_metrics_counter(self):
        db = _tiny_db()
        db.obs.enable_statements()
        db.join_strategy = "nlj"
        db.execute(self.JOIN)
        db.join_strategy = "tree"
        db.execute(self.JOIN)
        counter = db.obs.metrics.counter(
            "plan_flips_total", "statements whose captured plan shape changed"
        )
        assert counter.value == 1

    def test_current_plan_tracks_latest_shape(self):
        db = _tiny_db()
        db.obs.enable_statements()
        db.join_strategy = "nlj"
        db.execute(self.JOIN)
        db.join_strategy = "tree"
        db.execute(self.JOIN)
        plans = db.obs.statements.plans()
        assert len(plans) == 2
        current = [p for p in plans if p.current]
        assert len(current) == 1
        assert "SpatialTreeJoin" in current[0].shape

    def test_plan_shape_ignores_span_wrapping(self):
        db = _tiny_db()
        plan, _names = db._planner.plan_select(
            db._parse_statement("SELECT id FROM a")
        )
        from repro.sql.executor import SpanNode

        assert plan_shape(SpanNode(plan)) == plan_shape(plan)
        assert plan_fingerprint(plan_shape(plan)) == \
            plan_fingerprint(plan_shape(SpanNode(plan)))
