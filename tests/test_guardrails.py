"""Execution guardrails: deadlines, cancellation and memory budgets.

The deadline matrix runs the paper's dominant workload shape (a spatial
join) under a ~0 deadline through every join strategy on every engine
profile: the trip must be prompt (bounded wall time), typed
(:class:`QueryTimeoutError`), and side-effect free (the cached plan
answers correctly on the very next run).
"""

from __future__ import annotations

import time

import pytest

import repro.dbapi as dbapi
from repro.dbapi import connect
from repro.errors import (
    MemoryBudgetError,
    QueryCancelledError,
    QueryTimeoutError,
)
from repro.guard import CHECK_EVERY, CancelToken, ExecutionGuard, Guardrails

JOIN_SQL = (
    "SELECT COUNT(*) FROM arealm a, counties c "
    "WHERE ST_Intersects(a.geom, c.geom)"
)
#: the same join with its outer side filtered: the tree join packs it
PACKED_JOIN_SQL = JOIN_SQL + " AND a.gid >= 0"
#: each deadline-matrix variant as (forced strategy, statement)
VARIANTS = {
    "inlj": ("inlj", JOIN_SQL),
    "tree": ("tree", JOIN_SQL),
    "packed": ("tree", PACKED_JOIN_SQL),
    "nlj": ("nlj", JOIN_SQL),
}
#: a tripped deadline must surface well before a full join would finish
WALL_BOUND_SECONDS = 10.0


@pytest.fixture(params=["greenwood", "bluestem", "ironbark"])
def any_db(request, greenwood_db, bluestem_db, ironbark_db):
    return {
        "greenwood": greenwood_db,
        "bluestem": bluestem_db,
        "ironbark": ironbark_db,
    }[request.param]


class TestExecutionGuard:
    def test_first_tick_checks_immediately(self):
        guard = ExecutionGuard(timeout=0.0)
        with pytest.raises(QueryTimeoutError):
            guard.tick()

    def test_check_amortised_to_window(self):
        guard = ExecutionGuard(timeout=0.0)
        guard._countdown = CHECK_EVERY  # past the initial immediate check
        for _ in range(CHECK_EVERY - 1):
            guard.tick()
        with pytest.raises(QueryTimeoutError):
            guard.tick()

    def test_deadline_message_counts_rows(self):
        guard = ExecutionGuard(timeout=0.0)
        with pytest.raises(QueryTimeoutError, match="deadline after 3 rows"):
            guard.tick(3)

    def test_cancellation_wins_over_deadline(self):
        token = CancelToken()
        token.cancel("user hit ^C")
        guard = ExecutionGuard(timeout=0.0, cancel=token)
        with pytest.raises(QueryCancelledError, match="user hit"):
            guard.tick()

    def test_cancel_token_is_sticky(self):
        token = CancelToken()
        assert not token.cancelled
        token.cancel()
        assert token.cancelled
        token.cancel("again")
        assert token.cancelled

    def test_reserve_row_budget(self):
        guard = ExecutionGuard(max_rows=10)
        guard.reserve(10, sample=(1, 2))
        with pytest.raises(MemoryBudgetError, match="row budget"):
            guard.reserve(1, sample=(1, 2))

    def test_reserve_byte_budget(self):
        guard = ExecutionGuard(max_bytes=64)
        with pytest.raises(MemoryBudgetError, match="byte budget"):
            guard.reserve(100, sample=tuple(range(8)))

    def test_unlimited_guard_reserves_freely(self):
        guard = ExecutionGuard()
        guard.reserve(10_000, sample=(1,) * 16)
        guard.tick(10_000)
        assert guard.rows_processed > 10_000


class TestGuardrailsConfig:
    def test_start_returns_none_when_everything_off(self):
        assert Guardrails().start() is None

    def test_start_arms_any_single_limit(self):
        assert Guardrails(timeout=5.0).start() is not None
        assert Guardrails().start(max_rows=5) is not None
        assert Guardrails().start(cancel=CancelToken()) is not None

    def test_per_call_overrides_beat_defaults(self):
        merged = Guardrails(timeout=5.0, max_rows=100).merged(timeout=1.0)
        assert merged.timeout == 1.0
        assert merged.max_rows == 100

    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            Guardrails(timeout=-1.0)
        with pytest.raises(ValueError):
            Guardrails().start(max_rows=-5)


class TestDeadlineMatrix:
    """~0 deadline x 4 join variants x 3 engine profiles."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_deadline_trips_promptly_and_cleanly(self, any_db, variant):
        db = any_db
        strategy, sql = VARIANTS[variant]
        baseline = db.execute(JOIN_SQL).scalar()
        db.join_strategy = strategy
        try:
            start = time.perf_counter()
            with pytest.raises(QueryTimeoutError):
                db.execute(sql, timeout=1e-9)
            assert time.perf_counter() - start < WALL_BOUND_SECONDS
            # the plan cache must not be poisoned by the aborted run:
            # the same (cached) plan answers correctly immediately after
            assert db.execute(sql).scalar() == baseline
        finally:
            db.join_strategy = "auto"

    def test_timeout_counter_moves(self, greenwood_db):
        db = greenwood_db
        counter = db.obs.metrics.counter("query_timeouts_total")
        before = counter.value
        with pytest.raises(QueryTimeoutError):
            db.execute(JOIN_SQL, timeout=1e-9)
        assert counter.value == before + 1


class TestCancellation:
    def test_pre_cancelled_token_stops_the_query(self, greenwood_db):
        token = CancelToken()
        token.cancel("test shutdown")
        with pytest.raises(QueryCancelledError, match="test shutdown"):
            greenwood_db.execute(JOIN_SQL, cancel=token)

    def test_cancellation_counter_moves(self, greenwood_db):
        db = greenwood_db
        counter = db.obs.metrics.counter("query_cancellations_total")
        before = counter.value
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            db.execute(JOIN_SQL, cancel=token)
        assert counter.value == before + 1


class TestMemoryBudget:
    def test_materialising_join_trips_row_budget(self, greenwood_db):
        db = greenwood_db
        db.join_strategy = "tree"
        try:
            assert "USING (transient, " in db.explain(PACKED_JOIN_SQL)
            with pytest.raises(MemoryBudgetError):
                db.execute(PACKED_JOIN_SQL, max_rows=8)
        finally:
            db.join_strategy = "auto"

    def test_byte_budget_trips(self, greenwood_db):
        db = greenwood_db
        db.join_strategy = "nlj"
        try:
            with pytest.raises(MemoryBudgetError):
                db.execute(JOIN_SQL, max_bytes=512)
        finally:
            db.join_strategy = "auto"

    def test_budget_counter_moves(self, greenwood_db):
        db = greenwood_db
        counter = db.obs.metrics.counter("memory_budget_trips_total")
        before = counter.value
        db.join_strategy = "tree"
        try:
            with pytest.raises(MemoryBudgetError):
                db.execute(PACKED_JOIN_SQL, max_rows=1)
        finally:
            db.join_strategy = "auto"
        assert counter.value == before + 1


class TestDbapiIntegration:
    def test_timeout_is_operational_error(self, greenwood_db):
        conn = connect(database=greenwood_db)
        try:
            with pytest.raises(dbapi.OperationalError):
                conn.cursor().execute(JOIN_SQL, timeout=1e-9)
        finally:
            conn.close()

    def test_connection_default_timeout_applies(self, greenwood_db):
        conn = connect(database=greenwood_db, timeout=1e-9)
        try:
            with pytest.raises(QueryTimeoutError):
                conn.cursor().execute(JOIN_SQL)
        finally:
            conn.close()

    def test_per_call_override_beats_connection_default(self, greenwood_db):
        conn = connect(database=greenwood_db, timeout=1e-9)
        try:
            cursor = conn.cursor()
            cursor.execute(JOIN_SQL, timeout=300.0)
            assert cursor.fetchone() is not None
        finally:
            conn.close()

    def test_executemany_honours_connection_guardrails(self):
        conn = connect("greenwood", timeout=1e-9)
        db = conn.database
        db.execute("CREATE TABLE t (a INTEGER)")
        db.insert_rows("t", [(i,) for i in range(5000)])
        try:
            cursor = conn.cursor()
            with pytest.raises(QueryTimeoutError):
                cursor.execute("SELECT a FROM t")
            with pytest.raises(QueryTimeoutError):
                cursor.executemany(
                    "UPDATE t SET a = a + 1 WHERE a >= ?", [(0,)]
                )
            assert db.execute("SELECT SUM(a) FROM t").scalar() == sum(
                range(5000)
            )
        finally:
            conn.close()

    def test_database_default_guardrails(self, tiny_dataset):
        from repro.engines import Database

        db = Database("greenwood")
        tiny_dataset.load_into(db, create_indexes=True)
        db.guardrails.timeout = 1e-9
        with pytest.raises(QueryTimeoutError):
            db.execute(JOIN_SQL)
        db.guardrails.timeout = None
        assert db.execute(JOIN_SQL).scalar() is not None
