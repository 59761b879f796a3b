"""The one statement path: every statement kind — SELECT, DML, DDL,
transaction control, ``EXPLAIN ANALYZE`` — and every way a statement can
fail goes through one body that, with observability on, emits exactly
one event, and with it off builds nothing at all."""

from __future__ import annotations

import pytest

import repro.engines.database as database_module
from repro.dbapi import connect
from repro.engines import Database
from repro.errors import (
    InjectedFaultError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    SerializationError,
    SqlPlanError,
)
from repro.faults import injected
from repro.guard import CancelToken
from repro.obs import Observability, StatementStore
from repro.obs.waits import IO_WAL_FSYNC, IO_WAL_WRITE, WAITS

WINDOW = (
    "SELECT COUNT(*) FROM t "
    "WHERE ST_Intersects(g, ST_MakeEnvelope(0, 0, 5, 5))"
)


@pytest.fixture
def db():
    database = Database("greenwood")
    database.execute("CREATE TABLE t (id INTEGER, g GEOMETRY)")
    database.execute(
        "INSERT INTO t VALUES (1, ST_Point(1, 1)), (2, ST_Point(2, 2))"
    )
    database.execute("CREATE SPATIAL INDEX tg ON t (g)")
    return database


def _plan_error(db):
    db.execute("SELECT nope FROM t")


def _timeout(db):
    db.execute("SELECT COUNT(*) FROM t", timeout=0)


def _cancelled(db):
    token = CancelToken()
    token.cancel()
    db.execute("SELECT COUNT(*) FROM t", cancel=token)


def _write_conflict(db):
    winner, loser = connect(database=db), connect(database=db)
    winner.cursor().execute("BEGIN")
    loser.cursor().execute("BEGIN")
    winner.cursor().execute("UPDATE t SET id = 10 WHERE id = 1")
    winner.commit()
    try:
        loser.cursor().execute("UPDATE t SET id = 11 WHERE id = 1")
    finally:
        assert not loser.in_transaction, "the failed statement aborts it"


def _injected_fault(db):
    with injected("index.probe", on_call=1):
        db.execute(WINDOW)


#: (how to fail, the error raised, the event's outcome, statements run)
FAILURES = [
    pytest.param(_plan_error, SqlPlanError, "error", 1, id="plan-error"),
    pytest.param(_timeout, QueryTimeoutError, "timeout", 1, id="timeout"),
    pytest.param(_cancelled, QueryCancelledError, "cancelled", 1,
                 id="cancelled"),
    pytest.param(_write_conflict, SerializationError, "abort", 5,
                 id="write-conflict"),
    pytest.param(_injected_fault, InjectedFaultError, "error", 1,
                 id="injected-fault"),
]


def _count_records(db, monkeypatch):
    events = []
    original = db.obs.record

    def counting(trace):
        events.append(trace)
        original(trace)

    monkeypatch.setattr(db.obs, "record", counting)
    return events


class TestOneEvent:
    def test_every_statement_kind_records_exactly_once(self, db,
                                                       monkeypatch):
        db.obs.enable_metrics()
        events = _count_records(db, monkeypatch)
        statements = [
            ("SELECT COUNT(*) FROM t", "Select"),
            ("INSERT INTO t VALUES (3, ST_Point(3, 3))", "Insert"),
            ("CREATE TABLE u (id INTEGER)", "CreateTable"),
            ("BEGIN", "Begin"),
            ("COMMIT", "Commit"),
            ("BEGIN", "Begin"),
            ("ROLLBACK", "Rollback"),
        ]
        for sql, _kind in statements:
            db.execute(sql)
        assert [(t.sql, t.statement, t.outcome) for t in events] == [
            (sql, kind, "ok") for sql, kind in statements
        ]

    def test_explain_analyze_records_exactly_once(self, db, monkeypatch):
        db.obs.enable_tracing()
        events = _count_records(db, monkeypatch)
        db.explain_analyze(WINDOW)
        (trace,) = events
        assert trace.root is not None and trace.plan is not None
        assert db.last_trace() is trace

    @pytest.mark.parametrize("fail, error, outcome, count", FAILURES)
    def test_every_failure_records_exactly_once(self, db, monkeypatch,
                                                fail, error, outcome,
                                                count):
        db.obs.enable_tracing()
        events = _count_records(db, monkeypatch)
        with pytest.raises(error):
            fail(db)
        assert len(events) == count
        assert [t.outcome for t in events[:-1]] == ["ok"] * (count - 1)
        assert events[-1].outcome == outcome
        assert events[-1].rows == 0

    def test_disabled_path_builds_no_event(self, db, monkeypatch):
        def explode(*_a, **_k):  # pragma: no cover - must not be called
            raise AssertionError("event machinery reached with obs off")

        assert db.obs.active is False
        monkeypatch.setattr(Observability, "record", explode)
        monkeypatch.setattr(StatementStore, "record", explode)
        monkeypatch.setattr(StatementStore, "record_plan", explode)
        monkeypatch.setattr(database_module, "Trace", explode)
        for sql in ("SELECT COUNT(*) FROM t", WINDOW,
                    "INSERT INTO t VALUES (3, ST_Point(3, 3))",
                    "CREATE TABLE u (id INTEGER)", "BEGIN", "COMMIT"):
            db.execute(sql)
        for fail in (_plan_error, _timeout, _cancelled):
            with pytest.raises(ReproError):
                fail(db)


class TestEveryStartedStatementEnds:
    @pytest.mark.parametrize("fail, error, outcome, count", FAILURES)
    def test_hooks_pair_and_metrics_count_failures(self, db, fail, error,
                                                   outcome, count):
        started, ended = [], []
        db.obs.on_query_start(lambda sql, params: started.append(sql))
        db.obs.on_query_end(ended.append)
        db.obs.enable_metrics()
        metrics = db.obs.metrics
        with pytest.raises(error):
            fail(db)
        assert started == [trace.sql for trace in ended]
        assert len(started) == count
        assert metrics.counter("queries_total").value == count
        assert metrics.counter("query_errors_total").value == 1
        assert metrics.histogram("query_seconds").count == count
        # a failed statement returns no rows: the meaning is unchanged
        assert metrics.counter("rows_returned_total").value == sum(
            trace.rows for trace in ended if trace.outcome == "ok"
        )


class TestTransactionControlIsAStatement:
    def test_commit_rows_carry_the_wal_waits(self, tmp_path):
        db = Database("greenwood")
        db.execute("CREATE TABLE t (id INTEGER, g GEOMETRY)")
        db.attach_storage(str(tmp_path))
        rounds = 12
        WAITS.reset()
        WAITS.enable()
        db.obs.enable_statements()
        try:
            for index in range(rounds):
                db.execute("BEGIN")
                db.execute(
                    "INSERT INTO t VALUES (?, ST_Point(1, 1))", (index,)
                )
                db.execute("COMMIT")
            summary = WAITS.summary()
            db.obs.disable_statements()
            rows = db.execute(
                "SELECT statement, calls, wait_io_seconds "
                "FROM jackpine_statements"
            ).rows
        finally:
            WAITS.disable()
            WAITS.reset()
            db.close()
        calls = {statement: n for statement, n, _io in rows}
        assert calls["begin"] == calls["commit"] == rounds
        wal_seconds = sum(
            summary[event]["seconds"] for event in (IO_WAL_FSYNC,
                                                    IO_WAL_WRITE)
        )
        assert wal_seconds > 0.0
        attributed = sum(io for _statement, _n, io in rows)
        assert attributed >= 0.95 * wal_seconds


class TestExplainAnalyzeUsesTheCallersSession:
    def test_sees_the_connections_open_transaction(self, db):
        conn = connect(database=db)
        cursor = conn.cursor()
        cursor.execute("BEGIN")
        cursor.execute("INSERT INTO t VALUES (3, ST_Point(3, 3))")
        seen = len(cursor.execute("SELECT id FROM t").fetchall())
        assert seen == 3
        text = conn.explain_analyze("SELECT id FROM t")
        assert f"Total output rows: {seen}" in text
        # another connection's EXPLAIN ANALYZE does not see the insert
        assert "Total output rows: 2" in connect(
            database=db
        ).explain_analyze("SELECT id FROM t")
        conn.rollback()

    def test_runs_under_guardrails(self, db):
        with pytest.raises(QueryTimeoutError):
            db.explain_analyze("SELECT id FROM t", timeout=0)
        with pytest.raises(QueryTimeoutError):
            connect(database=db, timeout=0).explain_analyze(
                "SELECT id FROM t"
            )
