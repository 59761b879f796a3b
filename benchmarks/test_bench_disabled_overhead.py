"""Disabled-path overhead guard: one harness for every pay-as-you-go
subsystem.

Observability, the wait monitor, the statement store, guardrails, MVCC,
durability and the query service all promise the same thing: switched
off (the default), the embedded read path pays one attribute read and a
branch per feature. They all guard the *same* path — ``Database.execute``
on a cached SELECT plan — so one timed comparison pins all of them: the
jx3 topology-join matrix through ``db.execute`` with every default
asserted off, against the cached plan drained directly
(``_run_plan_directly``), medians summed across the matrix (the joins
dominate, amortising per-call jitter), within 5%.

What each subsystem's own guard checked beyond that timing stays here as
a case: answers equal the direct plan with a feature off, *and* with it
on (live guard, statement store recording). Every loaded database is in
the one heap state there is — written through transactions, all rows
frozen — so ``_defaults`` covers it. The write-watermark and
detached-insert guards time different paths and keep their own
comparisons, on the shared helpers in ``_bench_utils``; the untraced
service path is pinned by counts (frame bytes, recorder calls), not by
time. Run standalone::

    pytest benchmarks/test_bench_disabled_overhead.py -q
"""

from __future__ import annotations

import pytest

from repro.core.experiments import JOIN_MATRIX
from repro.engines import Database
from repro.obs.requests import RECORDER
from repro.obs.waits import WAITS
from repro.service import JackpineServer, ServerConfig, ServiceClient
from repro.service import client as client_module
from repro.service.protocol import encode_frame

from _bench_utils import (
    _fresh_db,
    _run_plan_directly,
    assert_within_budget,
)

MATRIX_SQL = [sql for _label, sql in JOIN_MATRIX]


@pytest.fixture(scope="module")
def matrix_db():
    """Shared by the cases that leave the database as they found it."""
    return _fresh_db()


@pytest.fixture(scope="module")
def direct_answers(matrix_db):
    return [_run_plan_directly(matrix_db, sql)[0][0] for sql in MATRIX_SQL]


# -- answers: each feature off, and each feature on --------------------------


def _unversioned(db):
    """What scans branch on: no table carries a live version stamp."""
    return all(t.mvcc_versions == 0 for t in db.catalog.tables())


def _defaults(db):
    assert _unversioned(db) and db.txn.pending_garbage == 0
    return db.execute


def _live_guard(db):
    """A live guard (generous limits) must not change any answer."""
    return lambda sql: db.execute(sql, timeout=3600.0)


def _statement_store_on(db):
    db.obs.enable_statements()
    return db.execute


@pytest.mark.parametrize(
    "configure", [_defaults, _live_guard, _statement_store_on]
)
def test_execute_answers_match_the_direct_plan(configure, direct_answers):
    db = _fresh_db()
    execute = configure(db)
    assert [execute(sql).scalar() for sql in MATRIX_SQL] == direct_answers
    if configure is _statement_store_on:
        # the enabled store recorded every matrix statement
        assert len(db.obs.statements.statements()) == len(MATRIX_SQL)


# -- the embedded read path --------------------------------------------------


class TestEmbedded:
    def test_read_path_within_budget_with_every_default_off(self, matrix_db):
        db = matrix_db
        assert db.obs.active is False
        assert db.obs.tracing is False
        assert db.obs.statements.enabled is False
        assert WAITS.enabled is False
        assert db.guardrails.enabled is False
        assert db.guardrails.start() is None
        assert db.durability is None
        assert db.service is None
        assert db.txn.active_count == 0
        assert _unversioned(db)
        assert_within_budget(
            lambda: [db.execute(sql) for sql in MATRIX_SQL],
            lambda: [_run_plan_directly(db, sql) for sql in MATRIX_SQL],
            "execute with every feature off",
        )
        assert _unversioned(db), "reads alone never version a heap"

    def test_reads_never_touch_write_marks(self, matrix_db):
        # loading stamps every table once (the cache must see table
        # creation as a write); a read-only workload must not move any
        after_load = dict(matrix_db.write_marks)
        for sql in MATRIX_SQL:
            matrix_db.execute(sql)
        assert matrix_db.write_marks == after_load

    def test_writes_stamp_marks_only_touched_tables(self):
        db = _fresh_db()
        after_load = dict(db.write_marks)
        gid = db.execute(
            "SELECT gid FROM pointlm ORDER BY gid LIMIT 1"
        ).scalar()
        update = "UPDATE pointlm SET name = ? WHERE gid = ?"
        db.execute(update, ("a", gid))
        first = db.write_marks["pointlm"]
        assert first != after_load["pointlm"]
        assert {**db.write_marks, "pointlm": None} == {
            **after_load, "pointlm": None
        }, "a write must stamp only the tables it touched"
        db.execute(update, ("b", gid))
        quiet = db.write_marks["pointlm"]
        assert quiet != first, (
            "every committed write must advance the table's watermark"
        )
        # a no-op write (rowcount 0) must not advance it
        db.execute(update, ("c", -1))
        assert db.write_marks["pointlm"] == quiet

    def test_write_watermark_overhead_within_budget(self, monkeypatch):
        """Single-row auto-commit UPDATEs with the watermark stamp live
        against the same loop with ``bump_write_marks`` a no-op."""
        db = _fresh_db()
        gid = db.execute(
            "SELECT gid FROM pointlm ORDER BY gid LIMIT 1"
        ).scalar()

        def write_round():
            for index in range(300):
                db.execute("UPDATE pointlm SET name = ? WHERE gid = ?",
                           (f"bench-{index}", gid))

        def unstamped_round():
            with monkeypatch.context() as patch:
                patch.setattr(Database, "bump_write_marks",
                              lambda self, tables, xid: None)
                write_round()

        assert_within_budget(
            write_round, unstamped_round,
            "watermark stamping on the auto-commit write path",
        )

    def test_detached_insert_within_budget(self):
        """The transactional bulk path with no storage attached —
        ``insert_rows``: latch, one transaction per batch (one undo run,
        frozen by slice at commit), one ``db.durability`` attribute read
        at its commit — against the direct heap + index loop."""
        rows = [(i, f"POINT({i % 100} {i % 90})") for i in range(400)]
        db = Database("greenwood")
        db.execute("CREATE TABLE bench (id INTEGER, g GEOMETRY)")
        db.execute("CREATE SPATIAL INDEX bench_g ON bench (g)")
        assert db.durability is None
        table = db.catalog.table("bench")

        def insert_guarded():
            db.insert_rows("bench", rows)

        def insert_directly():
            for values in rows:
                db._index_insert(table, table.insert_row(values, xmin=0))

        def count(where=""):
            return db.execute(f"SELECT COUNT(*) FROM bench{where}").scalar()

        def clear():  # keeps index size flat between timed calls
            db.execute("DELETE FROM bench")

        for insert in (insert_guarded, insert_directly):
            insert()
            assert count() == len(rows) == count(
                " WHERE ST_Intersects(g, ST_MakeEnvelope(-1, -1, 200, 200))"
            )
            clear()
        assert_within_budget(
            insert_guarded, insert_directly, "durability-detached insert",
            after=clear,
        )


# -- the untraced service path -----------------------------------------------

#: cheap statement: round-trip cost is protocol + dispatch, not execution
ROUND_TRIP_SQL = "SELECT COUNT(*) FROM pointlm WHERE gid < ?"


#: the most a trace context may add to a query frame: the ``trace`` key
#: holding a trace id, a span id and a float timestamp (94 bytes today)
TRACE_FIELD_BYTES = 128


class TestServiceTier:
    def test_traced_frame_differs_only_by_the_trace_field(
        self, matrix_db, monkeypatch
    ):
        """A ``trace=True`` client against a tracing-disabled server (the
        server reads one absent dict key) sends the ``trace=False`` wire
        image plus the ``trace`` field and nothing else, within a fixed
        byte bound, and gets the same answers — a count of the extra
        work, not a wall-clock ratio."""
        sent = []
        write_frame = client_module.write_frame

        def capture(sock, message):
            sent.append((dict(message), len(encode_frame(message))))
            write_frame(sock, message)

        monkeypatch.setattr(client_module, "write_frame", capture)
        config = ServerConfig(pool_size=2, cache_capacity=0)
        with JackpineServer(matrix_db, config) as server:
            answers = {}
            frames = {}
            for trace in (False, True):
                sent.clear()
                with ServiceClient.from_address(
                    server.address, trace=trace
                ) as client:
                    answers[trace] = [
                        client.execute(ROUND_TRIP_SQL, (index,)).rows
                        for index in range(20)
                    ]
                frames[trace] = list(sent)
        assert answers[True] == answers[False]
        assert len(frames[True]) == len(frames[False]) == 20
        for (plain, plain_bytes), (traced, traced_bytes) in zip(
            frames[False], frames[True]
        ):
            context = traced.pop("trace")
            assert set(context) == {"trace_id", "span_id", "sent_at"}
            assert traced == plain
            assert 0 < traced_bytes - plain_bytes <= TRACE_FIELD_BYTES

    def test_untraced_server_is_one_bool_check(self, matrix_db, monkeypatch):
        """The disabled path must never reach the recorder — enforced by
        making every entry point explode, then serving a round."""

        def explode(*_a, **_k):  # pragma: no cover - must not be called
            raise AssertionError("recorder touched on the untraced path")

        for entry_point in ("begin", "finish", "bind"):
            monkeypatch.setattr(RECORDER, entry_point, explode)
        with JackpineServer(matrix_db, ServerConfig(pool_size=2)) as server:
            with ServiceClient.from_address(server.address) as client:
                for index in range(20):
                    result = client.execute(ROUND_TRIP_SQL, (index,))
                    assert result.rows
                    assert result.trace_id is None
