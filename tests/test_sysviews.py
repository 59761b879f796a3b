"""The ``jackpine_*`` system views, scanned through the normal SQL path."""

import pytest

from repro.dbapi import connect
from repro.engines import Database
from repro.engines.sysviews import SYSTEM_VIEW_NAMES
from repro.errors import SqlPlanError, SqlProgrammingError
from repro.obs.requests import RECORDER
from repro.obs.waits import GUARD_TICK, WAITS
from repro.service import JackpineServer, ServerConfig, ServiceClient

PROFILES = ("greenwood", "bluestem", "ironbark")

#: every view's columns and types, in order — the catalog's public schema
VIEW_SCHEMAS = {
    "jackpine_statements": [
        ("fingerprint", "TEXT"), ("statement", "TEXT"),
        ("calls", "INTEGER"), ("errors", "INTEGER"),
        ("total_time", "REAL"), ("mean_time", "REAL"), ("p50", "REAL"),
        ("p95", "REAL"), ("p99", "REAL"), ("rows", "INTEGER"),
        ("rows_scanned", "INTEGER"), ("index_probes", "INTEGER"),
        ("pages_read", "INTEGER"), ("pairs_considered", "INTEGER"),
        ("pairs_emitted", "INTEGER"), ("degraded", "INTEGER"),
        ("retries", "INTEGER"), ("aborts", "INTEGER"),
        ("timeouts", "INTEGER"), ("wait_lock_seconds", "REAL"),
        ("wait_latch_seconds", "REAL"), ("wait_io_seconds", "REAL"),
        ("wait_net_seconds", "REAL"), ("wait_service_seconds", "REAL"),
        ("wait_client_seconds", "REAL"), ("wait_guard_seconds", "REAL"),
        ("cpu_seconds", "REAL"),
    ],
    "jackpine_plans": [
        ("statement_fingerprint", "TEXT"), ("statement", "TEXT"),
        ("plan_fingerprint", "TEXT"), ("plan_shape", "TEXT"),
        ("executions", "INTEGER"), ("first_seen", "REAL"),
        ("last_seen", "REAL"), ("is_current", "INTEGER"),
        ("flipped_from", "TEXT"),
    ],
    "jackpine_waits": [
        ("wait_event", "TEXT"), ("wait_class", "TEXT"), ("site", "TEXT"),
        ("count", "INTEGER"), ("total_seconds", "REAL"), ("p50", "REAL"),
        ("p95", "REAL"), ("p99", "REAL"),
    ],
    "jackpine_tables": [
        ("name", "TEXT"), ("kind", "TEXT"), ("table_name", "TEXT"),
        ("column_name", "TEXT"), ("live_rows", "INTEGER"),
        ("pages", "INTEGER"), ("seq_scans", "INTEGER"),
        ("index_probes", "INTEGER"), ("mvcc_versions", "INTEGER"),
        ("vacuumed_rows", "INTEGER"), ("frozen_rows", "INTEGER"),
        ("pages_read", "INTEGER"), ("pages_written", "INTEGER"),
        ("buffer_hit_ratio", "REAL"),
    ],
    "jackpine_progress": [
        ("session_id", "INTEGER"), ("thread_id", "INTEGER"),
        ("engine", "TEXT"), ("txid", "INTEGER"), ("sql", "TEXT"),
        ("phase", "TEXT"), ("wait_event", "TEXT"), ("seconds", "REAL"),
        ("rows_processed", "INTEGER"), ("index_probes", "INTEGER"),
        ("pairs_considered", "INTEGER"), ("pairs_emitted", "INTEGER"),
        ("checkpoint_lsn", "INTEGER"),
    ],
    "jackpine_service": [
        ("pool_size", "INTEGER"), ("queue_depth", "INTEGER"),
        ("queue_limit", "INTEGER"), ("executing", "INTEGER"),
        ("admitted", "INTEGER"), ("shed_queue_full", "INTEGER"),
        ("shed_deadline", "INTEGER"), ("cache_entries", "INTEGER"),
        ("cache_hits", "INTEGER"), ("cache_misses", "INTEGER"),
        ("cache_invalidations", "INTEGER"), ("cache_bypass", "INTEGER"),
    ],
    "jackpine_requests": [
        ("trace_id", "TEXT"), ("started_at", "REAL"), ("sql", "TEXT"),
        ("fingerprint", "TEXT"), ("outcome", "TEXT"), ("shed", "INTEGER"),
        ("cached", "INTEGER"), ("cache_status", "TEXT"),
        ("recv_seconds", "REAL"), ("queue_seconds", "REAL"),
        ("cache_seconds", "REAL"),
        ("exec_seconds", "REAL"), ("send_seconds", "REAL"),
        ("total_seconds", "REAL"), ("retained", "INTEGER"),
        ("spans", "INTEGER"), ("clock_skew_seconds", "REAL"),
    ],
}


def _seed(cur) -> None:
    cur.execute("CREATE TABLE pts (id INTEGER, g GEOMETRY)")
    cur.execute("INSERT INTO pts VALUES (1, ST_GeomFromText('POINT(1 2)'))")
    cur.execute("INSERT INTO pts VALUES (2, ST_GeomFromText('POINT(3 4)'))")
    cur.execute("CREATE SPATIAL INDEX pts_g ON pts (g)")


@pytest.fixture
def monitored():
    WAITS.enable()
    WAITS.reset()
    yield WAITS
    WAITS.disable()


@pytest.mark.parametrize("profile", PROFILES)
def test_all_views_return_live_data_over_dbapi(profile, monitored):
    """The acceptance query: every view yields rows through
    lexer -> parser -> planner -> executor over the DB-API, on every
    engine profile."""
    conn = connect(profile)
    conn.database.obs.enable_statements()
    cur = conn.cursor()
    _seed(cur)
    cur.execute("SELECT COUNT(*) FROM pts")
    cur.fetchall()
    # one deterministic wait record
    WAITS.record(GUARD_TICK, 0.001)

    cur.execute(
        "SELECT fingerprint, statement, calls, total_time "
        "FROM jackpine_statements ORDER BY total_time DESC LIMIT 5"
    )
    statements = cur.fetchall()
    assert statements
    assert any("from pts" in row[1] for row in statements)
    assert all(row[2] >= 1 for row in statements)

    cur.execute(
        "SELECT statement_fingerprint, plan_fingerprint, is_current "
        "FROM jackpine_plans"
    )
    plans = cur.fetchall()
    assert plans
    assert any(row[2] == 1 for row in plans)

    cur.execute("SELECT wait_event, count, total_seconds FROM jackpine_waits")
    waits = cur.fetchall()
    assert any(row[0] == GUARD_TICK and row[1] >= 1 for row in waits)

    cur.execute(
        "SELECT name, kind, live_rows, seq_scans FROM jackpine_tables"
    )
    tables = cur.fetchall()
    by_name = {(row[0], row[1]): row for row in tables}
    assert by_name[("pts", "table")][2] == 2
    assert by_name[("pts", "table")][3] >= 1
    assert ("pts_g", "index") in by_name

    # the querying statement itself is in flight, so it shows as progress
    cur.execute("SELECT session_id, sql, phase FROM jackpine_progress")
    progress = cur.fetchall()
    assert any("jackpine_progress" in (row[1] or "") for row in progress)
    conn.close()


def test_view_schemas_are_pinned():
    db = Database("greenwood")
    assert list(SYSTEM_VIEW_NAMES) == list(VIEW_SCHEMAS)
    for name, expected in VIEW_SCHEMAS.items():
        columns = db.catalog.table(name).columns
        assert [(c.name, c.type.name) for c in columns] == expected, name


def test_every_view_yields_full_width_rows_with_every_source_live(
    tmp_path, monitored
):
    """Statements, waits, a traced server request and attached storage
    all live: every view has rows, each as wide as its pinned schema."""
    db = Database("greenwood")
    db.obs.enable_statements()
    _seed(db)
    db.attach_storage(str(tmp_path / "storage"))
    db.execute("SELECT COUNT(*) FROM pts")
    WAITS.record(GUARD_TICK, 0.001)
    RECORDER.reset()
    config = ServerConfig(pool_size=2, trace=True)
    try:
        with JackpineServer(db, config) as server:
            with ServiceClient.from_address(server.address) as client:
                client.execute("SELECT COUNT(*) FROM pts")
            for name, expected in VIEW_SCHEMAS.items():
                rows = db.execute(f"SELECT * FROM {name}").rows
                assert rows, name
                assert {len(row) for row in rows} == {len(expected)}, name
    finally:
        RECORDER.reset()
        db.close()


def test_statements_view_reflects_aggregation():
    db = Database("greenwood")
    db.execute("CREATE TABLE t (id INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (2), (3)")
    db.obs.enable_statements()
    db.execute("SELECT id FROM t WHERE id IN (1, 2)")
    db.execute("select id from t where id in (3)")
    rows = db.execute(
        "SELECT statement, calls FROM jackpine_statements"
    ).rows
    matching = [r for r in rows if "from t where id in" in r[0]]
    assert len(matching) == 1
    assert matching[0][1] == 2


def test_views_exist_without_observability():
    """Views are queryable on a fresh database; stats views are empty,
    the tables view still reflects the catalog."""
    WAITS.reset()  # the wait monitor is process-global
    db = Database("greenwood")
    db.execute("CREATE TABLE t (id INTEGER)")
    db.execute("INSERT INTO t VALUES (7)")
    assert db.execute("SELECT * FROM jackpine_statements").rows == []
    assert db.execute("SELECT * FROM jackpine_waits").rows == []
    rows = db.execute(
        "SELECT name, live_rows FROM jackpine_tables"
    ).rows
    assert ("t", 1) in rows


def test_views_are_read_only():
    db = Database("greenwood")
    db.execute("CREATE TABLE t (id INTEGER)")  # gives jackpine_tables rows
    for name in ("jackpine_statements", "jackpine_tables"):
        with pytest.raises(SqlProgrammingError):
            db.execute(f"INSERT INTO {name} VALUES (1)")
    # DELETE has live view rows to target, so the mutator must refuse
    with pytest.raises((SqlPlanError, SqlProgrammingError)):
        db.execute("DELETE FROM jackpine_tables")


def test_view_names_are_reserved():
    db = Database("greenwood")
    with pytest.raises(SqlPlanError):
        db.execute("CREATE TABLE jackpine_statements (id INTEGER)")
    with pytest.raises(SqlPlanError):
        db.execute("DROP TABLE jackpine_waits")


def test_views_absent_from_analyze_and_user_catalog():
    db = Database("greenwood")
    db.execute("CREATE TABLE t (id INTEGER)")
    names = {table.name for table in db.catalog.tables()}
    assert names == {"t"}
    db.execute("ANALYZE")  # must not trip over read-only views
    assert set(SYSTEM_VIEW_NAMES) == {
        view.name for view in db.catalog.system_views()
    }


def test_view_reads_are_fresh_not_plan_cached():
    db = Database("greenwood")
    db.execute("CREATE TABLE t (id INTEGER)")
    db.obs.enable_statements()
    sql = "SELECT calls FROM jackpine_statements"
    first = db.execute(sql).rows
    db.execute("SELECT id FROM t")
    second = db.execute(sql).rows
    # the second read sees both earlier statements' entries
    assert len(second) > len(first)


def test_bufferpool_row_and_checkpoint_lsn_when_durable(tmp_path):
    db = Database("greenwood")
    db.execute("CREATE TABLE t (id INTEGER, g GEOMETRY)")
    db.insert_rows("t", [(i, f"POINT({i} {i})") for i in range(20)])

    # without storage: no bufferpool row, checkpoint column exists but
    # is part of the progress schema either way
    kinds = {row[0] for row in db.execute(
        "SELECT kind FROM jackpine_tables").rows}
    assert "bufferpool" not in kinds

    db.attach_storage(str(tmp_path / "storage"))
    db.execute("INSERT INTO t VALUES (100, ST_GeomFromText('POINT(9 9)'))")
    db.checkpoint()

    rows = db.execute(
        "SELECT name, kind, pages, pages_written, buffer_hit_ratio "
        "FROM jackpine_tables WHERE kind = 'bufferpool'"
    ).rows
    assert len(rows) == 1
    name, kind, pages, written, ratio = rows[0]
    assert name == "buffer_pool"
    assert pages >= 1 and written >= 1
    assert 0.0 <= ratio <= 1.0

    WAITS.enable()
    try:
        progress = db.execute(
            "SELECT sql, checkpoint_lsn FROM jackpine_progress"
        ).rows
    finally:
        WAITS.disable()
    ours = [r for r in progress if "jackpine_progress" in (r[0] or "")]
    assert ours and ours[0][1] == db.durability.last_checkpoint_lsn
    assert ours[0][1] > 0
    db.close()
