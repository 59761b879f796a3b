"""The query service tier: protocol framing, admission control, the
watermark result cache, and the server over a real socket."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.datagen.tiger import generate
from repro.engines import Database
from repro.errors import (
    ServiceError,
    ServiceOverloadedError,
    ServiceProtocolError,
)
from repro.service import (
    JackpineServer,
    ResultCache,
    ServerConfig,
    ServiceClient,
)
from repro.service.admission import AdmissionControl
from repro.service.cache import CachedExecutor
from repro.service.protocol import (
    decode_body,
    encode_frame,
    error_payload,
    jsonable_rows,
    decode_rows,
    result_fragment,
    result_frame,
)


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


def test_frame_round_trip():
    message = {"op": "query", "sql": "SELECT 1", "params": [1, "a", None]}
    frame = encode_frame(message)
    length = int.from_bytes(frame[:4], "big")
    assert length == len(frame) - 4
    assert decode_body(frame[4:]) == message


def test_decode_rejects_non_object_and_garbage():
    with pytest.raises(ServiceProtocolError):
        decode_body(b"[1, 2, 3]")
    with pytest.raises(ServiceProtocolError):
        decode_body(b"\xff\xfe not json")


def test_geometry_crosses_the_wire_as_wkt():
    from repro.geometry.wkt import loads

    point = loads("POINT(3 4)")
    wire = jsonable_rows([(1, point, "name")])
    assert wire[0][1] == {"$wkt": point.wkt()}
    back = decode_rows(wire)
    assert back == [(1, point.wkt(), "name")]


@pytest.mark.parametrize("rid, trace_id", [
    (3, None), ("req-9", "4f1a0001"), (None, None),
])
def test_result_frame_is_the_encoded_reply_dict(rid, trace_id):
    from repro.geometry.wkt import loads

    columns, rows = ["gid", "geom", "name", "score"], [
        (1, loads("POINT(3 4)"), "é", 0.5), (2, None, None, None),
    ]
    fragment = result_fragment(columns, rows, 2)
    for cached in (False, True):
        reply = {"ok": True, "id": rid, "columns": columns,
                 "rows": jsonable_rows(rows), "rowcount": 2,
                 "cached": cached}
        if trace_id is not None:
            reply["trace_id"] = trace_id
        frame = result_frame(rid, fragment, cached, trace_id)
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4
        assert decode_body(frame[4:]) == decode_body(encode_frame(reply)[4:])


def test_error_payload_rejects_unknown_codes():
    payload = error_payload("overloaded", "busy", retry_after=0.5)
    assert payload["retry_after"] == 0.5
    with pytest.raises(ValueError):
        error_payload("made_up", "nope")


@pytest.fixture(scope="module")
def database():
    db = Database("greenwood")
    generate(scale=0.05, seed=7).load_into(db)
    return db


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


def test_admission_sheds_when_queue_full():
    control = AdmissionControl(max_queue=2, deadline=1.0)
    t1 = control.try_admit()
    t2 = control.try_admit()
    assert t1 is not None and t2 is not None
    assert control.try_admit() is None  # queue full -> shed
    assert control.stats()["shed_queue_full"] == 1
    control.begin(t1)
    control.done()
    assert control.try_admit() is not None  # slot freed


def test_admission_sheds_expired_deadlines():
    control = AdmissionControl(max_queue=4, deadline=0.01)
    ticket = control.try_admit()
    time.sleep(0.03)  # budget eaten while "queued"
    with pytest.raises(ServiceOverloadedError) as excinfo:
        control.begin(ticket)
    assert excinfo.value.retry_after == pytest.approx(0.01)
    stats = control.stats()
    assert stats["shed_deadline"] == 1
    assert stats["queue_depth"] == 0  # slot given back
    assert stats["executing"] == 0


def test_admission_begin_returns_remaining_budget():
    control = AdmissionControl(max_queue=4, deadline=5.0)
    ticket = control.try_admit()
    remaining = control.begin(ticket)
    assert 0 < remaining <= 5.0
    control.done()
    assert control.stats()["completed"] == 1


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------


def test_cache_lru_eviction_and_stats():
    cache = ResultCache(capacity=2)
    cache.store(("a", ()), ["c"], [(1,)], 1, ())
    cache.store(("b", ()), ["c"], [(2,)], 1, ())
    assert cache.lookup(("a", ()), ())[1] == "hit"  # refreshes LRU rank
    cache.store(("c", ()), ["c"], [(3,)], 1, ())    # evicts "b"
    assert cache.lookup(("b", ()), ()) == (None, "miss")
    assert cache.lookup(("a", ()), ())[0].rows == [(1,)]
    assert len(cache) == 2


def test_cache_mark_mismatch_invalidates():
    cache = ResultCache()
    cache.store(("q", ()), ["c"], [(1,)], 1, (("pointlm", 5),))
    assert cache.lookup(("q", ()), (("pointlm", 5),))[1] == "hit"
    # a later committed write bumped the watermark
    assert cache.lookup(("q", ()), (("pointlm", 9),)) == (None, "stale")
    assert cache.stats()["invalidations"] == 1


def test_cached_executor_read_your_writes(database):
    from repro.dbapi import connect

    cache = ResultCache()
    executor = CachedExecutor(database, cache)
    conn = connect(database=database)
    sql = "SELECT name FROM pointlm WHERE gid = ?"
    _, rows1, _, cached1 = executor.execute(conn, sql, (2,))
    _, rows2, _, cached2 = executor.execute(conn, sql, (2,))
    assert not cached1 and cached2
    assert rows1 == rows2
    conn.cursor().execute(
        "UPDATE pointlm SET name = ? WHERE gid = ?", ("ryw-check", 2)
    )
    _, rows3, _, cached3 = executor.execute(conn, sql, (2,))
    assert not cached3, "write must invalidate the cached read"
    assert rows3 == [("ryw-check",)]
    assert cache.stats()["invalidations"] == 1
    conn.close()


def test_cached_executor_distinguishes_literal_only_sql(database):
    """Statements differing only in literals share a normalised
    fingerprint but must never share a cache entry: keyed on the
    fingerprint, ``SELECT 8`` was served ``SELECT 7``'s rows."""
    from repro.dbapi import connect
    from repro.obs.statements import fingerprint

    cache = ResultCache()
    executor = CachedExecutor(database, cache)
    conn = connect(database=database)
    seven, eight = "SELECT 7", "SELECT 8"
    assert fingerprint(seven) == fingerprint(eight), \
        "premise: literal variants normalise to one fingerprint"
    _, rows7, _, cached7 = executor.execute(conn, seven)
    _, rows8, _, cached8 = executor.execute(conn, eight)
    assert not cached8, "literal variant must miss, not hit the other's entry"
    assert rows7 == [(7,)] and rows8 == [(8,)]
    # IN-lists collapse under normalisation too; results must not
    narrow = "SELECT COUNT(*) FROM pointlm WHERE gid IN (1, 2)"
    wide = "SELECT COUNT(*) FROM pointlm WHERE gid IN (1, 2, 3)"
    executor.execute(conn, narrow)
    _, wide_rows, _, wide_cached = executor.execute(conn, wide)
    assert not wide_cached
    assert wide_rows == database.execute(wide).rows
    # each text repeats as its own hit with its own rows
    _, again7, _, hit7 = executor.execute(conn, seven)
    _, again8, _, hit8 = executor.execute(conn, eight)
    assert hit7 and hit8
    assert again7 == [(7,)] and again8 == [(8,)]
    conn.close()


def test_cached_executor_bypasses_transactions_and_sysviews(database):
    from repro.dbapi import connect

    cache = ResultCache()
    executor = CachedExecutor(database, cache)
    conn = connect(database=database)
    cursor = conn.cursor()
    cursor.execute("BEGIN")
    executor.execute(conn, "SELECT COUNT(*) FROM pointlm")
    executor.execute(conn, "SELECT COUNT(*) FROM pointlm")
    conn.rollback()
    assert cache.stats()["hits"] == 0, "in-txn reads must bypass"
    executor.execute(conn, "SELECT * FROM jackpine_tables")
    executor.execute(conn, "SELECT * FROM jackpine_tables")
    assert cache.stats()["hits"] == 0, "system views must bypass"
    assert cache.stats()["bypass"] == 4
    conn.close()


def test_cached_executor_fill_racing_commit_is_born_stale(database):
    """A commit that lands between mark capture and fill must leave the
    entry invalid (over-invalidation, never staleness)."""
    from repro.dbapi import connect

    cache = ResultCache()
    executor = CachedExecutor(database, cache)
    conn = connect(database=database)
    sql = "SELECT name FROM pointlm WHERE gid = ?"
    original = getattr(database, "execute")

    def racing_execute(sql_text, params=(), **kwargs):
        result = original(sql_text, params, **kwargs)
        # simulate a concurrent committed write AFTER the query ran but
        # BEFORE the cache fill stores the entry
        database.bump_write_marks(("pointlm",), database.txn.stamp())
        return result

    database.execute = racing_execute
    try:
        executor.execute(conn, sql, (3,))
    finally:
        database.execute = original
    # the fill captured pre-race marks; current marks moved on, so the
    # entry must not be served
    _, _, _, cached = executor.execute(conn, sql, (3,))
    assert not cached
    conn.close()


# -- the window rule: a commit outside a cached window keeps it -------------

WINDOW_SQL = ("SELECT k, name FROM spots "
              "WHERE ST_Intersects(geom, ST_MakeEnvelope(?, ?, ?, ?))")
WINDOW = (10.0, 10.0, 20.0, 20.0)


def _spots():
    """A point table with a spatial index; ``k`` 1-3 inside
    :data:`WINDOW`, 4 outside."""
    db = Database("greenwood")
    db.execute("CREATE TABLE spots (k INTEGER, name TEXT, geom GEOMETRY)")
    db.execute("CREATE SPATIAL INDEX spots_geom ON spots (geom)")
    for k, x, y in ((1, 12, 12), (2, 15, 18), (3, 19, 11), (4, 40, 40)):
        db.execute("INSERT INTO spots VALUES (?, ?, ST_Point(?, ?))",
                   (k, f"p{k}", x, y))
    return db


def _racing(db, write, params=()):
    """``db.execute`` that runs ``write`` on another connection after
    the statement it executes has read its rows: a commit that lands
    while a cache fill is in flight."""
    from repro.dbapi import connect

    original = db.execute
    writer = connect(database=db)
    pending = [write]

    def racing_execute(sql_text, sql_params=(), **kwargs):
        result = original(sql_text, sql_params, **kwargs)
        while pending:
            writer.cursor().execute(pending.pop(), params)
        return result

    return racing_execute


def _read(executor, conn, sql=WINDOW_SQL, params=WINDOW):
    _, rows, _, cached = executor.execute(conn, sql, params)
    return sorted(rows), cached


def test_a_commit_inside_the_window_racing_a_fill_leaves_it_stale():
    from repro.dbapi import connect

    db = _spots()
    cache = ResultCache()
    executor = CachedExecutor(db, cache)
    conn = connect(database=db)
    db.execute = _racing(db, "INSERT INTO spots VALUES (5, 'in', "
                             "ST_Point(11, 11))")
    try:
        filled, _ = _read(executor, conn)
    finally:
        del db.execute
    assert [k for k, _ in filled] == [1, 2, 3], "the fill read before it"
    rows, cached = _read(executor, conn)
    assert not cached and [k for k, _ in rows] == [1, 2, 3, 5]
    assert cache.stats()["invalidations"] == 1


def test_a_commit_outside_the_window_racing_a_fill_keeps_it():
    from repro.dbapi import connect

    db = _spots()
    cache = ResultCache()
    executor = CachedExecutor(db, cache)
    conn = connect(database=db)
    db.execute = _racing(db, "INSERT INTO spots VALUES (5, 'out', "
                             "ST_Point(20.5, 15))")
    try:
        filled, _ = _read(executor, conn)
    finally:
        del db.execute
    rows, cached = _read(executor, conn)
    assert cached and rows == filled == sorted(db.execute(
        WINDOW_SQL, WINDOW).rows)
    assert cache.stats()["invalidations"] == 0


def test_more_commits_than_the_log_keeps_leave_the_entry_stale():
    from repro.dbapi import connect
    from repro.engines.database import WRITE_LOG_SIZE

    db = _spots()
    cache = ResultCache()
    executor = CachedExecutor(db, cache)
    conn = connect(database=db)
    _read(executor, conn)
    outside = "UPDATE spots SET name = ? WHERE k = 4"
    for version in range(WRITE_LOG_SIZE - 1):
        db.execute(outside, (f"v{version}",))
    assert _read(executor, conn)[1], "the log still reaches its mark"
    for version in range(WRITE_LOG_SIZE + 1):
        db.execute(outside, (f"w{version}",))
    rows, cached = _read(executor, conn)
    assert not cached, "a mark the log no longer holds is not revalidated"
    assert rows == sorted(db.execute(WINDOW_SQL, WINDOW).rows)
    assert cache.stats()["invalidations"] == 1


def test_drop_and_create_of_the_same_table_leave_the_entry_stale():
    from repro.dbapi import connect

    db = _spots()
    cache = ResultCache()
    executor = CachedExecutor(db, cache)
    conn = connect(database=db)
    _read(executor, conn)
    db.execute("DROP TABLE spots")
    db.execute("CREATE TABLE spots (k INTEGER, name TEXT, geom GEOMETRY)")
    rows, cached = _read(executor, conn)
    assert not cached and rows == []
    db.execute("INSERT INTO spots VALUES (7, 'back', ST_Point(15, 15))")
    db.execute("INSERT INTO spots VALUES (8, 'far', ST_Point(90, 90))")
    rows, cached = _read(executor, conn)
    assert not cached and rows == [(7, "back")]
    assert _read(executor, conn) == ([(7, "back")], True)


@pytest.mark.parametrize("sql", [
    "SELECT k FROM spots WHERE ST_Intersects(geom, "
    "ST_MakeEnvelope(?, ?, ?, ?)) OR k = 4",
    "SELECT a.k FROM spots a JOIN spots b ON a.k = b.k "
    "WHERE ST_Intersects(a.geom, ST_MakeEnvelope(?, ?, ?, ?))",
    "SELECT k FROM spots WHERE ST_Intersects(ST_Buffer(geom, 1), "
    "ST_MakeEnvelope(?, ?, ?, ?))",
], ids=["or", "join", "not-a-column"])
def test_other_window_shapes_keep_table_granular_marks(sql):
    from repro.dbapi import connect

    db = _spots()
    assert db.read_shape(sql)[1] is None
    executor = CachedExecutor(db, ResultCache())
    conn = connect(database=db)
    _read(executor, conn, sql)
    assert _read(executor, conn, sql)[1]
    db.execute("UPDATE spots SET name = 'far' WHERE k = 4")
    rows, cached = _read(executor, conn, sql)
    assert not cached and rows == sorted(db.execute(sql, WINDOW).rows)


def test_window_shapes_that_qualify():
    """Any conjunct the planner could answer through a spatial index
    with a row-independent probe windows its entry, on the probe's
    envelope: ``ST_DWithin``'s radius widens it."""
    from repro.dbapi import connect

    db = _spots()
    conn = connect(database=db)
    for sql, params, box in (
        (WINDOW_SQL, WINDOW, WINDOW),
        ("SELECT COUNT(*) FROM spots s WHERE s.k > 1 AND ST_Intersects("
         "ST_GeomFromText('POLYGON((0 0, 1 0, 1 1, 0 0))'), s.geom)",
         (), (0.0, 0.0, 1.0, 1.0)),
        ("SELECT k FROM spots WHERE ST_Contains(ST_MakeEnvelope(?, ?, ?, ?), "
         "geom)", WINDOW, WINDOW),
        ("SELECT k FROM spots WHERE ST_Within(geom, ST_MakeEnvelope(?, ?, ?, "
         "?)) AND k < 9", WINDOW, WINDOW),
        ("SELECT k FROM spots WHERE ST_DWithin(geom, ST_Point(?, ?), ?)",
         (15.0, 15.0, 5.0), WINDOW),
        ("SELECT k FROM spots WHERE ST_DWithin(ST_Point(?, ?), geom, ?)",
         (15.0, 15.0, 5.0), WINDOW),
        ("SELECT k FROM spots WHERE geom && ST_MakeEnvelope(?, ?, ?, ?)",
         WINDOW, WINDOW),
        ("SELECT k FROM spots WHERE ST_MakeEnvelope(?, ?, ?, ?) && geom",
         WINDOW, WINDOW),
    ):
        tables, (table, column, _probe) = db.read_shape(sql)
        assert tables == ("spots",) and table == "spots" and column == "geom"
        entry, cached = CachedExecutor(db, ResultCache()).resolve(
            conn, sql, params
        )
        assert not cached and entry.window == ("spots", box), sql


def test_a_reader_in_a_transaction_bypasses_the_window_cache():
    from repro.dbapi import connect

    db = _spots()
    cache = ResultCache()
    executor = CachedExecutor(db, cache)
    conn = connect(database=db)
    _read(executor, conn)
    conn.cursor().execute("BEGIN")
    db.execute("UPDATE spots SET name = 'far' WHERE k = 4")
    assert _read(executor, conn) == (_read(executor, conn)[0], False)
    conn.rollback()
    stats = cache.stats()
    assert (stats["hits"], stats["misses"], stats["bypass"]) == (0, 1, 2)
    assert _read(executor, conn)[1], "revalidated once the txn is over"


def test_a_second_fill_of_a_window_formats_no_wkt(monkeypatch):
    """A fill encodes its reply; the geometries a window seen before
    returned keep their WKT, so a moved window over the same rows
    formats none."""
    from repro.dbapi import connect
    from repro.geometry import wkt

    db = _spots()
    executor = CachedExecutor(db, ResultCache())
    conn = connect(database=db)
    sql = ("SELECT k, geom FROM spots "
           "WHERE ST_Intersects(geom, ST_MakeEnvelope(?, ?, ?, ?))")
    first, _ = executor.resolve(conn, sql, WINDOW)
    first.body()
    calls = []
    original = wkt.dumps
    monkeypatch.setattr(wkt, "dumps", lambda *a, **k: (
        calls.append(a[0]), original(*a, **k))[1])
    moved = tuple(v + 0.5 for v in WINDOW)
    second, cached = executor.resolve(conn, sql, moved)
    assert not cached and len(second.rows) == 3
    assert second.body() and calls == []


# ---------------------------------------------------------------------------
# server over a real socket
# ---------------------------------------------------------------------------


@pytest.fixture()
def server(database):
    srv = JackpineServer(database, ServerConfig(
        pool_size=2, max_queue=4, deadline=2.0,
    ))
    srv.start()
    yield srv
    srv.stop()


def test_server_smoke_query_ping_stats(server):
    with ServiceClient(server.host, server.port) as client:
        assert client.ping()
        result = client.execute("SELECT COUNT(*) FROM pointlm")
        assert result.columns == ["count"]
        assert result.rowcount == 1 and result.rows[0][0] > 0
        again = client.execute("SELECT COUNT(*) FROM pointlm")
        assert again.cached and again.rows == result.rows
        stats = client.server_stats()
        assert stats["pool"] == {"size": 2}
        assert stats["admission"]["queue_limit"] == 4
        assert stats["cache"]["hits"] >= 1


def test_server_typed_sql_errors(server):
    with ServiceClient(server.host, server.port) as client:
        with pytest.raises(ServiceError) as excinfo:
            client.execute("SELECT FROM nowhere !!")
        assert excinfo.value.code == "sql"
        assert client.ping(), "connection survives a sql error"


def test_server_transaction_pinning(server, database):
    with ServiceClient(server.host, server.port) as writer, \
            ServiceClient(server.host, server.port) as reader:
        writer.execute("BEGIN")
        writer.execute("UPDATE pointlm SET name = ? WHERE gid = ?",
                       ("pinned-txn", 4))
        mine = writer.execute(
            "SELECT name FROM pointlm WHERE gid = ?", (4,)
        )
        assert mine.rows == [("pinned-txn",)], "session stays pinned"
        assert not mine.cached, "in-txn reads bypass the cache"
        theirs = reader.execute(
            "SELECT name FROM pointlm WHERE gid = ?", (4,)
        )
        assert theirs.rows != [("pinned-txn",)], "isolation across clients"
        writer.execute("COMMIT")
        after = reader.execute(
            "SELECT name FROM pointlm WHERE gid = ?", (4,)
        )
        assert after.rows == [("pinned-txn",)]


def test_server_disconnect_rolls_back_pinned_transaction(server, database):
    client = ServiceClient(server.host, server.port)
    before = database.execute(
        "SELECT name FROM pointlm WHERE gid = ?", (5,)
    ).rows
    client.execute("BEGIN")
    client.execute("UPDATE pointlm SET name = ? WHERE gid = ?",
                   ("orphaned", 5))
    client.close()  # vanish mid-transaction
    deadline = time.perf_counter() + 5.0
    while time.perf_counter() < deadline:
        if server.connections_open == 0:
            break
        time.sleep(0.01)
    after = database.execute(
        "SELECT name FROM pointlm WHERE gid = ?", (5,)
    ).rows
    assert after == before


def test_stop_mid_query_releases_pinned_session_exactly_once(
        database, monkeypatch):
    """Shutdown cancels the handler while a worker is still executing on
    the connection's session, inside a transaction: the close must wait
    for the worker (never close a session a statement is running on)
    and happen exactly once."""
    from repro.dbapi.connection import Connection

    srv = JackpineServer(database, ServerConfig(
        pool_size=2, max_queue=4, deadline=30.0,
    ))
    srv.start()
    started = threading.Event()
    unblock = threading.Event()
    real_resolve = srv._cached.resolve

    def blocking_resolve(connection, sql, params=(), **kwargs):
        if "pointlm" in sql:
            started.set()
            assert unblock.wait(10), "test never unblocked the worker"
        return real_resolve(connection, sql, params, **kwargs)

    srv._cached.resolve = blocking_resolve
    closes = []
    real_close = Connection.close

    def counting_close(connection):
        closes.append((connection, connection.in_transaction))
        real_close(connection)

    monkeypatch.setattr(Connection, "close", counting_close)
    client = ServiceClient(srv.host, srv.port)
    client.execute("BEGIN")  # the session now holds a transaction
    query_errors = []

    def send_query():
        try:
            client.execute("SELECT COUNT(*) FROM pointlm")
        except ServiceError as exc:
            query_errors.append(exc)

    query_thread = threading.Thread(target=send_query)
    stopper = threading.Thread(target=srv.stop)
    try:
        query_thread.start()
        assert started.wait(5), "worker never picked the query up"
        stopper.start()
        # give shutdown time to cancel the handler; the worker is still
        # blocked inside execute, so the session must not be closed yet
        time.sleep(0.3)
        assert not closes, "session closed while its query was running"
    finally:
        unblock.set()
    stopper.join(10)
    query_thread.join(10)
    assert not stopper.is_alive(), "stop() never finished"
    assert len(closes) == 1, "the session must be closed exactly once"
    (session, in_transaction), = closes
    assert in_transaction, "the open transaction is the close's to end"
    assert not session.in_transaction, "close rolled the transaction back"
    assert database.txn.active_count == 0


def test_executor_shutdown_sheds_and_returns_admission_slot(database):
    """A request admitted but impossible to dispatch (executor already
    shut down) must give its admission slot back — a leaked slot would
    permanently shrink the queue."""
    srv = JackpineServer(database, ServerConfig(
        pool_size=1, max_queue=2,
    ))
    srv.start()
    try:
        with ServiceClient(srv.host, srv.port) as client:
            assert client.ping()
            srv._workers.shutdown(wait=False)
            with pytest.raises(ServiceOverloadedError):
                client.execute("SELECT 1")
            assert srv.admission.stats()["queue_depth"] == 0, \
                "undispatchable request leaked its admission slot"
    finally:
        srv.stop()


def test_executor_shutdown_shed_is_traced(database):
    """The shutdown shed files a flight-recorder record like every other
    shed: outcome ``overloaded``, counted as shed, trace id echoed."""
    from repro.obs.requests import RECORDER

    RECORDER.reset()
    srv = JackpineServer(database, ServerConfig(
        pool_size=1, max_queue=2, trace=True,
    ))
    srv.start()
    try:
        with ServiceClient(srv.host, srv.port) as client:
            srv._workers.shutdown(wait=False)
            with pytest.raises(ServiceOverloadedError):
                client.execute("SELECT 2")
        deadline = time.monotonic() + 5.0
        records = []
        while not records and time.monotonic() < deadline:
            records = [r for r in RECORDER.records() if r.sql == "SELECT 2"]
            time.sleep(0.005)
        (record,) = records
        assert record.outcome == "overloaded" and record.shed
        assert srv.admission.stats()["queue_depth"] == 0
    finally:
        srv.stop()
        RECORDER.reset()


def test_idle_transaction_does_not_starve_other_clients(database):
    """A client idle inside a transaction holds its own session, not a
    shared one: with a single worker, another client's cache miss still
    answers within the deadline, and the idle client's COMMIT still
    lands and becomes visible."""
    srv = JackpineServer(database, ServerConfig(pool_size=1, deadline=0.5))
    srv.start()
    sql = "SELECT name FROM pointlm WHERE gid = ?"
    try:
        with ServiceClient(srv.host, srv.port) as a, \
                ServiceClient(srv.host, srv.port) as b:
            before = database.execute(sql, (6,)).rows
            a.execute("BEGIN")
            a.execute("UPDATE pointlm SET name = ? WHERE gid = ?",
                      ("idle-txn", 6))
            time.sleep(0.6)  # A sits idle past the deadline
            seen = b.execute(sql, (6,))
            assert not seen.cached and seen.rows == before
            a.execute("COMMIT")
            after = b.execute(sql, (6,))
            assert not after.cached and after.rows == [("idle-txn",)]
    finally:
        srv.stop()


def test_server_sheds_when_queue_overflows():
    """Saturate a tiny server from more connections than it has workers
    and queue slots; the excess must get typed overload responses, not
    unbounded queueing. The first statement blocks in a query_start hook
    until a shed reply has arrived, so the server stays saturated however
    fast or slow the host is."""
    db = Database("greenwood")
    db.execute("CREATE TABLE t (id INTEGER)")
    db.execute("INSERT INTO t VALUES (1)")
    shed_seen = threading.Event()
    db.obs.on_query_start(lambda sql, params: shed_seen.wait(30))
    srv = JackpineServer(db, ServerConfig(
        pool_size=1, max_queue=2, deadline=30.0,
    ))
    srv.start()
    results = []

    def hammer():
        client = ServiceClient(srv.host, srv.port)
        try:
            client.execute("SELECT COUNT(*) FROM t")
            results.append("ok")
        except ServiceOverloadedError as exc:
            assert exc.retry_after > 0
            results.append("shed")
            shed_seen.set()
        except ServiceError:
            results.append("error")
        finally:
            client.close()

    clients = 8
    threads = [threading.Thread(target=hammer) for _ in range(clients)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        # one statement runs and blocks on the only worker; the two queue
        # slots hold two more requests, so the fourth must shed
        assert shed_seen.is_set(), f"no shedding in {results}"
        assert len(results) == clients and "error" not in results
        stats = srv.admission.stats()
        assert stats["shed_queue_full"] == results.count("shed")
        assert stats["peak_queue"] <= stats["queue_limit"]
    finally:
        shed_seen.set()
        srv.stop()


def test_server_protocol_error_gets_typed_response(server):
    sock = socket.create_connection((server.host, server.port), timeout=5)
    try:
        body = b"this is not json"
        sock.sendall(len(body).to_bytes(4, "big") + body)
        from repro.service.protocol import read_frame

        response = read_frame(sock)
        assert response is not None
        assert not response["ok"]
        assert response["error"]["code"] == "protocol"
    finally:
        sock.close()


def test_unknown_op_gets_typed_error_and_closes(server):
    """A frame the server cannot serve is answered with a typed
    ``protocol`` error, then the server hangs up."""
    from repro.service.protocol import read_frame

    sock = socket.create_connection((server.host, server.port), timeout=5)
    try:
        sock.sendall(encode_frame({"op": "teleport", "id": 7}))
        response = read_frame(sock)
        assert response["id"] == 7
        assert response["error"]["code"] == "protocol"
        assert sock.recv(1) == b"", "server must close after the error"
    finally:
        sock.close()


def test_jackpine_service_view_reflects_server(server, database):
    with ServiceClient(server.host, server.port) as client:
        client.execute("SELECT COUNT(*) FROM arealm")
        client.execute("SELECT COUNT(*) FROM arealm")
    rows = database.execute(
        "SELECT pool_size, queue_limit, cache_hits, admitted "
        "FROM jackpine_service"
    ).rows
    assert len(rows) == 1
    pool_size, queue_limit, cache_hits, admitted = rows[0]
    assert pool_size == 2
    assert queue_limit == 4
    assert cache_hits >= 1
    # the repeat is a hit, answered before admission: only the fill
    # took a queue slot
    assert admitted == 1


def test_jackpine_service_view_empty_without_server(database):
    assert database.service is None
    rows = database.execute("SELECT * FROM jackpine_service").rows
    assert rows == []


def test_wait_events_recorded_while_serving(database):
    from repro.obs.waits import NET_RECV, NET_SEND, SERVICE_QUEUE, WAITS

    WAITS.enable()
    WAITS.reset()
    try:
        srv = JackpineServer(database, ServerConfig(pool_size=1)).start()
        try:
            with ServiceClient(srv.host, srv.port) as client:
                client.execute("SELECT COUNT(*) FROM pointlm")
        finally:
            srv.stop()
        summary = WAITS.summary()
        assert NET_RECV in summary and summary[NET_RECV]["count"] >= 1
        assert NET_SEND in summary and summary[NET_SEND]["count"] >= 1
        assert SERVICE_QUEUE in summary
        assert summary[SERVICE_QUEUE]["count"] >= 1
    finally:
        WAITS.disable()
