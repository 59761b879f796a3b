"""The query service tier: protocol framing, session pooling, admission
control, the watermark result cache, and the server over a real socket."""

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
    SessionPool,
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


# ---------------------------------------------------------------------------
# session pool
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def database():
    db = Database("greenwood")
    generate(scale=0.05, seed=7).load_into(db)
    return db


def test_pool_bounds_sessions_and_reuses(database):
    pool = SessionPool(database, size=2)
    a = pool.acquire()
    b = pool.acquire()
    with pytest.raises(ServiceOverloadedError):
        pool.acquire(timeout=0.02)
    pool.release(a)
    c = pool.acquire(timeout=0.1)  # the released one, reused
    stats = pool.stats()
    assert stats["created"] == 2
    assert stats["reused"] == 1
    assert stats["in_use"] == 2
    pool.release(b)
    pool.release(c)
    pool.close()


def test_pool_release_rolls_back_open_transactions(database):
    pool = SessionPool(database, size=1)
    conn = pool.acquire()
    cursor = conn.cursor()
    cursor.execute("BEGIN")
    cursor.execute("UPDATE pointlm SET name = ? WHERE gid = ?",
                   ("leaky", 1))
    assert conn.in_transaction
    pool.release(conn)
    clean = pool.acquire()
    assert not clean.in_transaction
    rows = clean.cursor().execute(
        "SELECT name FROM pointlm WHERE gid = ?", (1,)
    ).fetchall()
    assert rows[0][0] != "leaky"
    pool.release(clean)
    pool.close()


def test_pool_reaps_idle_sessions(database):
    pool = SessionPool(database, size=2, idle_timeout=0.0)
    conn = pool.acquire()
    pool.release(conn)
    assert pool.stats()["idle"] == 1
    time.sleep(0.01)
    assert pool.reap() == 1
    stats = pool.stats()
    assert stats["idle"] == 0
    assert stats["reaped"] == 1
    pool.close()


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
    assert cache.lookup(("a", ()), ()) is not None  # refreshes LRU rank
    cache.store(("c", ()), ["c"], [(3,)], 1, ())    # evicts "b"
    assert cache.lookup(("b", ()), ()) is None
    assert cache.lookup(("a", ()), ()) is not None
    assert len(cache) == 2


def test_cache_mark_mismatch_invalidates():
    cache = ResultCache()
    cache.store(("q", ()), ["c"], [(1,)], 1, (("pointlm", 5),))
    assert cache.lookup(("q", ()), (("pointlm", 5),)) is not None
    # a later committed write bumped the watermark
    assert cache.lookup(("q", ()), (("pointlm", 9),)) is None
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


# ---------------------------------------------------------------------------
# server over a real socket
# ---------------------------------------------------------------------------


@pytest.fixture()
def server(database):
    srv = JackpineServer(database, ServerConfig(
        pool_size=2, max_queue=4, deadline=2.0, idle_timeout=30.0,
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
        assert stats["pool"]["size"] == 2
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
        if server.pool.stats()["in_use"] == 0:
            break
        time.sleep(0.01)
    after = database.execute(
        "SELECT name FROM pointlm WHERE gid = ?", (5,)
    ).rows
    assert after == before


def test_stop_mid_query_releases_pinned_session_exactly_once(database):
    """Shutdown cancels the handler while a worker is still executing on
    the connection's pinned session: the release must wait for the
    worker (never free a session a statement is running on) and happen
    exactly once (a double release would let two future leases share
    one session)."""
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
    releases = []
    real_release = srv.pool.release

    def counting_release(connection):
        releases.append(connection)
        real_release(connection)

    srv.pool.release = counting_release
    client = ServiceClient(srv.host, srv.port)
    client.execute("BEGIN")  # pins the session to this connection
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
        # blocked inside execute, so the session must not be freed yet
        time.sleep(0.3)
        assert not releases, "session released while its query was running"
    finally:
        unblock.set()
    stopper.join(10)
    query_thread.join(10)
    assert not stopper.is_alive(), "stop() never finished"
    assert len(releases) == 1, "pinned session must be released exactly once"
    assert srv.pool.stats()["in_use"] == 0


def test_executor_shutdown_sheds_and_returns_admission_slot(database):
    """A request admitted but impossible to dispatch (executor already
    shut down) must give its admission slot back — a leaked slot would
    permanently shrink the queue."""
    srv = JackpineServer(database, ServerConfig(
        pool_size=1, max_queue=2, reap_interval=60.0,
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
        # one statement runs and blocks; pool_size + 2 workers and the two
        # queue slots hold at most five requests, so the sixth must shed
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
