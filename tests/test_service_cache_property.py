"""Correctness of the watermark result cache under write interleavings.

The cache's one contract: **a cache-enabled read never returns a result
a plain uncached connection would not return at that moment**. The
property test below throws randomized DML interleavings (auto-commit
writes, multi-statement transactions, rollbacks, DDL-free churn) at a
shared database and, after *every* cached read, replays the same SELECT
on a plain connection — the two must agree, always; a second property
test does the same through a running server and checks that each query
request is counted once in its cache statistics. The window properties
do the same for spatial window reads, which stay cached across commits
that write only outside their window: points inserted, moved, renamed,
nulled and deleted inside, outside and exactly on a window's edges and
corners. The threaded test checks the same contract against a genuinely
concurrent writer: reads served through the cache must never travel
back in time.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dbapi import connect
from repro.engines import Database
from repro.service import (
    CachedExecutor,
    JackpineServer,
    ResultCache,
    ServerConfig,
    ServiceClient,
)

KEYS = list(range(1, 7))

_READS = [
    "SELECT name FROM cachetest WHERE k = ?",
    "SELECT COUNT(*) FROM cachetest",
    "SELECT k, name FROM cachetest WHERE k = ?",
]


@pytest.fixture(scope="module")
def database():
    db = Database("greenwood")
    db.execute("CREATE TABLE cachetest (k INTEGER, name TEXT)")
    for key in KEYS:
        db.execute("INSERT INTO cachetest VALUES (?, ?)",
                   (key, f"seed-{key}"))
    return db


# one op = (kind, key, value-ish int)
_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["read0", "read1", "read2", "write", "txn_write",
             "txn_rollback", "insert_delete"]
        ),
        st.sampled_from(KEYS),
        st.integers(min_value=0, max_value=999),
    ),
    min_size=1,
    max_size=24,
)


@given(ops=_ops)
@settings(max_examples=60, deadline=None)
def test_cached_reads_always_match_uncached(database, ops):
    cache = ResultCache(capacity=8)  # tiny: eviction in play too
    executor = CachedExecutor(database, cache)
    reader = connect(database=database)
    writer = connect(database=database)
    plain = connect(database=database)
    wcur = writer.cursor()
    try:
        for kind, key, value in ops:
            if kind.startswith("read"):
                sql = _READS[int(kind[-1])]
                params = () if "?" not in sql else (key,)
                _, cached_rows, _, _ = executor.execute(
                    reader, sql, params
                )
                plain_rows = plain.cursor().execute(sql, params).fetchall()
                assert sorted(cached_rows) == sorted(plain_rows), (
                    f"cache diverged on {sql!r} {params} after {kind}"
                )
            elif kind == "write":
                wcur.execute("UPDATE cachetest SET name = ? WHERE k = ?",
                             (f"v{value}", key))
            elif kind == "txn_write":
                wcur.execute("BEGIN")
                wcur.execute("UPDATE cachetest SET name = ? WHERE k = ?",
                             (f"t{value}", key))
                wcur.execute("UPDATE cachetest SET name = ? WHERE k = ?",
                             (f"t{value}b", (key % len(KEYS)) + 1))
                writer.commit()
            elif kind == "txn_rollback":
                wcur.execute("BEGIN")
                wcur.execute("UPDATE cachetest SET name = ? WHERE k = ?",
                             (f"ghost{value}", key))
                writer.rollback()
            else:  # insert_delete: cardinality-changing churn
                gid = 1000 + value
                wcur.execute("INSERT INTO cachetest VALUES (?, ?)",
                             (gid, f"tmp{value}"))
                wcur.execute("DELETE FROM cachetest WHERE k = ?", (gid,))
    finally:
        reader.close()
        writer.close()
        plain.close()


# -- window reads ------------------------------------------------------------

#: coordinates on, between and beyond the windows' edges
_COORDS = [0.0, 5.0, 9.5, 10.0, 12.5, 15.0, 17.5, 20.0, 20.5, 25.0, 30.0]
_WINDOWS = [(10.0, 10.0, 20.0, 20.0), (15.0, 5.0, 30.0, 15.0),
            (20.0, 20.0, 25.0, 25.0)]
_WINDOW_READS = [
    ("SELECT k, name FROM spots "
     "WHERE ST_Intersects(geom, ST_MakeEnvelope(?, ?, ?, ?))"),
    ("SELECT COUNT(*), MAX(name) FROM spots WHERE k > 0 "
     "AND ST_Intersects(ST_MakeEnvelope(?, ?, ?, ?), geom)"),
    ("SELECT k FROM spots WHERE ST_Intersects(geom, ST_GeomFromText("
     "'POLYGON((10 10, 20 10, 20 20, 10 20, 10 10))'))"),
]
_SPOT_KEYS = list(range(1, 6))
_point = st.tuples(st.sampled_from(_COORDS), st.sampled_from(_COORDS))
_write = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(_SPOT_KEYS), _point),
    st.tuples(st.just("move"), st.sampled_from(_SPOT_KEYS), _point),
    st.tuples(st.just("rename"), st.sampled_from(_SPOT_KEYS),
              st.integers(0, 99)),
    st.tuples(st.just("null"), st.sampled_from(_SPOT_KEYS), st.none()),
    st.tuples(st.just("delete"), st.sampled_from(_SPOT_KEYS), st.none()),
)
_window_ops = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(0, 2),
                  st.integers(0, len(_WINDOWS) - 1)),
        _write,
        st.tuples(st.sampled_from(["commit", "rollback"]),
                  st.lists(_write, min_size=1, max_size=3), st.none()),
    ),
    min_size=1,
    max_size=30,
)


def _spot_statement(op):
    """``(sql, params)`` of one write op."""
    kind, key, arg = op
    if kind == "insert":
        return ("INSERT INTO spots VALUES (?, ?, ST_Point(?, ?))",
                (key, f"n{key}", *arg))
    if kind == "move":
        return "UPDATE spots SET geom = ST_Point(?, ?) WHERE k = ?", (*arg, key)
    if kind == "rename":
        return "UPDATE spots SET name = ? WHERE k = ?", (f"r{arg}", key)
    if kind == "null":
        return "UPDATE spots SET geom = NULL WHERE k = ?", (key,)
    return "DELETE FROM spots WHERE k = ?", (key,)


def _window_read(index, window):
    sql = _WINDOW_READS[index]
    return sql, (_WINDOWS[window] if "?" in sql else ())


def _reset_spots(execute):
    """An indexed point table with one point per key, on a corner, on an
    edge, inside and outside the windows."""
    execute("DROP TABLE IF EXISTS spots")
    execute("CREATE TABLE spots (k INTEGER, name TEXT, geom GEOMETRY)")
    execute("CREATE SPATIAL INDEX spots_geom ON spots (geom)")
    for key, (x, y) in zip(_SPOT_KEYS, [(10, 10), (20, 15), (12.5, 12.5),
                                        (25, 25), (30, 10)]):
        execute("INSERT INTO spots VALUES (?, ?, ST_Point(?, ?))",
                (key, f"s{key}", x, y))


def _run_window_ops(ops, read, write, plain):
    """Drive ``ops``: ``read(sql, params)`` is the cached read compared
    with ``plain``'s, ``write(sql, params)`` one writer statement."""
    for op in ops:
        kind = op[0]
        if kind == "read":
            sql, params = _window_read(op[1], op[2])
            plain_rows = plain.cursor().execute(sql, params).fetchall()
            assert sorted(read(sql, params)) == sorted(plain_rows), (
                f"cached window read diverged on {sql!r} {params}"
            )
        elif kind in ("commit", "rollback"):
            write("BEGIN", ())
            for inner in op[1]:
                write(*_spot_statement(inner))
            write(kind.upper(), ())
        else:
            write(*_spot_statement(op))


#: a row moved out of, deleted from, nulled and renamed in a window, and
#: points inserted on an edge and a corner of one, each between two reads
_WINDOW_EXAMPLES = [
    [("read", 0, 0), ("move", 1, (0.0, 0.0)), ("read", 0, 0)],
    [("read", 1, 0), ("delete", 3, None), ("read", 1, 0)],
    [("read", 2, 0), ("null", 2, None), ("read", 2, 0)],
    [("read", 0, 0), ("rename", 3, 7), ("read", 0, 0)],
    [("read", 0, 0), ("insert", 5, (20.0, 12.5)), ("read", 0, 0)],
    [("read", 0, 2), ("insert", 5, (20.0, 20.0)), ("read", 0, 2)],
    [("read", 0, 1), ("commit", [("move", 4, (25.0, 5.0)),
                                 ("move", 2, (30.0, 30.0))], None),
     ("read", 0, 1), ("rollback", [("insert", 5, (15.0, 15.0))], None),
     ("read", 0, 1)],
]


def _with_examples(test):
    for ops in _WINDOW_EXAMPLES:
        test = example(ops=ops)(test)
    return test


@_with_examples
@given(ops=_window_ops)
@settings(max_examples=100, deadline=None)
def test_cached_window_reads_always_match_uncached(ops):
    db = Database("greenwood")
    _reset_spots(db.execute)
    executor = CachedExecutor(db, ResultCache(capacity=4))
    reader = connect(database=db)
    writer = connect(database=db)
    plain = connect(database=db)
    wcur = writer.cursor()
    try:
        _run_window_ops(
            ops,
            lambda sql, params: executor.execute(reader, sql, params)[1],
            lambda sql, params: wcur.execute(sql, params),
            plain,
        )
    finally:
        reader.close()
        writer.close()
        plain.close()


@_with_examples
@given(ops=_window_ops)
@settings(max_examples=30, deadline=None)
def test_served_window_reads_match_uncached_and_count_once(database, server,
                                                          ops):
    """The window rule through the server: hits (revalidated ones too)
    answered on the event loop, fills on the workers, and each query
    request counted once as a hit, a miss or a bypass."""
    reader = ServiceClient(server.host, server.port)
    writer = ServiceClient(server.host, server.port)
    plain = connect(database=database)
    _reset_spots(lambda sql, params=(): writer.execute(sql, params))
    before = server.stats()["cache"]
    reads = 0

    def read(sql, params):
        nonlocal reads
        reads += 1
        return reader.execute(sql, params).rows

    try:
        _run_window_ops(ops, read, writer.execute, plain)
    finally:
        reader.close()
        writer.close()
        plain.close()
    after = server.stats()["cache"]
    counted = sum(after[c] - before[c] for c in ("hits", "misses", "bypass"))
    # every writer statement outside BEGIN..COMMIT is a bypass, inside
    # one too; each read is one lookup
    writes = sum(1 if op[0] not in ("read", "commit", "rollback")
                 else 2 + len(op[1]) if op[0] != "read" else 0
                 for op in ops)
    assert counted == reads + writes


@pytest.fixture(scope="module")
def server(database):
    srv = JackpineServer(database, ServerConfig(
        pool_size=2, cache_capacity=8, deadline=30.0,
    ))
    srv.start()
    yield srv
    srv.stop()


@given(ops=_ops)
@settings(max_examples=30, deadline=None)
def test_served_reads_match_uncached_and_count_once(database, server, ops):
    """The same contract through the server, where known SELECTs are
    looked up on the event loop and hits answered there; and every
    query request is counted exactly once, as a hit, a miss or a
    bypass."""
    before = server.stats()["cache"]
    sent = 0
    plain = connect(database=database)
    reader = ServiceClient(server.host, server.port)
    writer = ServiceClient(server.host, server.port)

    def send(client, sql, params=()):
        nonlocal sent
        sent += 1
        return client.execute(sql, params)

    try:
        for kind, key, value in ops:
            if kind.startswith("read"):
                sql = _READS[int(kind[-1])]
                params = () if "?" not in sql else (key,)
                served = send(reader, sql, params).rows
                plain_rows = plain.cursor().execute(sql, params).fetchall()
                assert sorted(served) == sorted(plain_rows), (
                    f"served read diverged on {sql!r} {params} after {kind}"
                )
            elif kind == "write":
                send(writer, "UPDATE cachetest SET name = ? WHERE k = ?",
                     (f"s{value}", key))
            elif kind in ("txn_write", "txn_rollback"):
                send(writer, "BEGIN")
                send(writer, "UPDATE cachetest SET name = ? WHERE k = ?",
                     (f"st{value}", key))
                send(writer,
                     "COMMIT" if kind == "txn_write" else "ROLLBACK")
            else:
                gid = 2000 + value
                send(writer, "INSERT INTO cachetest VALUES (?, ?)",
                     (gid, f"stmp{value}"))
                send(writer, "DELETE FROM cachetest WHERE k = ?", (gid,))
    finally:
        reader.close()
        writer.close()
        plain.close()
    after = server.stats()["cache"]
    assert sum(after[c] - before[c] for c in ("hits", "misses", "bypass")) \
        == sent


@given(ops=_ops)
@settings(max_examples=30, deadline=None)
def test_reader_in_transaction_never_hits_cache(database, ops):
    """A snapshot reader must bypass the cache both ways: its reads are
    pinned to its snapshot, which the shared cache knows nothing about."""
    cache = ResultCache()
    executor = CachedExecutor(database, cache)
    reader = connect(database=database)
    writer = connect(database=database)
    rcur = reader.cursor()
    wcur = writer.cursor()
    try:
        rcur.execute("BEGIN")
        snapshot = executor.execute(
            reader, "SELECT name FROM cachetest WHERE k = ?", (KEYS[0],)
        )[1]
        for kind, key, value in ops:
            if kind == "write":
                wcur.execute("UPDATE cachetest SET name = ? WHERE k = ?",
                             (f"w{value}", key))
        again = executor.execute(
            reader, "SELECT name FROM cachetest WHERE k = ?", (KEYS[0],)
        )[1]
        assert again == snapshot, "snapshot reads must stay stable"
        assert cache.stats()["hits"] == 0
        reader.rollback()
    finally:
        reader.close()
        writer.close()


def test_cached_reads_never_go_back_in_time(database):
    """Concurrent writer commits a monotonically increasing version;
    readers going through one cache must each observe a non-decreasing
    sequence — any decrease would be a stale cache serve. The window
    read's row is written inside its window, and a second row outside
    it between every two versions, so revalidation races the writer.
    Two readers and the writer outnumber a two-core host's cores, and a
    short switch interval interleaves them finely."""
    cache = ResultCache()
    executor = CachedExecutor(database, cache)
    database.execute("UPDATE cachetest SET name = ? WHERE k = ?",
                     ("0", KEYS[0]))
    database.execute("DROP TABLE IF EXISTS cachewin")
    database.execute("CREATE TABLE cachewin (k INTEGER, v INTEGER, "
                     "geom GEOMETRY)")
    database.execute("CREATE SPATIAL INDEX cachewin_geom ON cachewin (geom)")
    database.execute("INSERT INTO cachewin VALUES (1, 0, ST_Point(5, 5)), "
                     "(2, 0, ST_Point(50, 50))")
    reads = [
        ("SELECT name FROM cachetest WHERE k = ?", (KEYS[0],)),
        ("SELECT v FROM cachewin "
         "WHERE ST_Intersects(geom, ST_MakeEnvelope(?, ?, ?, ?))",
         (0, 0, 10, 10)),
    ]
    stop = threading.Event()
    versions = 400
    failures = []

    def write_versions():
        conn = connect(database=database)
        cur = conn.cursor()
        try:
            for version in range(1, versions + 1):
                cur.execute("UPDATE cachetest SET name = ? WHERE k = ?",
                            (str(version), KEYS[0]))
                cur.execute("UPDATE cachewin SET v = ? WHERE k = 2",
                            (version,))
                cur.execute("UPDATE cachewin SET v = ? WHERE k = 1",
                            (version,))
        finally:
            stop.set()
            conn.close()

    def read_versions(observed):
        conn = connect(database=database)
        try:
            while not stop.is_set():
                for seen, (sql, params) in zip(observed, reads):
                    _, rows, _, _ = executor.execute(conn, sql, params)
                    seen.append(int(rows[0][0]))
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)
        finally:
            conn.close()

    observed = [([], []), ([], [])]
    threads = [threading.Thread(target=write_versions)] + [
        threading.Thread(target=read_versions, args=(seen,))
        for seen in observed
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        stop.set()
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    reader = connect(database=database)
    try:
        for reader_seen in observed:
            for seen, (sql, params) in zip(reader_seen, reads):
                assert seen, "reader never got a read in"
                for earlier, later in zip(seen, seen[1:]):
                    assert later >= earlier, (
                        f"cache served a stale result of {sql!r}: saw "
                        f"{later} after {earlier}"
                    )
        # and the final state is visible once the writer is done
        for sql, params in reads:
            _, rows, _, _ = executor.execute(reader, sql, params)
            assert int(rows[0][0]) == versions
    finally:
        reader.close()
