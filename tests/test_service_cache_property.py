"""Correctness of the watermark result cache under write interleavings.

The cache's one contract: **a cache-enabled read never returns a result
a plain uncached connection would not return at that moment**. The
property test below throws randomized DML interleavings (auto-commit
writes, multi-statement transactions, rollbacks, DDL-free churn) at a
shared database and, after *every* cached read, replays the same SELECT
on a plain connection — the two must agree, always; a second property
test does the same through a running server and checks that each query
request is counted once in its cache statistics. The threaded test
checks the same contract against a genuinely concurrent writer: reads
served through the cache must never travel back in time.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
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
    """Concurrent writer commits a monotonically increasing version; a
    reader going through the cache must observe a non-decreasing
    sequence — any decrease would be a stale cache serve."""
    cache = ResultCache()
    executor = CachedExecutor(database, cache)
    database.execute("UPDATE cachetest SET name = ? WHERE k = ?",
                     ("0", KEYS[0]))
    stop = threading.Event()
    versions = 400

    def write_versions():
        conn = connect(database=database)
        cur = conn.cursor()
        try:
            for version in range(1, versions + 1):
                cur.execute("UPDATE cachetest SET name = ? WHERE k = ?",
                            (str(version), KEYS[0]))
        finally:
            stop.set()
            conn.close()

    observed = []
    writer = threading.Thread(target=write_versions)
    reader = connect(database=database)
    writer.start()
    try:
        while not stop.is_set():
            _, rows, _, _ = executor.execute(
                reader, "SELECT name FROM cachetest WHERE k = ?",
                (KEYS[0],)
            )
            observed.append(int(rows[0][0]))
        writer.join()
        assert observed, "reader never got a read in"
        for earlier, later in zip(observed, observed[1:]):
            assert later >= earlier, (
                f"cache served a stale result: saw {later} after {earlier}"
            )
        # and the final state is visible once the writer is done
        _, rows, _, _ = executor.execute(
            reader, "SELECT name FROM cachetest WHERE k = ?", (KEYS[0],)
        )
        assert int(rows[0][0]) == versions
    finally:
        writer.join()
        reader.close()
