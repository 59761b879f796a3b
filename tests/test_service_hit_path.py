"""The service's hit path: a result-cache hit is answered on the event
loop from the bytes encoded when its entry was filled, without a worker,
a session or an admission slot; everything else still goes to a worker."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.engines import Database
from repro.service import JackpineServer, ServerConfig, ServiceClient
from repro.service.protocol import (
    decode_body,
    encode_frame,
    jsonable_rows,
    read_frame,
    write_frame,
)

COUNT = "SELECT COUNT(*) FROM t"
ROWS = "SELECT id, name, score, geom FROM t WHERE id <= ?"


@pytest.fixture()
def database():
    db = Database("greenwood")
    db.execute(
        "CREATE TABLE t (id INTEGER, name TEXT, score REAL, geom GEOMETRY)"
    )
    db.execute("INSERT INTO t VALUES "
               "(1, 'first', 1.5, ST_GeomFromText('POINT(1 2)'))")
    db.execute("INSERT INTO t VALUES (2, NULL, NULL, NULL)")
    db.execute("INSERT INTO t VALUES "
               "(3, 'third', -0.25, "
               "ST_GeomFromText('LINESTRING(0 0, 3 4)'))")
    return db


def _server(database, **overrides):
    config = dict(pool_size=2, max_queue=8, deadline=30.0)
    config.update(overrides)
    return JackpineServer(database, ServerConfig(**config))


def _wait_for(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def test_hit_answers_while_every_worker_is_blocked(database):
    """The deterministic proof that a hit makes no worker hop: with every
    worker thread held, a cached statement still answers, and a
    statement the server has never seen waits for a worker."""
    gate = threading.Event()
    database.obs.on_query_start(
        lambda sql, params: gate.wait(30) if "id > ?" in sql else None
    )
    blocker = "SELECT COUNT(*) FROM t WHERE id > ?"
    with _server(database, pool_size=1) as server:
        with ServiceClient(server.host, server.port) as client:
            expected = client.execute(COUNT).rows
        workers = server.config.pool_size
        fresh = []

        def hold(n):
            with ServiceClient(server.host, server.port) as held:
                held.execute(blocker, (n,))

        def first_sight():
            with ServiceClient(server.host, server.port) as client:
                fresh.append(client.execute("SELECT name FROM t WHERE id = 3"))

        threads = [threading.Thread(target=hold, args=(n,))
                   for n in range(workers)]
        waiter = threading.Thread(target=first_sight)
        try:
            for thread in threads:
                thread.start()
            # every worker has begun a request and waits in the hook
            _wait_for(lambda: server.admission.stats()["executing"]
                      == workers)
            with ServiceClient(server.host, server.port,
                               timeout=5.0) as client:
                hit = client.execute(COUNT)
            assert hit.cached and hit.rows == expected
            waiter.start()
            time.sleep(0.3)
            assert not fresh, "an unseen statement must wait for a worker"
        finally:
            gate.set()
            for thread in threads + [waiter]:
                if thread.is_alive():
                    thread.join(10)
        assert not any(thread.is_alive() for thread in threads + [waiter])
        assert fresh and fresh[0].rows == [("third",)]
        assert not fresh[0].cached


def test_the_event_loop_never_parses(database):
    parsed_on = set()
    real_parse = database._parse_statement

    def recording_parse(sql):
        parsed_on.add(threading.current_thread())
        return real_parse(sql)

    database._parse_statement = recording_parse
    with _server(database) as server:
        with ServiceClient(server.host, server.port) as client:
            for gid in (1, 2, 1, 3, 1):
                client.execute(ROWS, (gid,))
            client.execute(COUNT)
            client.execute(COUNT)
            client.execute("INSERT INTO t VALUES (4, 'four', 4.0, NULL)")
            client.execute(COUNT)
            client.execute("BEGIN")
            client.execute(COUNT)
            client.execute("COMMIT")
            client.execute(COUNT)
        loop_thread = server._thread
    assert parsed_on, "the workers parse"
    assert loop_thread not in parsed_on


def _raw_query(sock, rid, sql, params=()):
    write_frame(sock, {"op": "query", "id": rid, "sql": sql,
                       "params": list(params)})
    return read_frame(sock)


def test_hit_reply_decodes_to_the_miss_reply(database):
    """Same statement, miss then hit: the decoded replies differ only in
    ``id`` and ``cached``, and both are the JSON object the generic
    frame encoder makes of the reply dict (geometry, NULL, REAL, TEXT)."""
    with _server(database) as server:
        sock = socket.create_connection((server.host, server.port),
                                        timeout=5)
        try:
            miss = _raw_query(sock, 7, ROWS, (3,))
            hit = _raw_query(sock, 8, ROWS, (3,))
        finally:
            sock.close()
    assert miss["cached"] is False and hit["cached"] is True
    assert miss["id"] == 7 and hit["id"] == 8
    assert isinstance(hit["id"], int)
    result = database.execute(ROWS, (3,))
    old_image = decode_body(encode_frame({
        "ok": True, "id": 8, "columns": list(result.columns),
        "rows": jsonable_rows(result.rows), "rowcount": result.rowcount,
        "cached": True,
    })[4:])
    assert hit == old_image
    assert {**miss, "id": 8, "cached": True} == hit
    assert hit["rows"][0] == [1, "first", 1.5, {"$wkt": "POINT (1 2)"}]
    assert hit["rows"][1] == [2, None, None, None]


def test_own_transaction_sees_its_row_and_never_a_cached_reply(database):
    with _server(database) as server, \
            ServiceClient(server.host, server.port) as other, \
            ServiceClient(server.host, server.port) as client:
        other.execute(COUNT)
        assert other.execute(COUNT).cached  # the entry exists
        client.execute("BEGIN")
        client.execute("INSERT INTO t VALUES (10, 'mine', 0.5, NULL)")
        for _ in range(2):
            mine = client.execute(COUNT)
            assert mine.rows == [(4,)] and not mine.cached
        theirs = other.execute(COUNT)
        assert theirs.rows == [(3,)] and theirs.cached
        client.execute("COMMIT")
        after = client.execute(COUNT)
        assert after.rows == [(4,)] and not after.cached


def test_commit_from_another_connection_turns_the_next_read_into_a_miss(
        database):
    with _server(database) as server, \
            ServiceClient(server.host, server.port) as reader, \
            ServiceClient(server.host, server.port) as writer:
        reader.execute(ROWS, (20,))
        before = reader.execute(ROWS, (20,))
        assert before.cached and len(before.rows) == 3
        writer.execute("BEGIN")
        writer.execute("INSERT INTO t VALUES (11, 'new', 2.0, NULL)")
        assert reader.execute(ROWS, (20,)).cached, \
            "an uncommitted write leaves the entry valid"
        writer.execute("COMMIT")
        after = reader.execute(ROWS, (20,))
        assert not after.cached
        assert (11, "new", 2.0, None) in after.rows
        again = reader.execute(ROWS, (20,))
        assert again.cached and again.rows == after.rows


def test_unhashable_params_go_to_a_worker_and_answer(database):
    sql = "SELECT COUNT(*) FROM t WHERE id = ?"
    with _server(database) as server, \
            ServiceClient(server.host, server.port) as client:
        client.execute(sql, (1,))  # the server now knows the text
        before = server.stats()
        result = client.execute(sql, ([1],))
        after = server.stats()
    assert result.rows == database.execute(sql, ([1],)).rows
    assert not result.cached
    assert after["cache"]["bypass"] == before["cache"]["bypass"] + 1
    for counter in ("hits", "misses"):
        assert after["cache"][counter] == before["cache"][counter]
    assert after["admission"]["admitted"] == \
        before["admission"]["admitted"] + 1
