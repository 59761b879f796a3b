"""End-to-end request tracing: trace-context propagation, the linked
client+server+executor span tree, the tail-sampling flight recorder, the
``jackpine_requests`` system view, the slow log, and the server-side
wait attribution for ``--server`` workloads."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.datagen.tiger import generate
from repro.engines import Database
from repro.errors import ServiceError
from repro.obs.requests import (
    RECORDER,
    FlightRecorder,
    RequestRecord,
    SlowLog,
    TraceContext,
    chrome_trace,
    new_trace_id,
    read_slow_log,
)
from repro.obs.waits import NET_RECV, NET_SEND, SERVICE_QUEUE, WAITS
from repro.service import JackpineServer, ServerConfig, ServiceClient


@pytest.fixture(scope="module")
def database():
    db = Database("greenwood")
    generate(scale=0.05, seed=7).load_into(db)
    return db


@pytest.fixture()
def fresh_recorder():
    """The module global, zeroed before and after — servers always file
    into RECORDER, so tests share it the way jackpine_waits tests share
    WAITS."""
    RECORDER.reset()
    RECORDER.slow_threshold = 0.1
    yield RECORDER
    RECORDER.reset()


def _recorded(trace_id, timeout=2.0):
    """The flight-recorder record for ``trace_id``. The server files it
    after the reply is on the wire, so a client holding the reply may
    look before it lands: poll until it does (None after ``timeout``)."""
    deadline = time.monotonic() + timeout
    while True:
        record = RECORDER.lookup(trace_id)
        if record is not None or time.monotonic() >= deadline:
            return record
        time.sleep(0.005)


def _traced_server(database, **overrides):
    config = dict(pool_size=2, trace=True, trace_slow_ms=0.0)
    config.update(overrides)
    return JackpineServer(database, ServerConfig(**config))


# ---------------------------------------------------------------------------
# trace context + ids
# ---------------------------------------------------------------------------


def test_trace_ids_are_unique_and_stringy():
    ids = {new_trace_id() for _ in range(1000)}
    assert len(ids) == 1000
    assert all(isinstance(t, str) and len(t) == 20 for t in ids)


def test_trace_context_wire_round_trip():
    ctx = TraceContext.fresh()
    back = TraceContext.from_wire(ctx.to_wire())
    assert back.trace_id == ctx.trace_id
    assert back.span_id == ctx.span_id
    assert back.sent_at == pytest.approx(ctx.sent_at)


def test_malformed_trace_context_is_dropped_not_fatal():
    # compatibility rule: bad trace metadata must never fail a request
    for junk in (None, 42, "x", [], {"trace_id": 7}, {"trace_id": ""},
                 {"span_id": "only"}):
        assert TraceContext.from_wire(junk) is None
    tolerated = TraceContext.from_wire(
        {"trace_id": "t" * 200, "sent_at": "not-a-float"}
    )
    assert tolerated is not None
    assert len(tolerated.trace_id) == 64  # clamped
    assert tolerated.sent_at is None


# ---------------------------------------------------------------------------
# tail sampling (recorder unit level)
# ---------------------------------------------------------------------------


def _finish(recorder, outcome="ok", cache_status=None, sleep=0.0,
            sent_at=None):
    ctx = TraceContext.fresh()
    if sent_at is not None:
        ctx.sent_at = sent_at
    request = recorder.begin(ctx, "SELECT 1")
    if sleep:
        time.sleep(sleep)
    request.cache_status = cache_status
    request.complete(outcome)
    return recorder.finish(request)


def test_fast_ok_requests_are_compact_not_retained(fresh_recorder):
    record = _finish(fresh_recorder)
    assert not record.retained
    assert record.root is None
    assert fresh_recorder.stats()["retained"] == 0
    assert fresh_recorder.stats()["total"] == 1


def test_finish_tokenizes_a_repeated_sql_text_once(fresh_recorder,
                                                   monkeypatch):
    """The recorder fingerprints through the statement store's memo, so
    a repeated SQL text is tokenized once, not once per request."""
    import repro.obs.statements as statements

    tokenized = []
    tokenize = statements.tokenize

    def counting(sql):
        tokenized.append(sql)
        return tokenize(sql)

    monkeypatch.setattr(statements, "tokenize", counting)
    # a text no other test used, so the memo starts without it
    sql = f"SELECT gid FROM counties WHERE name = '{new_trace_id()}'"
    records = []
    for _ in range(2):
        request = fresh_recorder.begin(TraceContext.fresh(), sql)
        request.complete("ok")
        records.append(fresh_recorder.finish(request))
    assert tokenized == [sql]
    assert records[0].fingerprint == records[1].fingerprint


@pytest.mark.parametrize("outcome", ["sql", "timeout", "overloaded",
                                     "shed_queue_full", "internal"])
def test_non_ok_outcomes_are_tail_sampled(fresh_recorder, outcome):
    record = _finish(fresh_recorder, outcome=outcome)
    assert record.retained
    assert record.root is not None


def test_slow_requests_are_tail_sampled(fresh_recorder):
    fresh_recorder.slow_threshold = 0.005
    record = _finish(fresh_recorder, sleep=0.02)
    assert record.retained


def test_cache_stale_adjacent_requests_are_tail_sampled(fresh_recorder):
    assert _finish(fresh_recorder, cache_status="stale").retained
    assert not _finish(fresh_recorder, cache_status="hit").retained


def test_shed_flag_tracks_outcome(fresh_recorder):
    assert _finish(fresh_recorder, outcome="shed_queue_full").shed
    assert _finish(fresh_recorder, outcome="overloaded").shed
    assert not _finish(fresh_recorder, outcome="sql").shed


def test_ring_is_bounded():
    recorder = FlightRecorder(capacity=8)
    for _ in range(20):
        _finish(recorder)
    stats = recorder.stats()
    assert stats["buffered"] == 8
    assert stats["total"] == 20
    assert stats["dropped"] == 12


def test_clock_skew_is_clamped_by_causality(fresh_recorder):
    # a client clock running ahead claims it sent *after* the server
    # started — impossible; the skew is normalized out and reported
    record = _finish(fresh_recorder, outcome="sql",
                     sent_at=time.time() + 5.0)
    assert record.clock_skew_seconds == pytest.approx(5.0, abs=0.5)
    client_span = record.root
    assert client_span.op == "client.request"
    server_span = client_span.children[0]
    assert server_span.op == "service.request"
    assert client_span.started <= server_span.started


def test_record_dict_round_trip(fresh_recorder):
    record = _finish(fresh_recorder, outcome="timeout")
    back = RequestRecord.from_dict(
        json.loads(json.dumps(record.as_dict()))
    )
    assert back.trace_id == record.trace_id
    assert back.outcome == "timeout"
    assert back.retained
    assert back.root is not None and back.root.op == record.root.op


# ---------------------------------------------------------------------------
# slow log
# ---------------------------------------------------------------------------


def test_slow_log_rotates_by_size(tmp_path):
    path = str(tmp_path / "slow.jsonl")
    log = SlowLog(path, max_bytes=2048)
    recorder = FlightRecorder(slow_threshold=0.0)
    recorder.slow_log = log
    for _ in range(40):
        ctx = TraceContext.fresh()
        request = recorder.begin(ctx, "SELECT * FROM counties")
        request.complete("ok")
        recorder.finish(request)
    log.close()
    assert os.path.exists(path)
    assert os.path.exists(path + ".1")
    assert os.path.getsize(path) <= 2048
    assert os.path.getsize(path + ".1") <= 2048
    records = read_slow_log(path)
    assert records, "rotation must not lose every record"
    assert all(r.retained for r in records)
    # oldest-first merge: trace ids carry a monotonic per-process
    # counter suffix, so the merged read must come back sorted
    assert [r.trace_id for r in records] == sorted(
        r.trace_id for r in records
    )


def test_slow_log_only_gets_retained_records(tmp_path):
    path = str(tmp_path / "slow.jsonl")
    log = SlowLog(path)
    recorder = FlightRecorder()
    recorder.slow_log = log
    _finish(recorder)                      # fast ok: not logged
    _finish(recorder, outcome="sql")       # errored: logged
    log.close()
    records = read_slow_log(path)
    assert len(records) == 1
    assert records[0].outcome == "sql"


# ---------------------------------------------------------------------------
# the acceptance path: one linked trace across both processes
# ---------------------------------------------------------------------------


#: a traced miss on a known SQL text: the event loop looks it up before
#: admission, a worker executes it
MISS_STAGES = ["net.recv", "cache.lookup", "queue.wait", "execute",
               "net.send"]


def test_one_request_yields_one_linked_tree(database, fresh_recorder):
    sql = "SELECT COUNT(*) FROM counties WHERE gid < ?"
    with _traced_server(database) as server:
        client = ServiceClient.from_address(server.address)
        try:
            client.execute(sql, (49,))  # the server now knows the text
            result = client.execute(sql, (50,))
        finally:
            client.close()
        assert result.trace_id is not None
        record = _recorded(result.trace_id)
        assert record is not None and record.retained
        # client span -> service.request -> lifecycle stages, in order
        root = record.root
        assert root.op == "client.request"
        (request,) = root.children
        assert request.op == "service.request"
        ops = [child.op for child in request.children]
        assert ops == MISS_STAGES
        # the cache missed (new params) and the executor SpanNode
        # tree is parented under the execute stage
        assert record.cache_status == "miss"
        execute = request.children[ops.index("execute")]
        assert execute.children, "executor trace must parent here"
        operator_ops = {s.op for _d, s in execute.children[0].walk()}
        assert operator_ops & {"SeqScan", "IndexScan", "Project",
                               "Aggregate", "Filter"}
        # stage timings are also on the compact record
        assert sorted(record.stage_seconds) == sorted(MISS_STAGES)
        # timestamps are epoch-normalized and causally ordered
        assert root.started <= request.started
        for child in request.children:
            assert child.started >= root.started - 1e-6


def test_traced_hit_is_answered_before_admission(database, fresh_recorder):
    """A hit never reaches a worker: its record has the loop's stages
    only, and is filed after the reply went out (``net.send``). A text
    the server has never seen is looked up on the worker, as before."""
    sql = "SELECT COUNT(*) FROM counties WHERE gid < ?"
    with _traced_server(database) as server:
        client = ServiceClient.from_address(server.address)
        try:
            first = client.execute(sql, (60,))
            hit = client.execute(sql, (60,))
        finally:
            client.close()
    assert hit.cached and hit.rows == first.rows
    record = _recorded(hit.trace_id)
    assert record.cache_status == "hit" and record.cached
    assert record.outcome == "ok"
    (request,) = record.root.children
    assert [child.op for child in request.children] == [
        "net.recv", "cache.lookup", "net.send"]
    assert "queue.wait" not in record.stage_seconds
    unseen = _recorded(first.trace_id)
    assert unseen.cache_status == "miss"
    (request,) = unseen.root.children
    assert [child.op for child in request.children] == [
        "net.recv", "queue.wait", "cache.lookup", "execute", "net.send"]


def test_errored_request_carries_its_executor_trace(database,
                                                    fresh_recorder):
    """The tail sampler keeps errored requests; the failed statement's
    event must be in the kept tree, parented under ``execute``."""
    from repro.errors import ReproError

    sql = "SELECT no_such_column FROM counties"
    with _traced_server(database) as server:
        client = ServiceClient.from_address(server.address)
        try:
            with pytest.raises(ReproError):
                client.execute(sql)
            # the record is filed after the reply is on the wire
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                records = [r for r in RECORDER.records() if r.sql == sql]
                if records:
                    break
                time.sleep(0.01)
        finally:
            client.close()
    (record,) = records
    assert record.outcome == "sql" and record.retained
    execute = record.root.find("execute")
    assert [child.op for child in execute.children] == ["statement"]
    assert execute.children[0].detail == sql


def test_trace_queryable_via_jackpine_requests_view(database,
                                                    fresh_recorder):
    with _traced_server(database) as server:
        client = ServiceClient.from_address(server.address)
        try:
            result = client.execute("SELECT COUNT(*) FROM pointlm")
            # queried THROUGH the server: the view reads the recorder
            rows = client.execute(
                "SELECT trace_id, outcome, retained, exec_seconds "
                "FROM jackpine_requests"
            ).rows
        finally:
            client.close()
    by_id = {row[0]: row for row in rows}
    assert result.trace_id in by_id
    row = by_id[result.trace_id]
    assert row[1] == "ok"
    assert row[2] == 1
    assert row[3] is not None and row[3] >= 0.0


def test_chrome_trace_merges_client_and_server_tracks(database,
                                                      fresh_recorder):
    with _traced_server(database) as server:
        client = ServiceClient.from_address(server.address)
        try:
            result = client.execute("SELECT COUNT(*) FROM counties")
        finally:
            client.close()
    record = _recorded(result.trace_id)
    doc = chrome_trace(record)
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    pids = {e["pid"] for e in events}
    assert pids == {1, 2}, "client and server tracks"
    names = {e["name"] for e in events}
    assert {"client.request", "service.request", "execute"} <= names
    assert all(e["ts"] >= 0 for e in events)
    metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert {m["args"]["name"] for m in metas} == {"client", "server"}
    assert doc["otherData"]["trace_id"] == record.trace_id
    json.dumps(doc)  # must be a writable chrome://tracing file


def test_chrome_trace_refuses_unretained_records(fresh_recorder):
    record = _finish(fresh_recorder)  # fast ok: compact only
    with pytest.raises(ValueError):
        chrome_trace(record)


def test_trace_cli_dumps_chrome_file(database, fresh_recorder, tmp_path,
                                     capsys):
    from repro.cli import main

    with _traced_server(database) as server:
        client = ServiceClient.from_address(server.address)
        try:
            result = client.execute("SELECT COUNT(*) FROM areawater")
        finally:
            client.close()
    out = str(tmp_path / "req.trace.json")
    assert _recorded(result.trace_id) is not None
    assert main(["trace", result.trace_id, "-o", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["otherData"]["trace_id"] == result.trace_id
    # listing mode prints every buffered request
    assert main(["trace"]) == 0
    assert result.trace_id in capsys.readouterr().out
    # unknown ids are a clean nonzero exit, not a stack trace
    assert main(["trace", "does-not-exist", "-o", out]) == 1


def test_cache_hit_and_stale_statuses_reach_records(database,
                                                    fresh_recorder):
    with _traced_server(database) as server:
        client = ServiceClient.from_address(server.address)
        try:
            client.execute(
                "CREATE TABLE trace_probe (gid INTEGER, geom GEOMETRY)"
            )
            client.execute(
                "INSERT INTO trace_probe VALUES (1, ST_Point(0, 0))"
            )
            first = client.execute("SELECT COUNT(*) FROM trace_probe")
            second = client.execute("SELECT COUNT(*) FROM trace_probe")
            # a committed write bumps the watermark: next lookup is stale
            client.execute(
                "INSERT INTO trace_probe VALUES (2, ST_Point(1, 1))"
            )
            third = client.execute("SELECT COUNT(*) FROM trace_probe")
        finally:
            client.close()
    assert _recorded(first.trace_id).cache_status == "miss"
    hit = _recorded(second.trace_id)
    assert hit.cache_status == "hit"
    assert second.cached
    stale = _recorded(third.trace_id)
    assert stale.cache_status == "stale"
    assert stale.retained, "stale-adjacent requests are tail-sampled"


def _records_for(sqls, count, timeout=5.0):
    """The records of ``sqls`` in filing order, once ``count`` landed."""
    deadline = time.monotonic() + timeout
    while True:
        records = [r for r in RECORDER.records() if r.sql in sqls]
        if len(records) >= count or time.monotonic() >= deadline:
            return records
        time.sleep(0.005)


def test_each_stage_is_measured_once(database, fresh_recorder):
    """A request's ``net.recv``, ``queue.wait`` and ``net.send`` are the
    very floats the wait monitor summed: over a sequential round on one
    worker, the stage seconds add up to the ``Net:Recv``,
    ``Service:QueueWait`` and ``Net:Send`` totals exactly."""
    sql = "SELECT COUNT(*) FROM counties WHERE gid < ?"
    statements = [(sql, (5,)), (sql, (6,)), (sql, (6,)),
                  ("SELECT COUNT(*) FROM pointlm", ()),
                  ("SELECT no_such_column FROM counties", ())]
    WAITS.enable()
    WAITS.reset()
    try:
        with _traced_server(database, pool_size=1) as server:
            with ServiceClient.from_address(server.address) as client:
                for text, params in statements:
                    try:
                        client.execute(text, params)
                    except ServiceError:
                        pass
            records = _records_for({text for text, _p in statements},
                                   len(statements))
        summary = WAITS.summary()
    finally:
        WAITS.disable()
        WAITS.reset()
    assert len(records) == len(statements)
    assert any(r.cached for r in records)  # a hit queues nowhere
    for stage, event in (("net.recv", NET_RECV), ("queue.wait", SERVICE_QUEUE),
                         ("net.send", NET_SEND)):
        total = 0.0
        for record in records:
            total += record.stage_seconds.get(stage, 0.0)
        assert total == summary[event]["seconds"], stage


def test_a_deadline_shed_keeps_its_queue_wait(database, fresh_recorder):
    """A request shed at pickup spent its whole life in the queue: its
    record carries the ``queue.wait`` stage, so the view's
    ``queue_seconds`` is not NULL on it, and it is filed as a deadline
    shed while the client still gets ``overloaded``."""
    from repro.errors import ServiceOverloadedError

    sql = f"SELECT COUNT(*) FROM edges WHERE gid > {len(new_trace_id())}"
    with _traced_server(database, deadline=1e-9) as server:
        with ServiceClient.from_address(server.address) as client:
            with pytest.raises(ServiceOverloadedError):
                client.execute(sql)
        (record,) = _records_for({sql}, 1)
    assert record.outcome == "shed_deadline" and record.shed
    assert record.stage_seconds["queue.wait"] > 0.0
    (row,) = database.execute(
        "SELECT outcome, queue_seconds FROM jackpine_requests "
        "WHERE trace_id = ?", (record.trace_id,)
    ).rows
    assert row == ("shed_deadline", record.stage_seconds["queue.wait"])


# ---------------------------------------------------------------------------
# compatibility: old clients, untraced servers
# ---------------------------------------------------------------------------


def _small_database():
    db = Database("greenwood")
    db.execute("CREATE TABLE spots (gid INTEGER, geom GEOMETRY)")
    for gid in range(4):
        db.execute("INSERT INTO spots VALUES (?, ST_Point(?, ?))",
                   (gid, gid, gid))
    return db


def test_traced_and_untraced_servers_answer_alike():
    """One request sequence — miss, hit, stale after a write, bypass
    inside ``BEGIN``, an SQL error — gets the same replies and leaves
    the same cache counters whether the server traces or not."""
    count = "SELECT COUNT(*) FROM spots WHERE gid >= ?"
    sequence = [
        (count, (0,)),                                     # miss
        (count, (0,)),                                     # hit
        ("INSERT INTO spots VALUES (9, ST_Point(9, 9))", ()),
        (count, (0,)),                                     # stale
        ("BEGIN", ()),
        (count, (1,)),                                     # bypass
        ("COMMIT", ()),
        ("SELECT nothing FROM spots", ()),                 # sql error
        (count, (1,)),                                     # miss
    ]
    replies, stats = {}, {}
    for trace in (False, True):
        RECORDER.reset()
        with JackpineServer(_small_database(), ServerConfig(
            pool_size=2, trace=trace,
        )) as server:
            with ServiceClient.from_address(server.address) as client:
                replies[trace] = []
                for sql, params in sequence:
                    try:
                        result = client.execute(sql, params)
                    except ServiceError as exc:
                        replies[trace].append((exc.code, str(exc)))
                    else:
                        replies[trace].append((result.rows, result.cached))
            stats[trace] = server.cache.stats()
    RECORDER.reset()
    assert replies[True] == replies[False] == [
        ([(4,)], False), ([(4,)], True), ([], False), ([(5,)], False),
        ([], False), ([(4,)], False), ([], False),
        ("sql", "unknown column 'nothing'"), ([(4,)], False),
    ]
    assert stats[True] == stats[False]
    assert (stats[False]["hits"], stats[False]["invalidations"],
            stats[False]["bypass"]) == (1, 1, 4)


def test_contextless_old_client_still_works_and_is_traced(database,
                                                          fresh_recorder):
    with _traced_server(database) as server:
        client = ServiceClient.from_address(server.address, trace=False)
        try:
            result = client.execute("SELECT COUNT(*) FROM counties")
        finally:
            client.close()
        # the wire request carried no trace field; the server minted a
        # context so the request is still diagnosable server-side
        assert result.trace_id is not None
        record = _recorded(result.trace_id)
        assert record is not None
        assert record.sent_at is None
        assert record.root.op == "service.request"  # no client span


def test_traced_client_against_untraced_server(database, fresh_recorder):
    before = RECORDER.stats()["total"]
    with JackpineServer(database, ServerConfig(pool_size=2)) as server:
        client = ServiceClient.from_address(server.address)  # trace=True
        try:
            result = client.execute("SELECT COUNT(*) FROM counties")
        finally:
            client.close()
    # the server ignored the additive field entirely: no echo, no record
    assert result.trace_id is None
    assert RECORDER.stats()["total"] == before


def test_untraced_server_stats_have_no_requests_key(database,
                                                    fresh_recorder):
    with JackpineServer(database, ServerConfig(pool_size=2)) as server:
        client = ServiceClient.from_address(server.address)
        try:
            stats = client.server_stats()
        finally:
            client.close()
    assert "requests" not in stats


# ---------------------------------------------------------------------------
# 16 concurrent clients: complete, correctly-parented, uncontaminated
# ---------------------------------------------------------------------------


def test_trace_trees_complete_under_16_concurrent_clients(database,
                                                          fresh_recorder):
    tables = ["counties", "edges", "pointlm", "arealm"]
    results = {}
    failures = []

    def statement(slot: int, i: int) -> str:
        # distinct literal per (slot, i), so a record's sql names the
        # client that sent it; the ? lets a warm-up teach the server the
        # text without filling the entry the traced request then misses
        table = tables[(slot + i) % len(tables)]
        return (f"SELECT COUNT(*) FROM {table} "
                f"WHERE gid > {slot * 1000 + i} AND gid > ?")

    def body(slot: int) -> None:
        try:
            client = ServiceClient.from_address(server.address,
                                                timeout=30.0)
            try:
                mine = []
                for i in range(4):
                    sql = statement(slot, i)
                    result = client.execute(sql, (0,))
                    mine.append((result.trace_id, sql))
                results[slot] = mine
            finally:
                client.close()
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    with _traced_server(database, pool_size=4, max_queue=128,
                        deadline=30.0) as server:
        with ServiceClient.from_address(server.address) as warm:
            for slot in range(16):
                for i in range(4):
                    warm.execute(statement(slot, i), (-1,))
        threads = [threading.Thread(target=body, args=(slot,))
                   for slot in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert not failures, failures
    assert len(results) == 16
    for slot, mine in results.items():
        for trace_id, sql in mine:
            record = _recorded(trace_id)
            assert record is not None, f"client {slot} lost {trace_id}"
            # no cross-thread contamination: the record's sql is the one
            # this client sent under this trace id
            assert record.sql == sql
            assert record.outcome == "ok"
            assert record.retained
            root = record.root
            assert root.op == "client.request"
            (request,) = root.children
            ops = [child.op for child in request.children]
            assert ops == MISS_STAGES, f"client {slot} {trace_id}: {ops}"
            execute = request.children[ops.index("execute")]
            assert execute.children, (
                f"client {slot} {trace_id}: executor trace missing"
            )
            # the executor statement under this trace is the same sql
            statement_detail = execute.children[0]
            spans = [s for _d, s in statement_detail.walk()]
            assert spans, "non-empty statement subtree"


# ---------------------------------------------------------------------------
# satellite: Net/Service wait attribution for --server workloads
# ---------------------------------------------------------------------------


def test_server_workload_attributes_net_and_service_waits(database):
    from repro.workload.driver import WorkloadConfig, run_workload

    WAITS.enable()
    WAITS.reset()
    try:
        with JackpineServer(database, ServerConfig(pool_size=2)) as server:
            config = WorkloadConfig(
                clients=4, duration=0.6, mix="browse", mode="open",
                rate=10.0, seed=3, scale=0.05, waits=True,
                server=server.address,
            )
            report = run_workload(config)
    finally:
        WAITS.disable()
    attribution = report.attribution
    assert attribution is not None, \
        "--server --waits must produce a decomposition"
    summary = attribution.summary
    for event in (NET_RECV, NET_SEND, SERVICE_QUEUE):
        assert event in summary, f"{event} missing from {sorted(summary)}"
        assert summary[event]["count"] > 0
    assert attribution.busy_seconds == pytest.approx(
        report.wall_seconds * 2, rel=0.01
    )
    # and the decomposition reaches the telemetry document
    document = report.telemetry_document()
    assert "waits" in document
    assert NET_RECV in document["waits"]["events"]


def test_server_workload_config_rejects_storage_not_waits():
    from repro.workload.driver import WorkloadConfig

    WorkloadConfig(server="127.0.0.1:1", waits=True).validate()
    with pytest.raises(ValueError):
        WorkloadConfig(server="127.0.0.1:1", storage_dir="/tmp/x").validate()


# ---------------------------------------------------------------------------
# disabled-path discipline
# ---------------------------------------------------------------------------


def test_recorder_reset_and_stop_preserve_readability(database,
                                                      fresh_recorder):
    server = _traced_server(database)
    server.start()
    client = ServiceClient.from_address(server.address)
    try:
        result = client.execute("SELECT COUNT(*) FROM counties")
    finally:
        client.close()
        server.stop()
    # records survive the server that produced them (post-mortem reads)
    assert _recorded(result.trace_id) is not None
    assert not RECORDER.enabled


def test_untraced_server_never_touches_the_recorder(database,
                                                    fresh_recorder,
                                                    monkeypatch):
    def explode(*_a, **_k):  # pragma: no cover - must not be called
        raise AssertionError("recorder touched on the untraced path")

    for entry_point in ("begin", "finish", "bind"):
        monkeypatch.setattr(RECORDER, entry_point, explode)
    with JackpineServer(database, ServerConfig(pool_size=2)) as server:
        client = ServiceClient.from_address(server.address)
        try:
            result = client.execute("SELECT COUNT(*) FROM counties")
        finally:
            client.close()
    assert result.rows
