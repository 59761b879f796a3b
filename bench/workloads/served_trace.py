"""The traced run of ``served_browse``: the layer ladder and the service
layer's own numbers.

Depths, outside in, for one request: ``ServiceClient.execute`` on the
wire → ``CachedExecutor.execute`` on an embedded twin → ``Database
.execute`` on the twin → ``SpatialIndex.search`` and the predicate over
the candidates; beside them, the reply's WKT formatting and frame
encode/decode. The ladder runs on ONE connection so that the server and
the twin see the same requests in the same order and their caches agree
request by request; the loaded numbers come from a two-connection block
afterwards.
"""

import threading
import time

import probes as layer_probes
from harness import median, percentile
from workloads import streams

#: requests between two bursts of the reference loop in the ladder
CHUNK_OPS = 50
OPEN_LOOP_RATES = (500, 1000, 2000)
OPEN_LOOP_SECONDS = 1.5


def trace_served(wl, probes, tracer):
    from repro.dbapi import connect
    from repro.service import CachedExecutor, ResultCache

    dataset, twin = wl.twin()
    profile = twin.profile
    tables = layer_probes.LayerTables(dataset, profile.index_kind)
    executor = CachedExecutor(twin, ResultCache(256))
    session = connect(database=twin)
    client = wl.clients[0]

    def follow(ops):
        """What the server has seen, the twin sees: its result cache and
        its ``pointlm`` stay in step with the server's."""
        for kind, sql, params, _pool in ops:
            executor.execute(session, sql, params)
            if kind == "insert":
                wl.embedded_gids.add(params[0])

    follow(wl.pool)  # the twin now holds what the warm-up left cached
    stats_before = client.server_stats()

    # block 0, one connection, nothing traced: the ladder's reference
    untraced = wl.run_block(0, connections=1)
    follow(wl.stream(0)[0])

    # block 1, one connection: every request at every depth
    ops = wl.stream(1)[0]
    twin_before = twin.stats.snapshot()
    counts = ladder_block(wl, tracer, ops, client, executor, session, twin,
                          tables, profile)
    delta = layer_probes.stats_delta(twin.stats.snapshot(), twin_before)
    stats_single = client.server_stats()

    roundtrips = tracer.durations("service.roundtrip")
    engine = tracer.durations("sql.execute")
    refine = tracer.durations("algorithms.refine")
    selfs = tracer.self_times()
    cache = {
        key: stats_single["cache"][key] - stats_before["cache"][key]
        for key in ("hits", "misses", "fills", "invalidations")
    }
    probes.set({
        "service.roundtrip_self_us": (
            selfs["service.roundtrip"] / len(roundtrips) * 1e6
        ),
        "service.protocol_encode_us": median(
            tracer.durations("service.protocol_encode")) * 1e6,
        "service.protocol_decode_us": median(
            tracer.durations("service.protocol_decode")) * 1e6,
        "service.cache_hit_ratio": (
            cache["hits"] / max(cache["hits"] + cache["misses"], 1)
        ),
        "service.cache_fills": cache["fills"],
        "service.cache_invalidations": cache["invalidations"],
        "trace.cache_disagreements": counts["disagreements"],
        "engines.execute_us": sum(engine) / max(len(engine), 1) * 1e6,
        "engines.dml_us": median(tracer.durations("sql.dml")) * 1e6,
        "sql.exec_self_us": selfs.get("sql.execute", 0.0)
        / max(len(engine), 1) * 1e6,
        "algorithms.refine_calls": delta["index_candidates"],
        "algorithms.refine_us": (
            sum(refine) / max(counts["candidates"], 1) * 1e6
        ),
        "algorithms.share": sum(refine) / sum(roundtrips),
        "index.probes": delta["index_probes"],
        "index.candidates_per_result": (
            delta["index_candidates"] / max(counts["results"], 1)
        ),
    })
    probes.run(
        ("sql.plan_cache_hit_ratio", "sql.rows_scanned_per_result"),
        lambda: layer_probes.sql_ratios(delta, counts["results"]),
    )
    statements = sorted({op[1] for op in ops})
    probes.run(("sql.parse_us", "sql.plan_us"),
               lambda: layer_probes.sql_front_end(twin, statements))
    probes.run(("geometry.wkt_format_us", "geometry.wkt_parse_us"),
               lambda: layer_probes.wkt_round_trip(tables))
    windows = [op[2] for op in ops if op[0].endswith("_window")][:100]
    probes.run(("index.search_us", "index.join_us", "index.build_s"),
               lambda: layer_probes.index_direct(tables, windows))
    probes.run(("service.cache_lookup_us",), cache_lookup)
    probes.run(("service.ping_us",), lambda: ping(client))

    # block 2, two connections: what a loaded server answers
    probes.run(
        ("service.hit_p50_ms", "service.miss_p50_ms", "service.write_p50_ms",
         "service.op_p99_ms", "service.server_cpu_ms_per_op"),
        lambda: loaded_block(wl),
    )
    probes.run(
        tuple(f"service.open_r{rate}_p95_ms" for rate in OPEN_LOOP_RATES)
        + ("service.open_late_ms",),
        lambda: open_loop(wl),
    )
    admission = client.server_stats()["admission"]
    probes.set({
        "service.shed": (
            admission["shed_queue_full"] + admission["shed_deadline"]
        ),
        "service.queue_depth_max": admission["peak_queue"],
    })
    return untraced.wall / len(untraced.latency) * len(roundtrips)


def ladder_block(wl, tracer, ops, client, executor, session, twin, tables,
                 profile):
    """First every request on the wire, back to back as in an untraced
    block (a server left idle between requests answers the next one
    late); then the same requests, in the same order, at each depth on
    the twin, as children of the wire span of the same op."""
    from repro.service.protocol import decode_body, encode_frame, jsonable_rows

    counts = {"disagreements": 0, "candidates": 0, "results": 0}
    speed = wl.reference
    speed.mark()
    chunk_start = len(tracer.spans)
    wire = {}
    for n, (kind, sql, params, _pool) in enumerate(ops):
        wl.attempted += 1
        if n and n % CHUNK_OPS == 0:
            tracer.scale(chunk_start, speed.factor())
            chunk_start = len(tracer.spans)
        top = tracer.begin("service.roundtrip", None, n)
        try:
            reply = client.execute(sql, params)
        except Exception as exc:
            tracer.end(top)
            wl.fail(kind, f"{type(exc).__name__}: {exc}")
            continue
        tracer.end(top)
        wire[n] = (top, reply.cached)
        if kind == "insert":
            wl.inserted.append(params)
    tracer.scale(chunk_start, speed.factor())

    chunk_start = len(tracer.spans)
    for n, (kind, sql, params, _pool) in enumerate(ops):
        if n and n % CHUNK_OPS == 0:
            tracer.scale(chunk_start, speed.factor())
            chunk_start = len(tracer.spans)
        if n not in wire:
            continue
        top, served_from_cache = wire[n]
        if kind == "insert":
            tracer.call("sql.dml", top, n, executor.execute, session, sql,
                        params)
            wl.embedded_gids.add(params[0])
            continue
        (columns, rows, rowcount, cached), mid, _s = tracer.call(
            "service.cache", top, n, executor.execute, session, sql, params
        )
        if cached != served_from_cache:
            counts["disagreements"] += 1
        geometries = [v for row in rows for v in row
                      if callable(getattr(v, "wkt", None))]
        tracer.call("geometry.wkt_format", top, n,
                    lambda: [g.wkt() for g in geometries])
        message = {
            "ok": True, "id": n, "columns": list(columns),
            "rows": jsonable_rows(rows), "rowcount": rowcount,
            "cached": cached,
        }
        frame, _sid, _s = tracer.call(
            "service.protocol_encode", top, n, encode_frame, message
        )
        tracer.call("service.protocol_decode", top, n, decode_body, frame[4:])
        if cached:
            continue
        _rows, engine, _s = tracer.call(
            "sql.execute", mid, n, twin.execute, sql, params
        )
        if kind == "county_point":
            counts["results"] += rows[0][0]
            counts["candidates"] += layer_probes.replay_point(
                tracer, engine, n, tables, profile, "counties",
                "st_contains", *params,
            )
        else:
            counts["results"] += len(rows)
            counts["candidates"] += layer_probes.replay_window(
                tracer, engine, n, tables, profile,
                kind[:-len("_window")], "st_intersects", params,
            )
    tracer.scale(chunk_start, speed.factor())
    return counts


def loaded_block(wl):
    before = wl.child.usage()
    block = wl.run_block(2)
    after = wl.child.usage()
    reads = [(s, c) for s, c, k in zip(block.latency, block.cached, block.kind)
             if k != "insert" and c is not None]
    hits = [s for s, c in reads if c]
    misses = [s for s, c in reads if not c]
    writes = [s for s, k in zip(block.latency, block.kind) if k == "insert"]
    return {
        "service.hit_p50_ms": median(hits) * 1e3,
        "service.miss_p50_ms": median(misses) * 1e3,
        "service.write_p50_ms": median(writes) * 1e3,
        "service.op_p99_ms": percentile(block.latency, 0.99) * 1e3,
        "service.server_cpu_ms_per_op": (
            (after["cpu_s"] - before["cpu_s"]) / len(block.latency) * 1e3
        ),
    }


def ping(client, count=500):
    start = time.perf_counter()
    for _ in range(count):
        client.ping()
    return {"service.ping_us": (time.perf_counter() - start) / count * 1e6}


def cache_lookup(entries=200, repeat=20):
    """``ResultCache.lookup`` on a private cache: half hits, half misses."""
    from repro.service import ResultCache

    cache = ResultCache(256)
    marks = (1,)
    keys = [("SELECT ?", (i,)) for i in range(entries)]
    for key in keys[::2]:
        cache.store(key, ["c"], [(1,)], 1, marks)
    start = time.perf_counter()
    for _ in range(repeat):
        for key in keys:
            cache.lookup(key, marks)
    seconds = time.perf_counter() - start
    return {"service.cache_lookup_us": seconds / (entries * repeat) * 1e6}


def open_loop(wl):
    """A short open-loop ladder: requests are due on a fixed schedule
    whatever the server does, latency counts from the due time, and how
    late the generator itself sent is reported. Informational: timer
    wake-ups on a small shared host vary too much to gate on."""
    values = {}
    late = []
    for step, rate in enumerate(OPEN_LOOP_RATES):
        count = int(rate * OPEN_LOOP_SECONDS)
        ops = streams.browse_stream(
            wl.options.seed, 10 + step, 0, count, wl.pool
        )
        latency = [None] * count
        begin = time.perf_counter() + 0.05

        def drive(connection, first):
            client = wl.clients[connection]
            for i in range(first, count, len(wl.clients)):
                due = begin + i / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                kind, sql, params, _pool = ops[i]
                try:
                    client.execute(sql, params)
                except Exception as exc:
                    wl.fail(kind, f"{type(exc).__name__}: {exc}")
                    continue
                if kind == "insert":
                    wl.inserted.append(params)
                latency[i] = time.perf_counter() - due
                late.append(max(sent - due, 0.0))

        threads = [threading.Thread(target=drive, args=(c, c))
                   for c in range(len(wl.clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wl.attempted += count
        done = [s for s in latency if s is not None]
        values[f"service.open_r{rate}_p95_ms"] = percentile(done, 0.95) * 1e3
    values["service.open_late_ms"] = percentile(late, 0.95) * 1e3
    return values
