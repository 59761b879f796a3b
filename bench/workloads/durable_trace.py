"""The traced run of ``durable_mixed``: the layer ladder and the storage
layer's own numbers.

Reads: DB-API cursor → ``Database.execute`` → index search and predicate.
Writes: the same transaction on the attached database and on a detached
twin (no storage); the difference is what durability costs, and inside
the twin's transaction the statement is timed apart from ``BEGIN`` and
``COMMIT``. With one client and no timers the WAL and page counts of the
fixed first block repeat exactly.
"""

import os
import shutil
import time

import probes as layer_probes
from harness import DATA_SEED, load_database, median, percentile

RECOVERY_COPIES = 5
#: ops between two bursts of the reference loop in the ladder
CHUNK_OPS = 25


def trace_durable(wl, probes, tracer):
    from repro.datagen import generate
    from repro.dbapi import connect

    attached = wl.db
    dataset = generate(seed=DATA_SEED, scale=wl.scale)
    twin = load_database(dataset, "greenwood")
    twin_connection = connect(database=twin)
    wl._run(wl._ops(-1, wl.block_ops // 5), twin_connection, model=False)
    tables = layer_probes.LayerTables(dataset, twin.profile.index_kind)

    # block 0, nothing traced: the reference, and the exact counters
    ops = wl.stream(0)
    storage_before = attached.durability.stats()
    engine_before = attached.stats.snapshot()
    untraced = wl.run_block(0)
    storage = layer_probes.stats_delta(
        {k: v for k, v in attached.durability.stats().items()
         if isinstance(v, int) and not isinstance(v, bool)},
        storage_before,
    )
    delta = layer_probes.stats_delta(attached.stats.snapshot(), engine_before)
    wl._run(ops, twin_connection, model=False)
    by_kind = untraced.by_kind()
    writes = [s for kind, seconds in by_kind.items()
              if not wl.is_read(kind) for s in seconds]
    reads = sum(len(s) for kind, s in by_kind.items() if wl.is_read(kind))
    probes.set({
        "storage.write_p50_ms": median(writes) * 1e3,
        "storage.write_p99_ms": percentile(writes, 0.99) * 1e3,
        "storage.wal_records": storage["wal_records"],
        "storage.wal_bytes": storage["wal_bytes"],
        "storage.wal_syncs": storage["wal_syncs"],
        "storage.pages_written": storage["pages_written"],
        "storage.buffer_evictions": storage["buffer_evictions"],
        "storage.buffer_hit_ratio": (
            storage["buffer_hits"]
            / max(storage["buffer_hits"] + storage["buffer_misses"], 1)
        ),
        "storage.wal_bytes_per_write": storage["wal_bytes"] / len(writes),
        "index.probes": delta["index_probes"],
        "algorithms.refine_calls": delta["index_candidates"],
    })
    probes.run(
        ("sql.plan_cache_hit_ratio", "sql.rows_scanned_per_result"),
        lambda: layer_probes.sql_ratios(delta, reads + len(writes)),
    )

    # block 1: every op at every depth
    counts = ladder_block(wl, tracer, wl.stream(1), attached, twin,
                          twin_connection, tables)
    selfs = tracer.self_times()
    cursor_spans = tracer.durations("dbapi.cursor")
    engine = tracer.durations("sql.execute")
    durable = tracer.durations("storage.durable_txn")
    refine = tracer.durations("algorithms.refine")
    probes.set({
        "dbapi.self_us": selfs["dbapi.cursor"] / len(cursor_spans) * 1e6,
        "engines.execute_us": sum(engine) / len(engine) * 1e6,
        "engines.dml_us": median(tracer.durations("sql.dml")) * 1e6,
        "sql.exec_self_us": selfs["sql.execute"] / len(engine) * 1e6,
        "storage.wal_self_us": (
            selfs["storage.durable_txn"] / len(durable) * 1e6
        ),
        "txn.write_self_us": selfs["txn.detached_txn"] / len(durable) * 1e6,
        "txn.aborts": counts["aborts"] + len(untraced.failed),
        "algorithms.refine_us": sum(refine) / max(counts["candidates"], 1) * 1e6,
        "algorithms.share": sum(refine) / tracer.top_level_seconds(),
        "index.candidates_per_result": (
            counts["candidates"] / max(counts["results"], 1)
        ),
    })
    probes.run(("txn.begin_commit_us",),
               lambda: layer_probes.empty_transactions(twin_connection))
    statements = sorted({op[1] for op in ops})
    probes.run(("sql.parse_us", "sql.plan_us"),
               lambda: layer_probes.sql_front_end(twin, statements))
    probes.run(("geometry.wkt_format_us", "geometry.wkt_parse_us"),
               lambda: layer_probes.wkt_round_trip(tables))
    windows = [op[2] for op in ops if op[0].endswith("_window")][:100]
    probes.run(("index.search_us", "index.join_us", "index.build_s"),
               lambda: layer_probes.index_direct(tables, windows))

    # crash, then time recovery on copies of the crashed directory
    wl.finish(before_recovery=lambda: probes.run(
        ("storage.recovery_s", "storage.recover_analysis_s",
         "storage.recover_redo_s", "storage.recover_undo_s",
         "storage.recover_rebuild_s", "storage.checkpoint_s",
         "storage.checkpoint_pages", "storage.disk_bytes_per_user_byte"),
        lambda: recovery_probes(wl),
    ))
    per_op = untraced.wall / len(untraced.latency)
    return per_op * (len(cursor_spans) + len(durable))


def ladder_block(wl, tracer, ops, attached, twin, twin_connection, tables):
    profile = attached.profile
    connection = wl.connection
    cursor = connection.cursor()
    twin_cursor = twin_connection.cursor()
    counts = {"aborts": 0, "candidates": 0, "results": 0}

    def read(sql, params):
        cursor.execute(sql, params)
        return cursor.fetchall()

    speed = wl.reference
    speed.mark()
    chunk_start = len(tracer.spans)
    for n, (kind, sql, params, _pool) in enumerate(ops):
        wl.attempted += 1
        if n and n % CHUNK_OPS == 0:
            tracer.scale(chunk_start, speed.factor())
            chunk_start = len(tracer.spans)
        if wl.is_read(kind):
            rows, top, _s = tracer.call("dbapi.cursor", None, n, read, sql,
                                        params)
            _rows, engine, _s = tracer.call("sql.execute", top, n,
                                            attached.execute, sql, params)
            counts["results"] += rows[0][0]
            if kind == "county_point":
                counts["candidates"] += layer_probes.replay_point(
                    tracer, engine, n, tables, profile, "counties",
                    "st_contains", *params,
                )
            else:
                counts["candidates"] += layer_probes.replay_window(
                    tracer, engine, n, tables, profile,
                    kind[:-len("_window")], "st_intersects", params,
                )
            continue
        top = tracer.begin("storage.durable_txn", None, n)
        try:
            cursor.execute("BEGIN")
            cursor.execute(sql, params)
            connection.commit()
        except Exception as exc:
            tracer.end(top)
            counts["aborts"] += 1
            wl.fail(kind, f"{type(exc).__name__}: {exc}")
            continue
        tracer.end(top)
        wl.model.apply(kind, params)
        mid = tracer.begin("txn.detached_txn", top, n)
        twin_cursor.execute("BEGIN")
        tracer.call("sql.dml", mid, n, twin_cursor.execute, sql, params)
        twin_connection.commit()
        tracer.end(mid)
    tracer.scale(chunk_start, speed.factor())
    return counts


def directory_bytes(directory):
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
    )


def user_bytes(database, tables):
    """WKB plus attribute bytes of every live row."""
    total = 0
    for table in tables:
        for row in database.execute(f"SELECT * FROM {table}").rows:
            for value in row:
                wkb = getattr(value, "wkb", None)
                total += len(wkb() if callable(wkb) else str(value).encode())
    return total


def recovery_probes(wl):
    """``Database.open`` on copies of the crashed directory, then a
    checkpoint after a block of writes on one recovered copy."""
    from repro.dbapi import connect
    from repro.engines import Database

    from workloads.durable import BUFFER_PAGES

    totals, phases = [], {"analysis": [], "redo": [], "undo": [], "rebuild": []}
    values = {}
    for copy in range(RECOVERY_COPIES):
        target = f"{wl.directory}_copy{copy}"
        shutil.copytree(wl.directory, target)
        try:
            start = time.perf_counter()
            recovered = Database.open(target, buffer_pages=BUFFER_PAGES)
            totals.append(time.perf_counter() - start)
            try:
                report = recovered.recovery_report
                for phase in phases:
                    phases[phase].append(getattr(report, f"{phase}_seconds"))
                if copy == 0:
                    values["storage.disk_bytes_per_user_byte"] = (
                        directory_bytes(target)
                        / user_bytes(recovered, wl.tables)
                    )
                    connection = connect(database=recovered)
                    wl._run(wl.stream(2), connection, model=False)
                    start = time.perf_counter()
                    checkpoint = recovered.checkpoint()
                    values["storage.checkpoint_s"] = (
                        time.perf_counter() - start
                    )
                    values["storage.checkpoint_pages"] = (
                        checkpoint.pages_flushed
                    )
            finally:
                recovered.durability.close()
        finally:
            shutil.rmtree(target, ignore_errors=True)
    values["storage.recovery_s"] = median(totals)
    for phase, seconds in phases.items():
        values[f"storage.recover_{phase}_s"] = median(seconds)
    return values
