"""Command-line interface: ``jackpine run`` / ``jackpine explain``.

Examples::

    jackpine run --engines greenwood bluestem --scale 0.5 --suite micro
    jackpine run --suite macro --scenarios geocoding toxic_spill
    jackpine explain --engine greenwood \
        "SELECT COUNT(*) FROM edges WHERE ST_Intersects(geom, ST_MakeEnvelope(0,0,1000,1000))"
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core import BenchmarkConfig, Jackpine, render_full
from repro.core.experiments import EXPERIMENTS, document, render
from repro.core.report import (
    render_loading,
    render_macro,
    render_micro_analysis,
    render_micro_topology,
)
from repro.datagen import generate
from repro.engines import ENGINE_NAMES, Database
from repro.obs.telemetry import write_document


def _readers(option: str) -> str:
    """The experiments that read ``option``, for its help text."""
    return ", ".join(
        key for key, entry in EXPERIMENTS.items() if option in entry.options
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jackpine",
        description="Jackpine spatial database benchmark (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run benchmark suites")
    run.add_argument(
        "--engines", nargs="+", default=list(ENGINE_NAMES),
        choices=list(ENGINE_NAMES),
    )
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--scale", type=float, default=1.0)
    run.add_argument("--repeats", type=int, default=3)
    run.add_argument("--warmups", type=int, default=1)
    run.add_argument(
        "--suite",
        choices=["all", "micro", "macro", "loading"],
        default="all",
    )
    run.add_argument("--scenarios", nargs="*", default=None)
    run.add_argument(
        "--no-index", action="store_true",
        help="skip CREATE SPATIAL INDEX (index-effect experiments)",
    )
    run.add_argument(
        "--out", default=None, metavar="DIR",
        help="also export every figure's data series as CSV into DIR",
    )
    run.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="write structured per-query JSON telemetry artifacts "
             "(percentiles + operator breakdowns) into DIR",
    )
    run.add_argument(
        "--details", action="store_true",
        help="with --suite macro: print per-step timings",
    )
    run.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-query deadline; a query that trips it is reported "
             "with outcome 'timeout' instead of failing the run",
    )
    run.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retries per query for transient faults "
             "(exponential backoff with full jitter)",
    )

    explain = sub.add_parser("explain", help="show a query plan")
    explain.add_argument("--engine", default="greenwood",
                         choices=list(ENGINE_NAMES))
    explain.add_argument("--seed", type=int, default=42)
    explain.add_argument("--scale", type=float, default=0.5)
    explain.add_argument(
        "--analyze", action="store_true",
        help="execute the query and report per-operator rows, times "
             "and counters (EXPLAIN ANALYZE)",
    )
    explain.add_argument("sql")

    stats = sub.add_parser(
        "stats", help="run a probe workload and print the metrics registry"
    )
    stats.add_argument("--engine", default="greenwood",
                       choices=list(ENGINE_NAMES))
    stats.add_argument("--seed", type=int, default=42)
    stats.add_argument("--scale", type=float, default=0.1)
    stats.add_argument(
        "--sql", action="append", default=None, metavar="STMT",
        help="statement(s) to run instead of the default probe workload "
             "(repeatable)",
    )
    stats.add_argument(
        "--waits", action="store_true",
        help="also record wait events and print the per-event summary",
    )
    stats.add_argument(
        "--statements", action="store_true",
        help="record per-statement fingerprint aggregates and print the "
             "pg_stat_statements-style table (plus any plan flips)",
    )
    stats.add_argument(
        "--storage", default=None, metavar="DIR",
        help="attach durable storage in DIR and print the buffer-pool / "
             "write-ahead-log counters after the probe workload",
    )
    stats.add_argument(
        "--reset", action="store_true",
        help="zero every counter family first (metrics registries, wait "
             "events, statement store, engine counters)",
    )
    stats.add_argument(
        "--json", action="store_true",
        help="emit the full counter set (metrics, resilience counters, "
             "waits, statements, storage) as one machine-readable JSON "
             "document on stdout instead of human tables",
    )

    experiment = sub.add_parser(
        "experiment", help="run one of the standalone experiments"
    )
    experiment.add_argument(
        "which", choices=list(EXPERIMENTS),
        help=", ".join(f"{key}={entry.title}"
                       for key, entry in EXPERIMENTS.items()),
    )
    experiment.add_argument("--seed", type=int, default=42)
    experiment.add_argument("--scale", type=float, default=0.25)
    experiment.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="write the experiment's telemetry JSON document into DIR",
    )
    experiment.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help=f"seconds per load phase ({_readers('duration')}; "
             f"default 2.0, CI uses less)",
    )
    experiment.add_argument(
        "--distribution", choices=["uniform", "clustered"],
        default="uniform",
        help=f"landmark placement ({_readers('distribution')}; "
             f"clustered = urban skew)",
    )
    experiment.add_argument(
        "--waits", action="store_true",
        help=f"record wait events and append the wall-time "
             f"decomposition per client count ({_readers('waits')})",
    )

    checkpoint = sub.add_parser(
        "checkpoint",
        help="open a durable storage directory (running crash recovery "
             "if it was not shut down cleanly), take a checkpoint, and "
             "report what was flushed and truncated",
    )
    checkpoint.add_argument(
        "directory", metavar="DIR",
        help="storage directory (wal.log + pages.db); reopened under the "
             "profile its WAL header records",
    )

    serve = sub.add_parser(
        "serve",
        help="run the query service: a TCP server over one embedded "
             "engine (session pool, admission control, result cache)",
    )
    serve.add_argument("--engine", default="greenwood",
                       choices=list(ENGINE_NAMES))
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = let the kernel pick; the bound port is "
             "printed on startup)",
    )
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--scale", type=float, default=0.25)
    serve.add_argument(
        "--pool", type=int, default=4, metavar="N",
        help="engine sessions in the pool (bounds concurrent execution)",
    )
    serve.add_argument(
        "--queue", type=int, default=32, metavar="N",
        help="admission queue limit; requests beyond it are shed with a "
             "typed 'overloaded' response",
    )
    serve.add_argument(
        "--deadline", type=float, default=1.0, metavar="SECONDS",
        help="per-request deadline (queue wait + execution)",
    )
    serve.add_argument(
        "--cache-capacity", type=int, default=256, metavar="N",
        help="result-cache entries (0 disables the cache)",
    )
    serve.add_argument(
        "--idle-timeout", type=float, default=30.0, metavar="SECONDS",
        help="idle pooled sessions older than this are reaped",
    )
    serve.add_argument(
        "--waits", action="store_true",
        help="record wait events (Net:Recv/Net:Send/Service:QueueWait) "
             "while serving",
    )
    serve.add_argument(
        "--trace", action="store_true",
        help="end-to-end request tracing: every request gets a compact "
             "flight-recorder record, and slow/errored/shed requests "
             "keep their full linked span tree (jackpine_requests view, "
             "'jackpine trace' command)",
    )
    serve.add_argument(
        "--slow-ms", type=float, default=100.0, metavar="MS",
        help="with --trace: tail-sampling threshold — requests at or "
             "above this keep their full trace (default 100)",
    )
    serve.add_argument(
        "--slow-log", default=None, metavar="PATH",
        help="with --trace: append one JSON line per tail-sampled "
             "request to PATH (size-rotated, survives process exit)",
    )
    serve.add_argument(
        "--slow-log-max-bytes", type=int, default=4 * 1024 * 1024,
        metavar="N",
        help="rotate the slow log past this size (one .1 backup kept)",
    )

    trace = sub.add_parser(
        "trace",
        help="inspect flight-recorder request traces: list tail-sampled "
             "requests, or dump one trace as Chrome-trace JSON "
             "(chrome://tracing / Perfetto)",
    )
    trace.add_argument(
        "trace_id", nargs="?", default=None,
        help="trace id to dump (omit to list buffered requests)",
    )
    trace.add_argument(
        "--server", default=None, metavar="HOST:PORT",
        help="read records from a running traced server over the wire",
    )
    trace.add_argument(
        "--slow-log", default=None, metavar="PATH",
        help="read records from a slow-log file written by "
             "'jackpine serve --trace --slow-log PATH'",
    )
    trace.add_argument(
        "-o", "--out", default=None, metavar="FILE",
        help="write the Chrome-trace JSON to FILE "
             "(default: <trace_id>.trace.json)",
    )

    workload = sub.add_parser(
        "workload",
        help="drive N concurrent clients against one engine "
             "(MVCC transactions, commit/abort accounting)",
    )
    workload.add_argument("--engine", default="greenwood",
                          choices=list(ENGINE_NAMES))
    workload.add_argument("--clients", type=int, default=4)
    workload.add_argument(
        "--duration", type=float, default=2.0, metavar="SECONDS",
        help="how long each client issues operations",
    )
    workload.add_argument(
        "--mix", choices=["read_only", "mixed", "browse"], default="mixed",
        help="read_only=map-search reads (J-X2 style), "
             "mixed=80/20 read/write transactions (J-X4 style), "
             "browse=skewed map-browsing reads (cache-friendly, J-X6)",
    )
    workload.add_argument(
        "--mode", choices=["closed", "open"], default="closed",
        help="closed=saturation loop, open=fixed arrival rate",
    )
    workload.add_argument(
        "--rate", type=float, default=8.0, metavar="OPS_PER_SEC",
        help="open loop: operation arrivals per second per client",
    )
    workload.add_argument("--seed", type=int, default=42)
    workload.add_argument("--scale", type=float, default=0.25)
    workload.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="write the workload telemetry JSON artifact into DIR "
             "(same schema family as 'jackpine run --telemetry')",
    )
    workload.add_argument(
        "--waits", action="store_true",
        help="record wait events + ASH samples; print the wall-time "
             "decomposition and hottest rows, and export both in the "
             "telemetry artifact. With --server: diff the serve "
             "process's wait summary (Net:Recv/Net:Send/"
             "Service:QueueWait) around the round instead — the server "
             "must be running with --waits",
    )
    workload.add_argument(
        "--statements", action="store_true",
        help="record per-statement fingerprint aggregates and export the "
             "additive 'statements' telemetry section",
    )
    workload.add_argument(
        "--storage", default=None, metavar="DIR",
        help="attach durable storage (write-ahead log + heap pages) in "
             "DIR; every committed write survives a crash",
    )
    workload.add_argument(
        "--checkpoint-interval", type=float, default=0.0,
        metavar="SECONDS",
        help="with --storage: run a background checkpointer at this "
             "period (0 = no background checkpoints)",
    )
    workload.add_argument(
        "--server", default=None, metavar="HOST:PORT",
        help="drive a running 'jackpine serve' process instead of the "
             "embedded engine (open-loop asyncio client fleet)",
    )

    top = sub.add_parser(
        "top",
        help="live active-session view (pg_stat_activity style) over a "
             "workload driven in the background",
    )
    top.add_argument("--engine", default="greenwood",
                     choices=list(ENGINE_NAMES))
    top.add_argument("--clients", type=int, default=4)
    top.add_argument(
        "--duration", type=float, default=5.0, metavar="SECONDS",
        help="how long the background workload runs",
    )
    top.add_argument(
        "--mix", choices=["read_only", "mixed"], default="mixed",
    )
    top.add_argument("--seed", type=int, default=42)
    top.add_argument("--scale", type=float, default=0.25)
    top.add_argument(
        "--refresh", type=float, default=0.5, metavar="SECONDS",
        help="screen refresh period",
    )
    top.add_argument(
        "--plain", action="store_true",
        help="print each frame instead of redrawing in place "
             "(for logs, pipes and tests)",
    )

    bench = sub.add_parser(
        "bench",
        help="record or compare the benchmark trajectory "
             "(median join latencies + J-X4 abort rates over time)",
    )
    bench.add_argument("--engine", default="greenwood",
                       choices=list(ENGINE_NAMES))
    bench.add_argument("--seed", type=int, default=42)
    bench.add_argument("--scale", type=float, default=0.1)
    bench.add_argument(
        "--record", default=None, metavar="FILE",
        help="append a dated trajectory record to FILE (created if absent)",
    )
    bench.add_argument(
        "--compare", default=None, metavar="BASELINE",
        help="compare a fresh measurement against the last record in "
             "BASELINE and print per-metric deltas",
    )
    bench.add_argument(
        "--threshold", type=float, default=0.25, metavar="FRACTION",
        help="with --compare: exit nonzero when any latency regresses "
             "by more than this fraction (default 0.25)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "experiment":
        return _run_experiment(args)
    if args.command == "explain":
        db = Database(args.engine)
        generate(seed=args.seed, scale=args.scale).load_into(db)
        if args.analyze:
            print(db.explain_analyze(args.sql))
        else:
            print(db.explain(args.sql))
        return 0
    if args.command == "stats":
        return _run_stats(args)
    if args.command == "checkpoint":
        return _run_checkpoint(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "workload":
        return _run_workload(args)
    if args.command == "top":
        return _run_top(args)
    if args.command == "bench":
        return _run_bench(args)

    return _run_suites(args)


#: default probe workload for ``jackpine stats`` — exercises scans,
#: index probes and a spatial join so every counter family moves
_STATS_PROBES = (
    "SELECT COUNT(*) FROM edges",
    "SELECT COUNT(*) FROM edges "
    "WHERE ST_Intersects(geom, ST_MakeEnvelope(10000, 10000, 40000, 40000))",
    "SELECT COUNT(*) FROM arealm a, areawater w "
    "WHERE ST_Overlaps(a.geom, w.geom)",
)


#: resilience counters shown by ``jackpine stats`` even at zero, so the
#: guardrail/fault machinery is visible before anything ever trips
_RESILIENCE_COUNTERS = (
    ("query_timeouts_total", "queries stopped by their deadline"),
    ("query_cancellations_total",
     "queries stopped by cooperative cancellation"),
    ("memory_budget_trips_total",
     "queries stopped by the row/byte memory budget"),
    ("degraded_results_total", "exact refinements degraded to MBR verdicts"),
    ("faults_fired_total", "injected faults that fired"),
    ("harness_retries_total",
     "transient-fault retries spent by the benchmark harness"),
    ("txn_commits_total", "transactions committed"),
    ("txn_aborts_total", "transactions rolled back"),
    ("txn_conflicts_total",
     "write-write conflicts lost (first-updater-wins)"),
)


def _run_experiment(args) -> int:
    """``jackpine experiment ID``: run one registry entry with the options
    it reads, print its table, optionally write its telemetry."""
    options = {
        name: getattr(args, name)
        for name in EXPERIMENTS[args.which].options
        if getattr(args, name) is not None
    }
    result = EXPERIMENTS[args.which].run(**options)
    print(render(args.which, result))
    if args.telemetry:
        path = write_document(
            document(args.which, result, options), args.telemetry,
            f"experiment_{args.which}.json",
        )
        print(f"wrote {path}")
    return 0


def _run_checkpoint(args) -> int:
    """``jackpine checkpoint DIR``: reopen (recovering if necessary),
    checkpoint, report, close."""
    db = Database.open(args.directory)
    try:
        recovery = getattr(db, "recovery_report", None)
        if recovery is not None:
            print(recovery.describe())
        print(db.checkpoint().describe())
    finally:
        db.close()
    return 0


def _run_stats(args) -> int:
    db = Database(args.engine)
    generate(seed=args.seed, scale=args.scale).load_into(db)
    if args.storage:
        db.attach_storage(args.storage)
    if args.reset:
        from repro.obs.metrics import GLOBAL
        from repro.obs.waits import WAITS

        GLOBAL.reset()
        db.obs.metrics.reset()
        db.obs.statements.reset()
        db.stats.reset()
        WAITS.reset()
        print("-- counters reset (metrics, waits, statements, engine) --")
    db.obs.enable_tracing()
    if args.statements:
        db.obs.enable_statements()
    if args.waits:
        from repro.obs.waits import WAITS

        WAITS.enable()
        WAITS.reset()
    for name, help_text in _RESILIENCE_COUNTERS:
        db.obs.metrics.counter(name, help_text)
    as_json = bool(getattr(args, "json", False))
    probes = []
    for sql in args.sql or _STATS_PROBES:
        db.execute(sql)
        trace = db.last_trace()
        probes.append({
            "sql": sql,
            "seconds": trace.seconds,
            "rows": trace.rows,
            "counters": dict(trace.counters),
        })
        if not as_json:
            deltas = ", ".join(
                f"{k}={v}" for k, v in sorted(trace.counters.items())
            )
            print(f"-- {sql}")
            print(f"   {trace.seconds * 1e3:.2f}ms, {trace.rows} rows"
                  + (f", {deltas}" if deltas else ""))
    if not as_json:
        print()
        print(db.obs.metrics.render(), end="")
    # degradation/fault/retry counters live on the process-wide registry
    # (they can fire outside any one connection's scope)
    from repro.obs.metrics import GLOBAL

    resilience = {
        name: GLOBAL.counter(name, help_text).value
        for name, help_text in _RESILIENCE_COUNTERS
    }
    if not as_json:
        print()
        print("-- process-wide resilience counters")
        for name, _help_text in _RESILIENCE_COUNTERS:
            print(f"jackpine_{name} {resilience[name]}")
    hist = db.txn.lock_wait_histogram()
    lock_waits = {"count": hist.count}
    if hist.count:
        lock_waits.update(sum=hist.sum, p95=hist.p95)
    if not as_json:
        print(f"jackpine_txn_lock_wait_seconds_count {hist.count}")
        if hist.count:
            print(f"jackpine_txn_lock_wait_seconds_sum {hist.sum:.6f}")
            print(f"jackpine_txn_lock_wait_seconds_p95 {hist.p95:.6f}")
    waits_summary = None
    if args.waits:
        from repro.obs.waits import WAITS

        waits_summary = WAITS.summary()
        if not as_json:
            print()
            print("-- wait events (count, seconds, p95)")
            if not waits_summary:
                print("(none recorded)")
            for event, entry in sorted(waits_summary.items()):
                p95 = entry.get("p95")
                p95_text = (
                    f" p95={p95 * 1e3:.3f}ms" if p95 is not None else ""
                )
                print(
                    f"{event:<28s} count={entry['count']:<7d} "
                    f"seconds={entry['seconds']:.6f}{p95_text}"
                )
        WAITS.disable()
    statements_export = None
    if args.statements:
        statements_export = db.obs.statements.export()
        if not as_json:
            print()
            print(db.obs.statements.render())
        db.obs.disable_statements()
    storage_stats = None
    if db.durability is not None:
        storage_stats = db.durability.stats()
        if not as_json:
            print()
            print("-- durable storage (heap pages + write-ahead log)")
            for name, value in sorted(storage_stats.items()):
                if isinstance(value, float):
                    print(f"jackpine_storage_{name} {value:.4f}")
                else:
                    print(f"jackpine_storage_{name} {value}")
        db.close()
    if as_json:
        import json

        document = {
            "engine": args.engine,
            "seed": args.seed,
            "scale": args.scale,
            "probes": probes,
            "metrics": db.obs.metrics.snapshot(),
            "resilience": resilience,
            "lock_waits": lock_waits,
        }
        if waits_summary is not None:
            document["waits"] = waits_summary
        if statements_export is not None:
            document["statements"] = statements_export
        if storage_stats is not None:
            document["storage"] = storage_stats
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def _run_serve(args) -> int:
    """``jackpine serve``: load the dataset, start the query service,
    and block until interrupted (the sidecar for ``workload --server``)."""
    from repro.service import JackpineServer, ServerConfig

    print(f"loading {args.engine} at scale {args.scale} ...")
    db = Database(args.engine)
    generate(seed=args.seed, scale=args.scale).load_into(db)
    if args.waits:
        from repro.obs.waits import WAITS

        WAITS.enable()
        WAITS.reset()
    server = JackpineServer(db, ServerConfig(
        host=args.host,
        port=args.port,
        pool_size=args.pool,
        max_queue=args.queue,
        deadline=args.deadline,
        cache_capacity=args.cache_capacity,
        idle_timeout=args.idle_timeout,
        trace=args.trace,
        trace_slow_ms=args.slow_ms,
        slow_log=args.slow_log,
        slow_log_max_bytes=args.slow_log_max_bytes,
    ))
    server.start()
    trace_text = ""
    if args.trace:
        trace_text = f", tracing slow>={args.slow_ms:g}ms"
        if args.slow_log:
            trace_text += f" -> {args.slow_log}"
    print(f"jackpine service listening on {server.address} "
          f"(pool {args.pool}, queue {args.queue}, "
          f"deadline {args.deadline}s, "
          f"cache {args.cache_capacity or 'off'}{trace_text})", flush=True)
    try:
        import time as time_mod

        while True:
            time_mod.sleep(3600)
    except KeyboardInterrupt:
        print("\nshutting down ...")
    finally:
        server.stop()
        if args.waits:
            from repro.obs.waits import WAITS

            print("-- wait events (count, seconds)")
            for event, entry in sorted(WAITS.summary().items()):
                print(f"{event:<24s} count={entry['count']:<7d} "
                      f"seconds={entry['seconds']:.6f}")
            WAITS.disable()
    return 0


def _run_trace(args) -> int:
    """``jackpine trace``: list flight-recorder records, or dump one
    linked client+server trace as Chrome-trace JSON.

    Records come from a running traced server (``--server``, over the
    wire), a slow-log file (``--slow-log``), or — inside a process that
    hosted a traced server, e.g. tests — the in-process recorder."""
    import json

    from repro.obs.requests import (
        RECORDER,
        RequestRecord,
        chrome_trace,
        read_slow_log,
    )

    if args.server is not None:
        from repro.service import ServiceClient

        client = ServiceClient.from_address(args.server)
        try:
            if args.trace_id is None:
                briefs = client.trace_records()
                _print_trace_briefs(briefs)
                return 0
            payload = client.trace_record(args.trace_id)
        finally:
            client.close()
        record = (
            RequestRecord.from_dict(payload) if payload is not None else None
        )
    elif args.slow_log is not None:
        records = read_slow_log(args.slow_log)
        if args.trace_id is None:
            _print_trace_briefs([r.brief() for r in records])
            return 0
        record = next(
            (r for r in records if r.trace_id == args.trace_id), None
        )
    else:
        if args.trace_id is None:
            _print_trace_briefs([r.brief() for r in RECORDER.records()])
            return 0
        record = RECORDER.lookup(args.trace_id)
    if record is None:
        print(f"trace {args.trace_id} not found (evicted, never recorded, "
              f"or a different server)", file=sys.stderr)
        return 1
    if record.root is None:
        print(f"trace {record.trace_id} was not retained by the tail "
              f"sampler (outcome {record.outcome}, "
              f"{record.total_seconds * 1e3:.2f}ms) — only slow, errored, "
              f"shed or cache-stale requests keep their full span tree",
              file=sys.stderr)
        return 1
    path = args.out or f"{record.trace_id}.trace.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(record), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"{record.trace_id}: {record.outcome}, "
          f"{record.total_seconds * 1e3:.2f}ms, "
          f"{record.span_count()} spans "
          f"(clock skew {record.clock_skew_seconds * 1e3:.3f}ms)")
    print(f"wrote {path} (open in chrome://tracing or ui.perfetto.dev)")
    return 0


def _print_trace_briefs(briefs) -> None:
    if not briefs:
        print("(no requests recorded — serve with --trace and send load)")
        return
    print(f"{'trace_id':<22s} {'outcome':<14s} {'total':>10s} "
          f"{'kept':>4s}  sql")
    for brief in briefs:
        print(
            f"{brief['trace_id']:<22s} {brief['outcome']:<14s} "
            f"{brief['total_ms']:>8.2f}ms "
            f"{'yes' if brief['retained'] else 'no':>4s}  "
            f"{brief['sql']}"
        )


def _run_workload(args) -> int:
    from repro.workload import (
        WorkloadConfig,
        render_workload,
        run_workload,
        write_workload_telemetry,
    )

    config = WorkloadConfig(
        clients=args.clients,
        duration=args.duration,
        mix=args.mix,
        engine=args.engine,
        mode=args.mode,
        rate=args.rate,
        seed=args.seed,
        scale=args.scale,
        waits=args.waits,
        statements=args.statements,
        storage_dir=args.storage,
        checkpoint_interval=args.checkpoint_interval,
        server=args.server,
    )
    report = run_workload(config)
    print(render_workload(report))
    if args.telemetry:
        print(f"wrote {write_workload_telemetry(report, args.telemetry)}")
    return 0


def _run_top(args) -> int:
    """``jackpine top``: drive a workload on a background thread and
    live-render the active-session table from ASH snapshots.

    The engine is embedded (no server process to attach to), so the
    workload and the view share this process — exactly how the other
    experiments run, but with the monitor's ``pg_stat_activity`` view
    refreshed on screen while they do.
    """
    import threading
    import time as time_mod

    from repro.obs.ash import AshSampler, render_sessions
    from repro.obs.waits import WAITS, WaitAttribution
    from repro.workload import WorkloadConfig, run_workload

    config = WorkloadConfig(
        clients=args.clients,
        duration=args.duration,
        mix=args.mix,
        engine=args.engine,
        seed=args.seed,
        scale=args.scale,
    )
    config.validate()
    print(f"loading {args.engine} at scale {args.scale} ...")
    WAITS.enable()
    WAITS.reset()
    sampler = AshSampler(monitor=WAITS)
    sampler.start()
    reports = {}
    failures = []

    def drive() -> None:
        try:
            reports["report"] = run_workload(config)
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    worker = threading.Thread(target=drive, name="jackpine-top-workload",
                              daemon=True)
    worker.start()
    started = time_mod.perf_counter()
    try:
        while worker.is_alive():
            sessions = WAITS.active_sessions()
            elapsed = time_mod.perf_counter() - started
            frame = render_sessions(sessions, now_label=f"{elapsed:.1f}s")
            if args.plain:
                print(frame)
            else:
                # ANSI clear + home, then the frame — a live refresh
                print(f"\x1b[2J\x1b[H{frame}", flush=True)
            worker.join(timeout=args.refresh)
        worker.join()
    finally:
        sampler.stop()
        attribution = WaitAttribution.capture(
            WAITS, busy_seconds=args.duration * args.clients
        )
        WAITS.disable()
    if failures:
        raise failures[0]
    print()
    print(attribution.render(title="wall-time decomposition (all clients)"))
    states = sampler.wait_state_counts()
    if states:
        top_states = ", ".join(
            f"{state}={count}" for state, count in sorted(
                states.items(), key=lambda item: -item[1]
            )[:4]
        )
        print(f"ash: {len(sampler.samples())} samples   "
              f"top states: {top_states}")
    return 0


def _run_bench(args) -> int:
    from repro.core.trajectory import (
        collect_record,
        compare_against,
        record_to,
        render_comparison,
        render_record,
    )

    if not args.record and not args.compare:
        print("jackpine bench: pass --record FILE and/or --compare BASELINE",
              file=sys.stderr)
        return 2
    record = collect_record(
        engine=args.engine, seed=args.seed, scale=args.scale
    )
    print(render_record(record))
    status = 0
    if args.compare:
        comparison = compare_against(args.compare, record,
                                     threshold=args.threshold)
        print()
        print(render_comparison(comparison))
        if comparison.regressed:
            status = 1
    if args.record:
        path = record_to(args.record, record)
        print(f"\nrecorded to {path}")
    return status


def _run_suites(args) -> int:
    config = BenchmarkConfig(
        engines=args.engines,
        seed=args.seed,
        scale=args.scale,
        repeats=args.repeats,
        warmups=args.warmups,
        scenarios=args.scenarios,
        with_indexes=not args.no_index,
        timeout=args.timeout,
        retries=args.retries,
    )
    bench = Jackpine(config)
    if args.suite == "all":
        result = bench.run()
        print(render_full(result))
        if args.out:
            from repro.core.figures import export_all

            for path in export_all(result, args.out):
                print(f"wrote {path}")
        _write_telemetry(result, args.telemetry)
        return 0

    from repro.core.benchmark import BenchmarkResult, EngineRun

    result = BenchmarkResult(config=config,
                             dataset_rows=bench.dataset.total_rows())
    for engine in config.engines:
        run = EngineRun(engine=engine)
        if args.suite == "loading":
            run.loading = bench.run_loading(engine)
        elif args.suite == "micro":
            run.micro = bench.run_micro(engine)
        elif args.suite == "macro":
            run.macro = bench.run_macro(engine)
        result.runs[engine] = run
    if args.suite == "loading":
        print(render_loading(result))
    elif args.suite == "micro":
        print(render_micro_topology(result))
        print()
        print(render_micro_analysis(result))
    else:
        print(render_macro(result))
        if args.details:
            from repro.core.report import render_macro_details

            print()
            print(render_macro_details(result))
    _write_telemetry(result, args.telemetry)
    return 0


def _write_telemetry(result, out_dir) -> None:
    if not out_dir:
        return
    from repro.obs import telemetry

    for path in telemetry.write_artifacts(result, out_dir):
        print(f"wrote {path}")


if __name__ == "__main__":
    sys.exit(main())
