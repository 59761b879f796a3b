"""Command-line interface: ``jackpine experiment`` / ``jackpine explain`` / ...

Examples::

    jackpine experiment jt1 --scale 0.5
    jackpine experiment jt4 --timeout 2.5 --retries 2
    jackpine explain --engine greenwood \
        "SELECT COUNT(*) FROM edges WHERE ST_Intersects(geom, ST_MakeEnvelope(0,0,1000,1000))"

Every subcommand is declared once, by the :func:`command` decorator on
its handler: name, help, options. :func:`build_parser` turns the table
into subparsers and :func:`main` dispatches with one lookup.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.experiments import EXPERIMENTS, document, render
from repro.datagen import generate
from repro.engines import ENGINE_NAMES, Database
from repro.obs.metrics import GLOBAL
from repro.obs.telemetry import write_document
from repro.obs.waits import WAITS

Option = Tuple[Tuple[str, ...], Dict[str, Any]]

#: name -> (help, options, handler), in ``jackpine --help`` order
_COMMANDS: Dict[str, Tuple[str, Tuple[Option, ...], Callable[..., int]]] = {}


def _arg(*flags: str, **spec: Any) -> Option:
    """One ``add_argument`` call, declared ahead of the parser."""
    return flags, spec


def _dataset(scale: float, engine: bool = True) -> List[Option]:
    """``[--engine] --seed --scale``: the options of every command that
    generates the synthetic dataset; ``scale`` is its default."""
    options = [
        _arg("--seed", type=int, default=42),
        _arg("--scale", type=float, default=scale),
    ]
    if engine:
        options.insert(0, _arg("--engine", default="greenwood",
                               choices=list(ENGINE_NAMES)))
    return options


def command(name: str, help_text: str, *options: Option):
    """Register the decorated handler as ``jackpine NAME``."""
    def register(handler: Callable[..., int]) -> Callable[..., int]:
        _COMMANDS[name] = (help_text, options, handler)
        return handler
    return register


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jackpine",
        description="Jackpine spatial database benchmark (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, handler) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        for flags, spec in options:
            subparser.add_argument(*flags, **spec)
        subparser.set_defaults(handler=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


def _load(args) -> Database:
    """A ``--engine`` database holding the ``--seed``/``--scale`` dataset."""
    db = Database(args.engine)
    generate(seed=args.seed, scale=args.scale).load_into(db)
    return db


def _config(cls, args, **overrides):
    """A ``cls`` dataclass from the parsed options named like its fields."""
    names = {field.name for field in dataclasses.fields(cls)}
    return cls(**{key: value for key, value in vars(args).items()
                  if key in names}, **overrides)


def _readers(option: str) -> str:
    """The experiments that read ``option``, for its help text."""
    return ", ".join(
        key for key, entry in EXPERIMENTS.items() if option in entry.options
    )


@command(
    "explain", "show a query plan",
    *_dataset(0.5),
    _arg("--analyze", action="store_true",
         help="execute the query and report per-operator rows, times "
              "and counters (EXPLAIN ANALYZE)"),
    _arg("sql"),
)
def _explain(args) -> int:
    db = _load(args)
    print(db.explain_analyze(args.sql) if args.analyze
          else db.explain(args.sql))
    return 0


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


@command(
    "stats", "run a probe workload and print the metrics registry",
    *_dataset(0.1),
    _arg("--sql", action="append", default=None, metavar="STMT",
         help="statement(s) to run instead of the default probe workload "
              "(repeatable)"),
    _arg("--waits", action="store_true",
         help="also record wait events and print the per-event summary"),
    _arg("--statements", action="store_true",
         help="record per-statement fingerprint aggregates and print the "
              "pg_stat_statements-style table (plus any plan flips)"),
    _arg("--storage", default=None, metavar="DIR",
         help="attach durable storage in DIR and print the page-cache / "
              "write-ahead-log counters after the probe workload"),
    _arg("--reset", action="store_true",
         help="zero every counter family first (metrics registries, wait "
              "events, statement store, engine counters)"),
    _arg("--json", action="store_true",
         help="emit the full counter set (metrics, resilience counters, "
              "waits, statements, storage) as one machine-readable JSON "
              "document on stdout instead of human tables"),
)
def _stats(args) -> int:
    db = _load(args)
    probes = _run_probes(db, args)
    # the registry as the probes left it: the lock-wait histogram (printed on
    # its own below) and the closing checkpoint register later
    exposition = db.obs.metrics.render()
    stats = _stats_document(db, args, probes)
    if args.json:
        json.dump(stats, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    if args.reset:
        print("-- counters reset (metrics, waits, statements, engine) --")
    for probe in stats["probes"]:
        deltas = ", ".join(
            f"{k}={v}" for k, v in sorted(probe["counters"].items())
        )
        print(f"-- {probe['sql']}")
        print(f"   {probe['seconds'] * 1e3:.2f}ms, {probe['rows']} rows"
              + (f", {deltas}" if deltas else ""))
    print()
    print(exposition, end="")
    print()
    print("-- process-wide resilience counters")
    _print_values("jackpine_", stats["resilience"])
    _print_values("jackpine_txn_lock_wait_seconds_", stats["lock_waits"])
    if "waits" in stats:
        print()
        print("-- wait events (count, seconds, p95)")
        if not stats["waits"]:
            print("(none recorded)")
        for event, entry in sorted(stats["waits"].items()):
            p95 = entry.get("p95")
            p95_text = f" p95={p95 * 1e3:.3f}ms" if p95 is not None else ""
            print(f"{event:<28s} count={entry['count']:<7d} "
                  f"seconds={entry['seconds']:.6f}{p95_text}")
    if "statements" in stats:
        print()
        print(db.obs.statements.render())
    if "storage" in stats:
        print()
        print("-- durable storage (heap pages + write-ahead log)")
        _print_values("jackpine_storage_", dict(sorted(
            stats["storage"].items())), digits=4)
    return 0


def _run_probes(db: Database, args) -> List[Dict[str, Any]]:
    """Switch on what ``stats`` reports, then run its probes."""
    if args.storage:
        db.attach_storage(args.storage)
    if args.reset:
        GLOBAL.reset()
        db.obs.metrics.reset()
        db.obs.statements.reset()
        db.stats.reset()
        WAITS.reset()
    db.obs.enable_tracing()
    if args.statements:
        db.obs.enable_statements()
    if args.waits:
        WAITS.enable()
        WAITS.reset()
    for name, help_text in _RESILIENCE_COUNTERS:
        db.obs.metrics.counter(name, help_text)
    probes = []
    for sql in args.sql or _STATS_PROBES:
        db.execute(sql)
        trace = db.last_trace()
        probes.append({"sql": sql, "seconds": trace.seconds,
                       "rows": trace.rows, "counters": dict(trace.counters)})
    return probes


def _stats_document(db: Database, args,
                    probes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Every counter family after the probes, JSON-able; switches the
    recorders off and closes attached storage."""
    hist = db.txn.lock_wait_histogram()
    stats: Dict[str, Any] = {
        "engine": args.engine,
        "seed": args.seed,
        "scale": args.scale,
        "probes": probes,
        # degradation/fault/retry counters live on the process-wide
        # registry (they can fire outside any one connection's scope)
        "resilience": {name: GLOBAL.counter(name, help_text).value
                       for name, help_text in _RESILIENCE_COUNTERS},
        "lock_waits": ({"count": hist.count, "sum": hist.sum,
                        "p95": hist.p95} if hist.count
                       else {"count": 0}),
    }
    if args.waits:
        stats["waits"] = WAITS.summary()
        WAITS.disable()
    if args.statements:
        stats["statements"] = db.obs.statements.export()
        db.obs.disable_statements()
    if db.durability.attached:
        stats["storage"] = db.durability.stats()
    db.close()
    stats["metrics"] = db.obs.metrics.snapshot()
    return stats


def _print_values(prefix: str, values: Dict[str, Any],
                  digits: int = 6) -> None:
    """One ``PREFIXname value`` exposition line per entry."""
    for name, value in values.items():
        text = f"{value:.{digits}f}" if isinstance(value, float) else value
        print(f"{prefix}{name} {text}")


@command(
    "experiment", "run one experiment: a paper table (jt1-jt4), a figure, "
    "an ablation or an extension",
    _arg("which", choices=list(EXPERIMENTS),
         help=", ".join(f"{key}={entry.title}"
                        for key, entry in EXPERIMENTS.items())),
    *_dataset(0.25, engine=False),
    _arg("--telemetry", default=None, metavar="DIR",
         help="write the experiment's telemetry JSON document into DIR"),
    _arg("--duration", type=float, default=None, metavar="SECONDS",
         help=f"seconds per load phase ({_readers('duration')}; "
              f"default 2.0, CI uses less)"),
    _arg("--distribution", choices=["uniform", "clustered"],
         default="uniform",
         help=f"landmark placement ({_readers('distribution')}; "
              f"clustered = urban skew)"),
    _arg("--waits", action="store_true",
         help=f"record wait events and append the wall-time "
              f"decomposition per client count ({_readers('waits')})"),
    _arg("--timeout", type=float, default=None, metavar="SECONDS",
         help=f"per-query deadline ({_readers('timeout')}); a query "
              f"that trips it is reported as 'timeout' in its cell"),
    _arg("--retries", type=int, default=None, metavar="N",
         help=f"retries per query for transient faults, with "
              f"full-jitter exponential backoff ({_readers('retries')})"),
)
def _experiment(args) -> int:
    """Run one registry entry with the options it reads, print its
    table, optionally write its telemetry. Exits 1, naming them, when
    any cell ended in ``error``."""
    entry = EXPERIMENTS[args.which]
    options = {
        name: getattr(args, name)
        for name in entry.options
        if getattr(args, name) is not None
    }
    result = entry.run(**options)
    print(render(args.which, result))
    if args.telemetry:
        path = write_document(
            document(args.which, result, options), args.telemetry,
            f"experiment_{args.which}.json",
        )
        print(f"wrote {path}")
    errors = [record for record in entry.records(result)
              if record.get("outcome") == "error"]
    for record in errors:
        print(f"{record['query_id']} on {record['variant']}: error: "
              f"{record['error']}", file=sys.stderr)
    return 1 if errors else 0


@command(
    "checkpoint",
    "open a durable storage directory (running crash recovery if it was "
    "not shut down cleanly), take a checkpoint, and report what was "
    "flushed and truncated",
    _arg("directory", metavar="DIR",
         help="storage directory (wal.log + pages.db); reopened under the "
              "profile its WAL header records"),
)
def _checkpoint(args) -> int:
    db = Database.open(args.directory)
    try:
        recovery = getattr(db, "recovery_report", None)
        if recovery is not None:
            print(recovery.describe())
        print(db.checkpoint().describe())
    finally:
        db.close()
    return 0


@command(
    "serve",
    "run the query service: a TCP server over one embedded engine "
    "(one session per connection, admission control, result cache)",
    *_dataset(0.25),
    _arg("--host", default="127.0.0.1"),
    _arg("--port", type=int, default=0,
         help="TCP port (0 = let the kernel pick; the bound port is "
              "printed on startup)"),
    _arg("--pool", dest="pool_size", type=int, default=4, metavar="N",
         help="worker threads (bounds concurrent execution)"),
    _arg("--queue", dest="max_queue", type=int, default=32, metavar="N",
         help="admission queue limit; requests beyond it are shed with a "
              "typed 'overloaded' response"),
    _arg("--deadline", type=float, default=1.0, metavar="SECONDS",
         help="per-request deadline (queue wait + execution)"),
    _arg("--cache-capacity", type=int, default=256, metavar="N",
         help="result-cache entries (0 disables the cache)"),
    _arg("--waits", action="store_true",
         help="record wait events (Net:Recv/Net:Send/Service:QueueWait) "
              "while serving"),
    _arg("--trace", action="store_true",
         help="end-to-end request tracing: every request gets a compact "
              "flight-recorder record, and slow/errored/shed requests "
              "keep their full linked span tree (jackpine_requests view, "
              "'jackpine trace' command)"),
    _arg("--slow-ms", dest="trace_slow_ms", type=float, default=100.0,
         metavar="MS",
         help="with --trace: tail-sampling threshold — requests at or "
              "above this keep their full trace (default 100)"),
    _arg("--slow-log", default=None, metavar="PATH",
         help="with --trace: append one JSON line per tail-sampled "
              "request to PATH (size-rotated, survives process exit)"),
    _arg("--slow-log-max-bytes", type=int, default=4 * 1024 * 1024,
         metavar="N",
         help="rotate the slow log past this size (one .1 backup kept)"),
)
def _serve(args) -> int:
    """Block until interrupted (the sidecar for ``workload --server``)."""
    from repro.service import JackpineServer, ServerConfig

    print(f"loading {args.engine} at scale {args.scale} ...")
    db = _load(args)
    if args.waits:
        WAITS.enable()
        WAITS.reset()
    server = JackpineServer(db, _config(ServerConfig, args))
    server.start()
    trace_text = ""
    if args.trace:
        trace_text = f", tracing slow>={args.trace_slow_ms:g}ms"
        if args.slow_log:
            trace_text += f" -> {args.slow_log}"
    print(f"jackpine service listening on {server.address} "
          f"(pool {args.pool_size}, queue {args.max_queue}, "
          f"deadline {args.deadline}s, "
          f"cache {args.cache_capacity or 'off'}{trace_text})", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\nshutting down ...")
    finally:
        server.stop()
        if args.waits:
            print("-- wait events (count, seconds)")
            for event, entry in sorted(WAITS.summary().items()):
                print(f"{event:<24s} count={entry['count']:<7d} "
                      f"seconds={entry['seconds']:.6f}")
            WAITS.disable()
    return 0


@command(
    "trace",
    "inspect flight-recorder request traces: list tail-sampled requests, "
    "or dump one trace as Chrome-trace JSON (chrome://tracing / Perfetto)",
    _arg("trace_id", nargs="?", default=None,
         help="trace id to dump (omit to list buffered requests)"),
    _arg("--server", default=None, metavar="HOST:PORT",
         help="read records from a running traced server over the wire"),
    _arg("--slow-log", default=None, metavar="PATH",
         help="read records from a slow-log file written by "
              "'jackpine serve --trace --slow-log PATH'"),
    _arg("-o", "--out", default=None, metavar="FILE",
         help="write the Chrome-trace JSON to FILE "
              "(default: <trace_id>.trace.json)"),
)
def _trace(args) -> int:
    """List flight-recorder records, or dump one linked client+server
    trace as Chrome-trace JSON.

    Records come from a running traced server (``--server``, over the
    wire), a slow-log file (``--slow-log``), or — inside a process that
    hosted a traced server, e.g. tests — the in-process recorder."""
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


@command(
    "workload",
    "drive N concurrent clients against one engine "
    "(MVCC transactions, commit/abort accounting)",
    *_dataset(0.25),
    _arg("--clients", type=int, default=4),
    _arg("--duration", type=float, default=2.0, metavar="SECONDS",
         help="how long each client issues operations"),
    _arg("--mix", choices=["read_only", "mixed", "browse"], default="mixed",
         help="read_only=map-search reads (J-X2 style), "
              "mixed=80/20 read/write transactions (J-X4 style), "
              "browse=skewed map-browsing reads (cache-friendly, J-X6)"),
    _arg("--mode", choices=["closed", "open"], default="closed",
         help="closed=saturation loop, open=fixed arrival rate"),
    _arg("--rate", type=float, default=8.0, metavar="OPS_PER_SEC",
         help="open loop: operation arrivals per second per client"),
    _arg("--telemetry", default=None, metavar="DIR",
         help="write the workload telemetry JSON artifact into DIR "
              "(same schema family as 'jackpine experiment --telemetry')"),
    _arg("--waits", action="store_true",
         help="record wait events; print the wall-time "
              "decomposition and hottest rows, and export both in the "
              "telemetry artifact. With --server: diff the serve "
              "process's wait summary (Net:Recv/Net:Send/"
              "Service:QueueWait) around the round instead — the server "
              "must be running with --waits"),
    _arg("--statements", action="store_true",
         help="record per-statement fingerprint aggregates and export the "
              "additive 'statements' telemetry section"),
    _arg("--storage", dest="storage_dir", default=None, metavar="DIR",
         help="attach durable storage (write-ahead log + heap pages) in "
              "DIR; every committed write survives a crash"),
    _arg("--checkpoint-interval", type=float, default=0.0,
         metavar="SECONDS",
         help="with --storage: run a background checkpointer at this "
              "period (0 = no background checkpoints)"),
    _arg("--server", default=None, metavar="HOST:PORT",
         help="drive a running 'jackpine serve' process instead of the "
              "embedded engine (open-loop asyncio client fleet)"),
)
def _workload(args) -> int:
    from repro.workload import (
        WorkloadConfig,
        render_workload,
        run_workload,
        write_workload_telemetry,
    )

    report = run_workload(_config(WorkloadConfig, args))
    print(render_workload(report))
    if args.telemetry:
        print(f"wrote {write_workload_telemetry(report, args.telemetry)}")
    return 0


def render_sessions(sessions: List[Dict[str, Any]],
                    now_label: str = "") -> str:
    """One ``jackpine top`` frame: the live active-session table."""
    header = "== jackpine top"
    if now_label:
        header += f" @ {now_label}"
    header += f" — {len(sessions)} active session(s) =="
    lines = [
        header,
        f"{'thread':>14s} {'sess':>5s} {'txid':>6s} {'state':<26s} "
        f"{'in state':>9s} {'rows':>8s}  statement",
    ]
    if not sessions:
        reason = "no activity" if WAITS.enabled else "wait monitor disabled"
        lines.append(f"(no active sessions — {reason})")
        return "\n".join(lines)
    for session in sessions:
        state = session["wait_event"] or "on CPU"
        in_state = (
            session["wait_seconds"] if session["wait_event"]
            else session["statement_seconds"]
        )
        sql = session["sql"] or ""
        if len(sql) > 48:
            sql = sql[:45] + "..."
        txid = session["txid"] if session["txid"] is not None else "-"
        sess = (
            session["session_id"] if session["session_id"] is not None
            else "-"
        )
        lines.append(
            f"{session['thread_id']:>14d} {str(sess):>5s} {str(txid):>6s} "
            f"{state:<26s} {in_state * 1e3:>8.1f}m "
            f"{session['rows_processed']:>8d}  {sql}"
        )
    return "\n".join(lines)


@command(
    "top",
    "live active-session view (pg_stat_activity style) over a workload "
    "driven in the background",
    *_dataset(0.25),
    _arg("--clients", type=int, default=4),
    _arg("--duration", type=float, default=5.0, metavar="SECONDS",
         help="how long the background workload runs"),
    _arg("--mix", choices=["read_only", "mixed"], default="mixed"),
    _arg("--refresh", type=float, default=0.5, metavar="SECONDS",
         help="screen refresh period"),
    _arg("--plain", action="store_true",
         help="print each frame instead of redrawing in place "
              "(for logs, pipes and tests)"),
)
def _top(args) -> int:
    """Run ``run_workload(waits=True)`` on a background thread and render
    the active-session table from the wait monitor while it does; the
    engine is embedded, so the workload and the view share this process.
    """
    from repro.workload import WorkloadConfig, run_workload
    from repro.workload.driver import wait_lines

    config = _config(WorkloadConfig, args, waits=True)
    config.validate()
    print(f"loading {args.engine} at scale {args.scale} ...")
    outcome: Dict[str, Any] = {}

    def drive() -> None:
        try:
            outcome["report"] = run_workload(config)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    worker = threading.Thread(target=drive, name="jackpine-top-workload",
                              daemon=True)
    worker.start()
    started = time.perf_counter()
    while worker.is_alive():
        frame = render_sessions(
            WAITS.active_sessions(),
            now_label=f"{time.perf_counter() - started:.1f}s",
        )
        # plain: one frame after another; else ANSI clear + home first
        print(frame if args.plain else f"\x1b[2J\x1b[H{frame}", flush=True)
        worker.join(timeout=args.refresh)
    if "error" in outcome:
        raise outcome["error"]
    print("\n".join(wait_lines(outcome["report"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
