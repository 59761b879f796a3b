"""Concurrent workload driver: N client threads over DB-API connections.

This is the throughput harness the transaction subsystem exists for.
Each client gets its own :class:`~repro.dbapi.connection.Connection`
(hence its own session/transaction) against one shared
:class:`~repro.engines.Database`, replays operations from a
:mod:`~repro.workload.mixes` mix for a fixed duration, and records
per-client latency histograms plus commit/abort/retry counts. Lost
write-write conflicts surface as
:class:`~repro.errors.SerializationError`; the driver rolls back and
retries with the same full-jitter backoff the benchmark harness uses for
every other transient error.

Two loop disciplines:

- **closed** (default): each client issues its next operation as soon as
  the previous one finishes — classic saturation throughput.
- **open**: operations arrive on a fixed schedule (``rate`` per second
  per client) regardless of completions, the way real load does; when
  the engine falls behind, latency — not throughput — absorbs it.

The engines are pure Python, so the GIL serialises CPU work: aggregate
numbers measure contention behaviour and abort dynamics, not parallel
speedup (the J-X2/J-X4 reports say so).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.stats import backoff_delay
from repro.datagen import generate
from repro.dbapi import connect
from repro.engines import Database
from repro.errors import ReproError, SerializationError
from repro.obs.ash import AshSampler
from repro.obs.metrics import Histogram
from repro.obs.telemetry import SCHEMA, write_document
from repro.obs.waits import (
    CLIENT_BACKOFF,
    CLIENT_RETRY,
    WAITS,
    WaitAttribution,
)
from repro.workload.mixes import MIXES, Operation, get_mix


@dataclass
class WorkloadConfig:
    clients: int = 4
    duration: float = 2.0          # seconds per round
    mix: str = "mixed"             # one of repro.workload.mixes.MIXES
    engine: str = "greenwood"
    mode: str = "closed"           # "closed" | "open"
    rate: float = 8.0              # open loop: arrivals/sec per client
    seed: int = 42
    scale: float = 0.25
    max_retries: int = 5           # per operation, on SerializationError
    lock_timeout: float = 0.25     # row-lock wait budget (deadlock bound)
    waits: bool = False            # record wait events + ASH samples
    statements: bool = False       # record per-fingerprint statement stats
    storage_dir: Optional[str] = None  # attach durable storage (WAL+pages)
    checkpoint_interval: float = 0.0   # seconds between background
                                       # checkpoints (0 = none)
    #: drive a running query service at ``host:port`` instead of the
    #: embedded engine (open-loop asyncio fleet, see repro.service.loadgen)
    server: Optional[str] = None

    def validate(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.mix not in MIXES:
            raise ValueError(
                f"unknown mix {self.mix!r}; expected one of {MIXES}"
            )
        if self.mode not in ("closed", "open"):
            raise ValueError("mode must be 'closed' or 'open'")
        if self.mode == "open" and self.rate <= 0:
            raise ValueError("open-loop mode needs a positive rate")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        if self.checkpoint_interval and not self.storage_dir:
            raise ValueError(
                "checkpoint_interval needs storage_dir (nothing to "
                "checkpoint without durable storage)"
            )
        if self.server is not None:
            if ":" not in self.server:
                raise ValueError("server must be a host:port address")
            if self.storage_dir:
                raise ValueError(
                    "server mode drives a remote process: storage "
                    "instrumentation belongs to the serve side"
                )
            # --waits IS allowed with --server: the serve process exports
            # its wait summary through stats(), and the driver diffs it
            # around the round (Net:Recv / Net:Send / Service:QueueWait
            # show up in the attribution without shell access)


@dataclass
class ClientReport:
    """What one client thread did, with its own latency histogram."""

    client_id: int
    ops: int = 0          # operations finished (committed or given up)
    reads: int = 0
    writes: int = 0
    commits: int = 0      # committed write transactions
    aborts: int = 0       # serialization aborts (each one rolled back)
    retries: int = 0      # aborts that were retried (rest were given up)
    errors: int = 0       # non-transient ReproErrors (should stay 0)
    shed: int = 0         # server mode: requests shed by admission control
    timeouts: int = 0     # server mode: requests killed at the deadline
    cache_hits: int = 0   # server mode: responses served from the cache
    latency: Histogram = field(default_factory=lambda: Histogram(
        "workload_op_seconds", "per-operation latency for one client"
    ))


@dataclass
class WorkloadReport:
    config: WorkloadConfig
    wall_seconds: float
    clients: List[ClientReport]
    #: populated only when ``config.waits`` is set — the contention
    #: attribution over the whole round, the per-lock-key hot rows, and
    #: the ASH export (all absent from old telemetry readers' view)
    attribution: Optional[WaitAttribution] = None
    hottest_rows: List[Dict[str, Any]] = field(default_factory=list)
    ash: Optional[Dict[str, Any]] = None
    #: populated only when ``config.statements`` is set — the statement
    #: store export (fingerprint aggregates + plans + flips)
    statements: Optional[Dict[str, Any]] = None
    #: populated only when the round ran over durable storage — the
    #: storage counters (WAL records/bytes, buffer hit ratio, page I/O)
    #: plus checkpoints taken by the background checkpointer
    storage: Optional[Dict[str, Any]] = None
    checkpoints: int = 0
    #: populated only in server mode — the service's own pool/admission
    #: counters and the result-cache counters, read back after the round
    service: Optional[Dict[str, Any]] = None
    cache: Optional[Dict[str, Any]] = None
    #: populated only when the server ran with request tracing — the
    #: flight-recorder counters (total/retained/outcomes), read back
    #: after the round
    requests: Optional[Dict[str, Any]] = None

    def _total(self, name: str) -> int:
        return sum(getattr(report, name) for report in self.clients)

    @property
    def total_ops(self) -> int:
        return self._total("ops")

    @property
    def total_reads(self) -> int:
        return self._total("reads")

    @property
    def total_writes(self) -> int:
        return self._total("writes")

    @property
    def total_commits(self) -> int:
        return self._total("commits")

    @property
    def total_aborts(self) -> int:
        return self._total("aborts")

    @property
    def total_retries(self) -> int:
        return self._total("retries")

    @property
    def total_errors(self) -> int:
        return self._total("errors")

    @property
    def total_shed(self) -> int:
        return self._total("shed")

    @property
    def total_timeouts(self) -> int:
        return self._total("timeouts")

    @property
    def total_cache_hits(self) -> int:
        return self._total("cache_hits")

    @property
    def queries_per_minute(self) -> float:
        if not self.wall_seconds:
            return 0.0
        return 60.0 * self.total_ops / self.wall_seconds

    @property
    def abort_rate(self) -> float:
        """Aborted commit attempts over all commit attempts."""
        attempts = self.total_commits + self.total_aborts
        return self.total_aborts / attempts if attempts else 0.0

    def telemetry_document(self) -> Dict[str, Any]:
        """Same envelope schema as ``jackpine run --telemetry``."""
        config = self.config
        records: List[Dict[str, Any]] = []
        for report in self.clients:
            record: Dict[str, Any] = {
                "query_id": f"workload.client_{report.client_id}",
                "engine": config.engine,
                "suite": "workload",
                "supported": True,
                "ops": report.ops,
                "reads": report.reads,
                "writes": report.writes,
                "commits": report.commits,
                "aborts": report.aborts,
                "retries": report.retries,
                "errors": report.errors,
            }
            if self.service is not None:
                record["shed"] = report.shed
                record["timeouts"] = report.timeouts
                record["cache_hits"] = report.cache_hits
            if report.latency.count:
                record.update(
                    p50=report.latency.p50,
                    p95=report.latency.p95,
                    p99=report.latency.p99,
                    mean=report.latency.mean,
                    min=report.latency.min,
                    max=report.latency.max,
                )
            records.append(record)
        document: Dict[str, Any] = {
            "schema": SCHEMA,
            "engine": config.engine,
            "config": {
                "clients": config.clients,
                "duration": config.duration,
                "mix": config.mix,
                "mode": config.mode,
                "rate": config.rate,
                "seed": config.seed,
                "scale": config.scale,
                "max_retries": config.max_retries,
                "lock_timeout": config.lock_timeout,
                "storage_dir": config.storage_dir,
                "checkpoint_interval": config.checkpoint_interval,
                "server": config.server,
            },
            "wall_seconds": self.wall_seconds,
            "totals": {
                "ops": self.total_ops,
                "commits": self.total_commits,
                "aborts": self.total_aborts,
                "retries": self.total_retries,
                "errors": self.total_errors,
                "queries_per_minute": self.queries_per_minute,
                "abort_rate": self.abort_rate,
            },
            "records": records,
        }
        # additive sections: present only when the round ran with waits
        # on, so documents from older configs (and older readers) are
        # unchanged
        if self.attribution is not None:
            document["waits"] = self.attribution.as_dict()
            document["waits"]["hottest_rows"] = self.hottest_rows
        if self.ash is not None:
            document["ash"] = self.ash
        if self.statements is not None:
            document["statements"] = self.statements
        if self.storage is not None:
            document["storage"] = dict(
                self.storage, checkpoints_taken=self.checkpoints
            )
        if self.service is not None:
            document["service"] = dict(
                self.service,
                shed_total=self.total_shed,
                timeouts_total=self.total_timeouts,
            )
        if self.cache is not None:
            hits = self.cache.get("hits", 0)
            misses = self.cache.get("misses", 0)
            looked = hits + misses
            document["cache"] = dict(
                self.cache,
                hit_ratio=(hits / looked if looked else 0.0),
                client_observed_hits=self.total_cache_hits,
            )
        if self.requests is not None:
            document["requests"] = dict(self.requests)
        return document


def run_client_threads(
    database: Database,
    clients: int,
    body: Callable[[Any, ClientReport], None],
) -> "tuple[float, List[ClientReport]]":
    """Run ``body(connection, report)`` on ``clients`` threads, each with
    its own DB-API connection to the shared ``database``.

    A barrier lines every client up before the clock starts, so the wall
    time excludes connection setup. The first exception raised by any
    client is re-raised in the caller after all threads finish.
    """
    reports = [ClientReport(client_id=slot) for slot in range(clients)]
    barrier = threading.Barrier(clients + 1)
    failures: List[BaseException] = []

    def runner(slot: int) -> None:
        connection = connect(database=database)
        try:
            barrier.wait()
            body(connection, reports[slot])
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            failures.append(exc)
        finally:
            connection.close()

    threads = [
        threading.Thread(target=runner, args=(slot,), daemon=True)
        for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if failures:
        raise failures[0]
    return wall, reports


def _run_operation(
    cursor: Any,
    connection: Any,
    op: Operation,
    report: ClientReport,
    config: WorkloadConfig,
    rng: random.Random,
) -> None:
    """Execute one operation, retrying serialization aborts with backoff."""
    start = time.perf_counter()
    try:
        if op.kind == "read":
            for sql, params in op.statements:
                cursor.execute(sql, params)
                cursor.fetchall()
            report.reads += 1
        else:
            attempt = 0
            while True:
                try:
                    cursor.execute("BEGIN")
                    for sql, params in op.statements:
                        cursor.execute(sql, params)
                    connection.commit()
                    report.commits += 1
                    break
                except SerializationError:
                    # the engine already rolled the transaction back;
                    # rollback() here just clears any session residue.
                    # Client:Retry covers only the rollback itself (the
                    # failed attempt's lock/latch waits were already
                    # recorded by their own sites), Client:Backoff the
                    # sleep — the two are disjoint, so attribution never
                    # double-counts this path.
                    WAITS.timed(CLIENT_RETRY, connection.rollback)()
                    report.aborts += 1
                    if attempt >= config.max_retries:
                        break  # give up on this operation
                    report.retries += 1
                    database = getattr(connection, "database", None)
                    if database is not None and op.statements:
                        store = database.obs.statements
                        if store.enabled:
                            # charge the retry to the transaction's first
                            # statement: the fingerprint the flow is
                            # known by
                            store.record_retry(op.statements[0][0])
                    delay = backoff_delay(attempt, rng=rng)
                    WAITS.timed(CLIENT_BACKOFF, time.sleep)(delay)
                    attempt += 1
            report.writes += 1
    except ReproError:
        connection.rollback()
        report.errors += 1
    finally:
        report.ops += 1
        report.latency.observe(time.perf_counter() - start)


class _Checkpointer:
    """Background checkpoint loop for durable workload rounds.

    Fires every ``interval`` seconds while the clients run.  A
    checkpoint that fails (an injected fault, or a simulated crash
    mid-round) is counted as a failure but never kills the round — the
    crash-recovery experiments rely on the workload continuing so the
    WAL keeps growing past the failed checkpoint.
    """

    def __init__(self, database: Database, interval: float) -> None:
        self._db = database
        self._interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.taken = 0
        self.failed = 0

    def start(self) -> None:
        if not self._interval or self._db.durability is None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="jackpine-checkpointer", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._db.checkpoint()
                self.taken += 1
            except ReproError:
                self.failed += 1

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None


def run_workload(
    config: WorkloadConfig,
    database: Optional[Database] = None,
    dataset: Any = None,
) -> WorkloadReport:
    """Run one workload round and return the aggregated report.

    Pass ``database`` to reuse a loaded datastore across rounds (the
    client-count sweeps do); otherwise the synthetic TIGER dataset is
    generated and loaded first.

    With ``config.server`` set the round is delegated to the open-loop
    asyncio fleet in :mod:`repro.service.loadgen` against a running
    ``jackpine serve`` process; ``database``/``dataset`` are ignored (the
    data lives behind the server).
    """
    config.validate()
    if config.server is not None:
        from repro.service.loadgen import run_server_workload
        return run_server_workload(config)
    if database is None:
        if dataset is None:
            dataset = generate(seed=config.seed, scale=config.scale)
        database = Database(config.engine)
        dataset.load_into(database)
    if config.storage_dir and database.durability is None:
        database.attach_storage(config.storage_dir)
    database.txn.lock_timeout = config.lock_timeout
    mix = get_mix(config.mix, database, seed=config.seed)
    interval = (
        1.0 / config.rate if config.mode == "open" and config.rate > 0
        else 0.0
    )

    def body(connection: Any, report: ClientReport) -> None:
        rng = random.Random(
            (config.seed << 16) ^ (0x9E3779B1 * (report.client_id + 1))
        )
        cursor = connection.cursor()
        deadline = time.perf_counter() + config.duration
        next_arrival = time.perf_counter()
        while True:
            now = time.perf_counter()
            if now >= deadline:
                break
            if interval:
                if now < next_arrival:
                    time.sleep(min(next_arrival - now, deadline - now))
                    if time.perf_counter() >= deadline:
                        break
                next_arrival += interval
            op = mix.next_operation(rng, report.client_id)
            _run_operation(cursor, connection, op, report, config, rng)

    attribution: Optional[WaitAttribution] = None
    hottest: List[Dict[str, Any]] = []
    ash_export: Optional[Dict[str, Any]] = None
    statements_export: Optional[Dict[str, Any]] = None
    checkpointer = _Checkpointer(database, config.checkpoint_interval)
    if config.statements:
        database.obs.statements.reset()
        database.obs.enable_statements()
    checkpointer.start()
    try:
        if config.waits:
            WAITS.enable()
            WAITS.reset()
            sampler = AshSampler(monitor=WAITS)
            sampler.start()
            try:
                wall, reports = run_client_threads(
                    database, config.clients, body
                )
                # busy time is wall * clients: each client thread was
                # either on-CPU or in one of the wait classes for the
                # whole round
                attribution = WaitAttribution.capture(
                    WAITS, busy_seconds=wall * config.clients
                )
                hottest = WAITS.hottest_rows()
                ash_export = sampler.export()
            finally:
                sampler.stop()
                WAITS.disable()
        else:
            wall, reports = run_client_threads(
                database, config.clients, body
            )
    finally:
        checkpointer.stop()
        if config.statements:
            database.obs.disable_statements()
    if config.statements:
        statements_export = database.obs.statements.export()
    storage_export: Optional[Dict[str, Any]] = None
    if database.durability is not None:
        storage_export = database.durability.stats()
    return WorkloadReport(
        config=config,
        wall_seconds=wall,
        clients=reports,
        attribution=attribution,
        hottest_rows=hottest,
        ash=ash_export,
        statements=statements_export,
        storage=storage_export,
        checkpoints=checkpointer.taken,
    )


def render_workload(report: WorkloadReport) -> str:
    """Human-readable summary (the ``jackpine workload`` output)."""
    config = report.config
    target = (
        f"server {config.server}" if config.server is not None
        else config.engine
    )
    lines = [
        f"== workload: {config.mix} mix, {config.clients} clients, "
        f"{config.mode} loop on {target} ==",
        "(pure-Python engines: the GIL serialises CPU work, so this shows",
        " contention and abort dynamics, not parallel speedup)",
        f"wall: {report.wall_seconds:.2f}s   ops: {report.total_ops}   "
        f"agg q/min: {report.queries_per_minute:.0f}",
        f"commits: {report.total_commits}   aborts: {report.total_aborts} "
        f"(abort rate {report.abort_rate:.1%})   "
        f"retries: {report.total_retries}   errors: {report.total_errors}",
        f"{'client':>7s} {'ops':>6s} {'reads':>6s} {'writes':>7s} "
        f"{'p50':>9s} {'p95':>9s} {'p99':>9s}",
    ]
    for client in report.clients:
        hist = client.latency
        p50 = f"{hist.p50 * 1e3:8.2f}m" if hist.count else "      --"
        p95 = f"{hist.p95 * 1e3:8.2f}m" if hist.count else "      --"
        p99 = f"{hist.p99 * 1e3:8.2f}m" if hist.count else "      --"
        lines.append(
            f"{client.client_id:>7d} {client.ops:>6d} {client.reads:>6d} "
            f"{client.writes:>7d} {p50:>9s} {p95:>9s} {p99:>9s}"
        )
    if report.attribution is not None:
        lines.append("")
        lines.append(report.attribution.render(
            title=(
                "server wall-time decomposition (worker pool)"
                if config.server is not None
                else "wall-time decomposition (all clients)"
            )
        ))
    if report.ash is not None and report.ash.get("samples"):
        states = report.ash.get("wait_state_counts", {})
        top = ", ".join(
            f"{state}={count}"
            for state, count in sorted(
                states.items(), key=lambda item: -item[1]
            )[:4]
        )
        lines.append(
            f"ash: {len(report.ash['samples'])} samples over "
            f"{report.ash['sample_instants']} instants @ "
            f"{report.ash['interval'] * 1e3:.0f}ms   top states: {top}"
        )
    if report.statements is not None:
        fingerprints = report.statements.get("by_total_time", [])
        flips = report.statements.get("plan_flips_total", 0)
        lines.append(
            f"statements: {len(fingerprints)} fingerprint(s) recorded   "
            f"plan flips: {flips}"
        )
    if report.storage is not None:
        storage = report.storage
        lines.append(
            f"storage: wal {storage['wal_records']} records / "
            f"{storage['wal_bytes']} bytes, {storage['wal_syncs']} fsyncs   "
            f"buffer hit ratio {storage['buffer_hit_ratio']:.2%} "
            f"({storage['pages_read']} read, "
            f"{storage['pages_written']} written)   "
            f"checkpoints: {report.checkpoints}"
        )
    if report.service is not None:
        admission = report.service.get("admission", {})
        pool = report.service.get("pool", {})
        lines.append(
            f"service: shed {report.total_shed} "
            f"(queue_full {admission.get('shed_queue_full', 0)}, "
            f"deadline {admission.get('shed_deadline', 0)})   "
            f"timeouts: {report.total_timeouts}   "
            f"peak queue: {admission.get('peak_queue', 0)}/"
            f"{admission.get('queue_limit', 0)}   "
            f"workers: {pool.get('size', 0)}"
        )
    if report.cache is not None:
        hits = report.cache.get("hits", 0)
        misses = report.cache.get("misses", 0)
        looked = hits + misses
        ratio = hits / looked if looked else 0.0
        lines.append(
            f"cache: {hits} hits / {misses} misses "
            f"(hit ratio {ratio:.1%})   "
            f"invalidations: {report.cache.get('invalidations', 0)}   "
            f"entries: {report.cache.get('entries', 0)}"
        )
    if report.requests is not None:
        outcomes = report.requests.get("outcomes", {})
        worst = ", ".join(
            f"{name}={count}"
            for name, count in sorted(
                outcomes.items(), key=lambda item: -item[1]
            )[:4]
        )
        lines.append(
            f"requests: {report.requests.get('total', 0)} traced, "
            f"{report.requests.get('retained', 0)} retained "
            f"(slow >= {report.requests.get('slow_threshold_ms', 0):.0f}ms, "
            f"errored, shed, or stale-adjacent)   outcomes: {worst or '--'}"
            f"   inspect: SELECT * FROM jackpine_requests / jackpine trace"
        )
    return "\n".join(lines)


def write_workload_telemetry(report: WorkloadReport, out_dir: str) -> str:
    """Write ``telemetry_<engine>.json`` (same schema family as
    ``jackpine run --telemetry``); returns the path."""
    return write_document(
        report.telemetry_document(), out_dir,
        f"telemetry_{report.config.engine}.json",
    )
