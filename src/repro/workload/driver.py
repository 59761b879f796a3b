"""The workload client loop, and its thread pump over DB-API connections.

One generator, :func:`client_steps`, is the whole client: it replays
operations from a :mod:`~repro.workload.mixes` mix for a fixed
duration, wraps writes in ``BEGIN … COMMIT``, rolls back and retries a
lost write-write conflict (``serialization``) with the same full-jitter
backoff the benchmark harness uses for every other transient error,
classifies every other failure, and records per-client latency
histograms plus commit/abort/retry counts. It does no I/O: it yields
requests to a pump. :func:`drive_connection` is the pump for embedded
rounds — N client threads, each with its own
:class:`~repro.dbapi.connection.Connection` against one shared
:class:`~repro.engines.Database`; :mod:`repro.service.loadgen` pumps the
same generator over the wire with asyncio tasks.

Two loop disciplines:

- **closed** (default): each client issues its next operation as soon as
  the previous one finishes — classic saturation throughput.
- **open**: operations arrive on a fixed schedule (``rate`` per second
  per client) regardless of completions, the way real load does. The
  latency clock starts at the *scheduled* arrival, so when the engine
  falls behind, latency — not throughput — absorbs it.

The engines are pure Python, so the GIL serialises CPU work: aggregate
numbers measure contention behaviour and abort dynamics, not parallel
speedup (the J-X2/J-X4 reports say so).
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.stats import backoff_delay
from repro.datagen import generate
from repro.dbapi import connect
from repro.engines import Database
from repro.errors import ReproError
from repro.obs.metrics import Histogram
from repro.obs.telemetry import SCHEMA, write_document
from repro.obs.waits import (
    CLIENT_BACKOFF,
    CLIENT_RETRY,
    WAITS,
    WaitAttribution,
)
from repro.service.protocol import error_code
from repro.storage.durability import Checkpointer
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
    waits: bool = False            # record wait events (attribution)
    statements: bool = False       # record per-fingerprint statement stats
    storage_dir: Optional[str] = None  # attach durable storage (WAL+pages)
    checkpoint_interval: float = 0.0   # seconds between background
                                       # checkpoints (0 = none)
    #: drive a running query service at ``host:port`` instead of the
    #: embedded engine (asyncio client tasks, see repro.service.loadgen)
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
    """What one client did, with its own latency histogram.

    Every finished operation counts once in ``ops`` and once in ``reads``
    or ``writes`` by its kind, whatever its outcome, so ``reads + writes
    == ops`` on both transports. A failure other than a serialization
    abort ends its operation and counts once in ``shed``, ``timeouts``
    or ``errors``; a serialization abort counts in ``aborts``.
    """

    client_id: int
    ops: int = 0          # operations finished (committed, given up, failed)
    reads: int = 0        # read operations, failed ones included
    writes: int = 0       # write operations, failed ones included
    commits: int = 0      # committed write transactions
    aborts: int = 0       # serialization aborts (each one rolled back)
    retries: int = 0      # aborts that were retried (rest were given up)
    errors: int = 0       # failures coded sql / internal (should stay 0)
    shed: int = 0         # requests shed by admission control (served)
    timeouts: int = 0     # statements stopped by a deadline or guardrail
    cache_hits: int = 0   # served: responses from the result cache
    latency: Histogram = field(default_factory=lambda: Histogram(
        "workload_op_seconds", "per-operation latency for one client"
    ))


class _Total:
    """``WorkloadReport.total_<counter>``: one counter summed over the
    clients' reports."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.counter = name[len("total_"):]

    def __get__(self, report: Any, owner: type = None) -> Any:
        if report is None:
            return self
        return sum(getattr(client, self.counter) for client in report.clients)


@dataclass
class WorkloadReport:
    """One round: the clients' own reports, what the round recorded, and
    every number derived from them. Each consumer — the ``jackpine
    workload`` summary, the telemetry document, ``jackpine top`` and the
    J-X2/J-X4/J-X6 sweep points — reads the derived numbers here."""

    config: WorkloadConfig
    wall_seconds: float
    clients: List[ClientReport]
    #: populated only when ``config.waits`` is set — the contention
    #: attribution over the whole round (its hottest rows included)
    attribution: Optional[WaitAttribution] = None
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

    total_ops = _Total()
    total_reads = _Total()
    total_writes = _Total()
    total_commits = _Total()
    total_aborts = _Total()
    total_retries = _Total()
    total_errors = _Total()
    total_shed = _Total()
    total_timeouts = _Total()
    total_cache_hits = _Total()

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

    @property
    def completed(self) -> int:
        """Operations that were not shed, timed out or failed."""
        return (
            self.total_ops - self.total_shed - self.total_timeouts
            - self.total_errors
        )

    @property
    def latency(self) -> Histogram:
        """The clients' latency histograms merged (they share buckets)."""
        merged = Histogram("workload_op_seconds",
                           "per-operation latency, all clients")
        for client in self.clients:
            hist = client.latency
            merged.counts = [a + b for a, b in zip(merged.counts, hist.counts)]
            merged.count += hist.count
            merged.sum += hist.sum
            merged.min = min(merged.min, hist.min)
            merged.max = max(merged.max, hist.max)
        return merged

    @property
    def admission(self) -> Dict[str, Any]:
        """The server's admission counters (empty for an embedded round)."""
        return (self.service or {}).get("admission", {})

    @property
    def cache_hit_ratio(self) -> float:
        """Result-cache hits over lookups on the server (0.0 without one)."""
        cache = self.cache or {}
        hits = cache.get("hits", 0)
        looked = hits + cache.get("misses", 0)
        return hits / looked if looked else 0.0

    @property
    def totals(self) -> Dict[str, Any]:
        """The round's totals, as the telemetry document carries them."""
        return {
            "ops": self.total_ops,
            "commits": self.total_commits,
            "aborts": self.total_aborts,
            "retries": self.total_retries,
            "errors": self.total_errors,
            "queries_per_minute": self.queries_per_minute,
            "abort_rate": self.abort_rate,
        }

    def telemetry_document(self) -> Dict[str, Any]:
        """Same envelope schema as ``jackpine experiment --telemetry``."""
        config = self.config
        counters = ("ops", "reads", "writes", "commits", "aborts",
                    "retries", "errors")
        if self.service is not None:
            counters += ("shed", "timeouts", "cache_hits")
        records: List[Dict[str, Any]] = []
        for report in self.clients:
            record: Dict[str, Any] = {
                "query_id": f"workload.client_{report.client_id}",
                "engine": config.engine,
                "suite": "workload",
                "supported": True,
            }
            record.update((name, getattr(report, name)) for name in counters)
            if report.latency.count:
                record.update(
                    (name, getattr(report.latency, name))
                    for name in ("p50", "p95", "p99", "mean", "min", "max")
                )
            records.append(record)
        document: Dict[str, Any] = {
            "schema": SCHEMA,
            "engine": config.engine,
            # every config field but the engine (top level) and the
            # recording switches (their sections say whether they ran)
            "config": {
                name: value for name, value in asdict(config).items()
                if name not in ("engine", "waits", "statements")
            },
            "wall_seconds": self.wall_seconds,
            "totals": self.totals,
            "records": records,
        }
        # additive sections: present only when the round ran with waits
        # on, so documents from older configs (and older readers) are
        # unchanged
        if self.attribution is not None:
            document["waits"] = self.attribution.as_dict()
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
            document["cache"] = dict(
                self.cache,
                hit_ratio=self.cache_hit_ratio,
                client_observed_hits=self.total_cache_hits,
            )
        if self.requests is not None:
            document["requests"] = dict(self.requests)
        return document


# -- the client loop ----------------------------------------------------------
#
# One generator per client holds every decision: the schedule, the
# operation stream, the write transaction with its serialization retry,
# failure classification and the latency observation. It does no I/O:
# it yields requests and a pump (threads over a DB-API connection here,
# asyncio tasks over a wire channel in repro.service.loadgen) carries
# them out.

#: ``(EXECUTE, sql, params)`` -> ``(error_code | None, cached)``
EXECUTE = "execute"
#: ``(ROLLBACK, error_code)`` after a failed write attempt -> ``None``
ROLLBACK = "rollback"
#: ``(BACKOFF, seconds, sql)`` before retrying the write whose first
#: statement is ``sql`` -> ``None``
BACKOFF = "backoff"
#: ``(SLEEP, seconds)`` until the next scheduled arrival -> ``None``
SLEEP = "sleep"


def _execute(sql: str, params: tuple, report: ClientReport):
    code, cached = yield (EXECUTE, sql, params)
    if cached:
        report.cache_hits += 1
    if code == "overloaded":
        report.shed += 1
    elif code == "timeout":
        report.timeouts += 1
    elif code not in (None, "serialization"):
        report.errors += 1
    return code


def operation_steps(
    op: Operation, config: WorkloadConfig, report: ClientReport,
    rng: random.Random,
):
    """One operation's requests. A read stops at its first failure; a
    write runs ``BEGIN … COMMIT``, rolls back any failure and retries a
    serialization abort up to ``config.max_retries`` times."""
    if op.kind == "read":
        report.reads += 1
        for sql, params in op.statements:
            if (yield from _execute(sql, params, report)) is not None:
                return
        return
    report.writes += 1
    statements = (("BEGIN", ()),) + op.statements + (("COMMIT", ()),)
    for attempt in itertools.count():
        for sql, params in statements:
            code = yield from _execute(sql, params, report)
            if code is not None:
                break
        else:
            report.commits += 1
            return
        yield (ROLLBACK, code)
        if code != "serialization":
            return
        report.aborts += 1
        if attempt >= config.max_retries:
            return  # give up on this operation
        report.retries += 1
        yield (BACKOFF, backoff_delay(attempt, rng=rng), op.statements[0][0])


def client_steps(mix: Any, config: WorkloadConfig, report: ClientReport):
    """One client's whole round: ``config.duration`` seconds of
    operations from ``mix``, closed loop or on the open-loop schedule."""
    rng = random.Random(
        (config.seed << 16) ^ (0x9E3779B1 * (report.client_id + 1))
    )
    interval = 1.0 / config.rate if config.mode == "open" else 0.0
    now = arrival = time.perf_counter()
    deadline = now + config.duration
    while now < deadline:
        if interval:
            if now < arrival:
                yield (SLEEP, min(arrival, deadline) - now)
                if time.perf_counter() >= deadline:
                    break
            # the latency clock starts at the *scheduled* arrival: time
            # spent behind the schedule is delay the client saw, not
            # load it may omit (coordinated omission)
            started = arrival
            arrival += interval
        else:
            started = now
        op = mix.next_operation(rng, report.client_id)
        yield from operation_steps(op, config, report, rng)
        now = time.perf_counter()
        report.ops += 1
        report.latency.observe(now - started)


def drive_connection(steps: Any, connection: Any) -> None:
    """The thread pump: carry out a client loop's requests on one DB-API
    connection, mapping a :class:`ReproError` to its wire error code."""
    cursor = connection.cursor()
    outcome = None
    while True:
        try:
            request = steps.send(outcome)
        except StopIteration:
            return
        outcome = None
        kind = request[0]
        if kind == EXECUTE:
            try:
                cursor.execute(request[1], request[2])
                cursor.fetchall()
                outcome = (None, False)
            except ReproError as exc:
                outcome = (error_code(exc), False)
        elif kind == ROLLBACK:
            if request[1] == "serialization":
                # the engine already rolled the transaction back;
                # rollback() here just clears any session residue.
                # Client:Retry covers only the rollback itself (the
                # failed attempt's lock/latch waits were already
                # recorded by their own sites), Client:Backoff the
                # sleep — the two are disjoint, so attribution never
                # double-counts this path.
                WAITS.timed(CLIENT_RETRY, connection.rollback)()
            else:
                connection.rollback()
        elif kind == BACKOFF:
            database = getattr(connection, "database", None)
            if database is not None and database.obs.statements.enabled:
                # charge the retry to the transaction's first statement:
                # the fingerprint the flow is known by
                database.obs.statements.record_retry(request[2])
            WAITS.timed(CLIENT_BACKOFF, time.sleep)(request[1])
        else:
            time.sleep(request[1])


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
    if config.storage_dir and not database.durability.attached:
        database.attach_storage(config.storage_dir)
    database.txn.lock_timeout = config.lock_timeout
    mix = get_mix(config.mix, database, seed=config.seed)

    def body(connection: Any, report: ClientReport) -> None:
        drive_connection(client_steps(mix, config, report), connection)

    return run_round(database, config, body)


def run_round(
    database: Database,
    config: WorkloadConfig,
    body: Callable[[Any, ClientReport], None],
) -> WorkloadReport:
    """Run ``body(connection, report)`` on ``config.clients`` threads,
    each with its own DB-API connection to the shared ``database``,
    inside the round's one recording window: the background
    checkpointer, and — as ``config.waits`` and ``config.statements``
    ask — the wait monitor and the statement store.
    :func:`run_workload`, J-X2's scenario replay and the crash harness
    all run their rounds here.

    A barrier lines every client up before the clock starts, so the wall
    time excludes connection setup. The first exception raised by any
    client is re-raised in the caller after all threads finish.
    """
    report = WorkloadReport(config=config, wall_seconds=0.0, clients=[
        ClientReport(client_id=slot) for slot in range(config.clients)
    ])
    barrier = threading.Barrier(config.clients + 1)
    failures: List[BaseException] = []

    def runner(client: ClientReport) -> None:
        connection = connect(database=database)
        try:
            barrier.wait()
            body(connection, client)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            failures.append(exc)
        finally:
            connection.close()

    threads = [
        threading.Thread(target=runner, args=(client,), daemon=True)
        for client in report.clients
    ]
    checkpointer = Checkpointer(database, config.checkpoint_interval)
    if config.statements:
        database.obs.statements.reset()
        database.obs.enable_statements()
    checkpointer.start()
    if config.waits:
        WAITS.enable()
        WAITS.reset()
    try:
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        report.wall_seconds = time.perf_counter() - start
        if failures:
            raise failures[0]
        if config.waits:
            # busy time is wall * clients: each client thread was either
            # on-CPU or in one of the wait classes for the whole round
            report.attribution = WaitAttribution.capture(
                WAITS, busy_seconds=report.wall_seconds * config.clients
            )
    finally:
        if config.waits:
            WAITS.disable()
        checkpointer.stop()
        if config.statements:
            database.obs.disable_statements()
    if config.statements:
        report.statements = database.obs.statements.export()
    report.storage = database.durability.stats()
    report.checkpoints = checkpointer.taken
    return report


def wait_lines(report: WorkloadReport) -> List[str]:
    """The wall-time decomposition of a round run with waits on (nothing
    otherwise); ``jackpine workload`` and ``jackpine top`` both end with
    it."""
    if report.attribution is None:
        return []
    return ["", report.attribution.render(
        title=(
            "server wall-time decomposition (worker pool)"
            if report.config.server is not None
            else "wall-time decomposition (all clients)"
        )
    )]


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
        cells = " ".join(
            f"{q * 1e3:8.2f}m" if hist.count else f"{'--':>9s}"
            for q in (hist.p50, hist.p95, hist.p99)
        )
        lines.append(
            f"{client.client_id:>7d} {client.ops:>6d} {client.reads:>6d} "
            f"{client.writes:>7d} {cells}"
        )
    lines += wait_lines(report)
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
        admission = report.admission
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
        lines.append(
            f"cache: {report.cache.get('hits', 0)} hits / "
            f"{report.cache.get('misses', 0)} misses "
            f"(hit ratio {report.cache_hit_ratio:.1%})   "
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
    ``jackpine experiment --telemetry``); returns the path."""
    return write_document(
        report.telemetry_document(), out_dir,
        f"telemetry_{report.config.engine}.json",
    )
