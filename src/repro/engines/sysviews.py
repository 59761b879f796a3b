"""Read-only ``jackpine_*`` system views over the engine's own telemetry.

The ``pg_catalog`` idea turned inward: the observability subsystems —
statement store, wait monitor, ASH sampler, per-table usage counters —
are exposed as *virtual tables* the normal planner and executor can
scan, so ``SELECT * FROM jackpine_statements ORDER BY total_time DESC
LIMIT 5`` runs through the ordinary lexer → parser → planner → executor
path (and therefore over DB-API) with no special casing beyond catalog
name resolution.

A :class:`SystemView` duck-types the narrow :class:`~repro.storage.table
.Table` surface a non-spatial ``SeqScan`` pipeline consumes: schema
lookups, a ``rows`` list, page accounting and MVCC fields. ``rows`` is a
property that calls the view's producer afresh on every scan, so cached
plans always see live data. All mutation entry points raise — the
catalog is strictly read-only.

Views installed on every :class:`~repro.engines.Database`:

========================  ==================================================
``jackpine_statements``   per-fingerprint aggregates (statement store)
``jackpine_plans``        captured plan shapes + flip lineage
``jackpine_waits``        per-event wait totals (wait monitor)
``jackpine_ash``          active-session-history samples (running samplers)
``jackpine_tables``       per-table/index usage: scans, probes, vacuum —
                          plus a ``bufferpool`` row (hit ratio, page I/O)
                          when durable storage is attached
``jackpine_progress``     live per-session phase + rows processed (and
                          the durable checkpoint LSN, when attached)
``jackpine_service``      query service tier: session pool, admission
                          queue, shed counts and result-cache counters
                          (empty unless a server is attached)
``jackpine_requests``     flight recorder: one row per traced service
                          request — trace id, outcome, per-stage
                          timings, tail-sampling verdict (empty unless
                          a server ran with request tracing)
========================  ==================================================
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import SqlPlanError, SqlProgrammingError
from repro.storage.statistics import TableStats
from repro.storage.table import Column, ColumnType

__all__ = ["SystemView", "SYSTEM_VIEW_NAMES", "install_system_views"]

#: every reserved view name, rejected by CREATE TABLE / DROP TABLE
SYSTEM_VIEW_NAMES: Tuple[str, ...] = (
    "jackpine_statements",
    "jackpine_plans",
    "jackpine_waits",
    "jackpine_ash",
    "jackpine_tables",
    "jackpine_progress",
    "jackpine_service",
    "jackpine_requests",
)


def _col(name: str, type_name: str) -> Column:
    return Column(name, ColumnType.parse(type_name))


class SystemView:
    """A read-only virtual table over a row producer.

    Duck-types the Table surface the planner and the non-spatial scan
    pipeline touch; the producer is a zero-argument callable returning a
    list of tuples matching ``columns``. MVCC and page accounting are
    inert: a view has no heap, no versions and a nominal single page.
    """

    ROWS_PER_PAGE = 64

    def __init__(self, name: str, columns: List[Column],
                 producer: Callable[[], List[tuple]]):
        self.name = name.lower()
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._by_name: Dict[str, int] = {
            c.name: i for i, c in enumerate(self.columns)
        }
        self._producer = producer
        self.mvcc_versions = 0
        self.stats = TableStats([])
        #: usage counter, bumped by SeqScan like any table's
        self.seq_scans = 0

    # -- schema ------------------------------------------------------------

    def column_index(self, name: str) -> int:
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise SqlPlanError(
                f"no column {name!r} in system view {self.name!r}"
            )

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_name

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def geometry_columns(self) -> List[str]:
        return []

    # -- data (produced fresh per read) ------------------------------------

    @property
    def rows(self) -> List[tuple]:
        return self._producer()

    @property
    def live_count(self) -> int:
        return len(self._producer())

    def __len__(self) -> int:
        return self.live_count

    def scan(self, snapshot: Any = None) -> Iterator[Tuple[int, tuple]]:
        for row_id, row in enumerate(self._producer()):
            yield row_id, row

    def get_row(self, row_id: int) -> tuple:
        return self._producer()[row_id]

    def row_visible(self, row_id: int, snapshot: Any) -> bool:
        return True

    # -- inert physical accounting -----------------------------------------

    @property
    def page_count(self) -> int:
        return 1

    def page_of(self, row_id: int) -> int:
        return 0

    def analyze(self) -> None:
        pass

    def envelopes(self, column_name: str) -> List[Any]:
        raise SqlPlanError(
            f"system view {self.name!r} has no geometry columns"
        )

    def version_arrays(self):  # pragma: no cover - mvcc_versions is 0
        raise SqlProgrammingError(
            f"system view {self.name!r} carries no MVCC versions"
        )

    # -- mutation is always an error ---------------------------------------

    def _read_only(self, *_args: Any, **_kwargs: Any) -> Any:
        raise SqlProgrammingError(
            f"{self.name!r} is a read-only system view"
        )

    insert_row = _read_only
    delete_row = _read_only
    mark_deleted = _read_only
    clear_deleted = _read_only
    freeze_rows = _read_only
    rollback_insert = _read_only


# -- producers ---------------------------------------------------------------


def _statements_view(db: Any) -> SystemView:
    columns = [
        _col("fingerprint", "TEXT"),
        _col("statement", "TEXT"),
        _col("calls", "INTEGER"),
        _col("errors", "INTEGER"),
        _col("total_time", "REAL"),
        _col("mean_time", "REAL"),
        _col("p50", "REAL"),
        _col("p95", "REAL"),
        _col("p99", "REAL"),
        _col("rows", "INTEGER"),
        _col("rows_scanned", "INTEGER"),
        _col("index_probes", "INTEGER"),
        _col("pages_read", "INTEGER"),
        _col("pairs_considered", "INTEGER"),
        _col("pairs_emitted", "INTEGER"),
        _col("degraded", "INTEGER"),
        _col("retries", "INTEGER"),
        _col("aborts", "INTEGER"),
        _col("timeouts", "INTEGER"),
        _col("wait_lock_seconds", "REAL"),
        _col("wait_latch_seconds", "REAL"),
        _col("wait_io_seconds", "REAL"),
        _col("wait_net_seconds", "REAL"),
        _col("wait_service_seconds", "REAL"),
        _col("wait_client_seconds", "REAL"),
        _col("wait_guard_seconds", "REAL"),
        _col("cpu_seconds", "REAL"),
    ]

    def produce() -> List[tuple]:
        out: List[tuple] = []
        for entry in db.obs.statements.statements():
            hist = entry.histogram
            counters = entry.counters
            waits = entry.wait_class_seconds
            out.append((
                entry.fingerprint,
                entry.statement,
                entry.calls,
                entry.errors,
                entry.total_seconds,
                entry.mean_seconds,
                hist.p50 if hist.count else None,
                hist.p95 if hist.count else None,
                hist.p99 if hist.count else None,
                entry.rows_returned,
                counters["rows_scanned"],
                counters["index_probes"],
                counters["pages_read"],
                counters["join_pairs_considered"],
                counters["join_pairs_emitted"],
                counters["degraded_results"],
                entry.retries,
                entry.aborts,
                entry.timeouts,
                waits.get("LockManager", 0.0),
                waits.get("Latch", 0.0),
                waits.get("IO", 0.0),
                waits.get("Net", 0.0),
                waits.get("Service", 0.0),
                waits.get("Client", 0.0),
                waits.get("Guard", 0.0),
                waits.get("CPU", 0.0),
            ))
        return out

    return SystemView("jackpine_statements", columns, produce)


def _plans_view(db: Any) -> SystemView:
    columns = [
        _col("statement_fingerprint", "TEXT"),
        _col("statement", "TEXT"),
        _col("plan_fingerprint", "TEXT"),
        _col("plan_shape", "TEXT"),
        _col("executions", "INTEGER"),
        _col("first_seen", "REAL"),
        _col("last_seen", "REAL"),
        _col("is_current", "INTEGER"),
        _col("flipped_from", "TEXT"),
    ]

    def produce() -> List[tuple]:
        return [
            (
                plan.statement_fingerprint,
                plan.statement,
                plan.plan_fingerprint,
                plan.shape,
                plan.executions,
                plan.first_seen,
                plan.last_seen,
                1 if plan.current else 0,
                plan.flipped_from,
            )
            for plan in db.obs.statements.plans()
        ]

    return SystemView("jackpine_plans", columns, produce)


def _waits_view() -> SystemView:
    from repro.obs.waits import WAIT_EVENTS, WAITS

    columns = [
        _col("wait_event", "TEXT"),
        _col("wait_class", "TEXT"),
        _col("site", "TEXT"),
        _col("count", "INTEGER"),
        _col("total_seconds", "REAL"),
        _col("p50", "REAL"),
        _col("p95", "REAL"),
        _col("p99", "REAL"),
    ]

    def produce() -> List[tuple]:
        out: List[tuple] = []
        for event, entry in sorted(WAITS.summary().items()):
            out.append((
                event,
                event.split(":", 1)[0],
                WAIT_EVENTS.get(event, ""),
                int(entry["count"]),
                entry["seconds"],
                entry.get("p50"),
                entry.get("p95"),
                entry.get("p99"),
            ))
        return out

    return SystemView("jackpine_waits", columns, produce)


def _ash_view() -> SystemView:
    columns = [
        _col("sampled_at", "REAL"),
        _col("thread_id", "INTEGER"),
        _col("session_id", "INTEGER"),
        _col("engine", "TEXT"),
        _col("sql", "TEXT"),
        _col("txid", "INTEGER"),
        _col("wait_event", "TEXT"),
        _col("wait_seconds", "REAL"),
        _col("statement_seconds", "REAL"),
        _col("rows_processed", "INTEGER"),
    ]

    def produce() -> List[tuple]:
        from repro.obs.ash import registered_samples

        return [
            (
                sample.sampled_at,
                sample.thread_id,
                sample.session_id,
                sample.engine,
                sample.sql,
                sample.txid,
                sample.wait_event,
                sample.wait_seconds,
                sample.statement_seconds,
                sample.rows_processed,
            )
            for sample in registered_samples()
        ]

    return SystemView("jackpine_ash", columns, produce)


def _tables_view(db: Any) -> SystemView:
    columns = [
        _col("name", "TEXT"),
        _col("kind", "TEXT"),
        _col("table_name", "TEXT"),
        _col("column_name", "TEXT"),
        _col("live_rows", "INTEGER"),
        _col("pages", "INTEGER"),
        _col("seq_scans", "INTEGER"),
        _col("index_probes", "INTEGER"),
        _col("mvcc_versions", "INTEGER"),
        _col("vacuumed_rows", "INTEGER"),
        _col("frozen_rows", "INTEGER"),
        _col("pages_read", "INTEGER"),
        _col("pages_written", "INTEGER"),
        _col("buffer_hit_ratio", "REAL"),
    ]

    def produce() -> List[tuple]:
        out: List[tuple] = []
        for table in db.catalog.tables():
            out.append((
                table.name,
                "table",
                table.name,
                None,
                table.live_count,
                table.page_count,
                table.seq_scans,
                0,
                table.mvcc_versions,
                table.vacuumed_rows,
                table.frozen_rows,
                None,
                None,
                None,
            ))
        for entry in db.catalog.indexes():
            out.append((
                entry.name,
                "index",
                entry.table_name,
                entry.column_name,
                len(entry.index),
                0,
                0,
                entry.probes,
                0,
                0,
                0,
                None,
                None,
                None,
            ))
        durable = db.durability
        if durable is not None:
            stats = durable.stats()
            out.append((
                "buffer_pool",
                "bufferpool",
                None,
                None,
                None,
                stats["pages_on_disk"],
                None,
                None,
                None,
                None,
                None,
                stats["pages_read"],
                stats["pages_written"],
                stats["buffer_hit_ratio"],
            ))
        return out

    return SystemView("jackpine_tables", columns, produce)


def _progress_view(db: Any) -> SystemView:
    from repro.obs.waits import WAITS

    columns = [
        _col("session_id", "INTEGER"),
        _col("thread_id", "INTEGER"),
        _col("engine", "TEXT"),
        _col("txid", "INTEGER"),
        _col("sql", "TEXT"),
        _col("phase", "TEXT"),
        _col("wait_event", "TEXT"),
        _col("seconds", "REAL"),
        _col("rows_processed", "INTEGER"),
        _col("index_probes", "INTEGER"),
        _col("pairs_considered", "INTEGER"),
        _col("pairs_emitted", "INTEGER"),
        _col("checkpoint_lsn", "INTEGER"),
    ]

    def produce() -> List[tuple]:
        now = time.perf_counter()
        durable = db.durability
        checkpoint_lsn = (
            durable.last_checkpoint_lsn if durable is not None else None
        )
        out: List[tuple] = []
        for state in WAITS.thread_states():
            sql = state.statement
            if sql is None:
                continue
            shard = state.shard
            rows_scanned = shard.rows_scanned if shard is not None else 0
            probes = shard.index_probes if shard is not None else 0
            considered = (
                shard.join_pairs_considered if shard is not None else 0
            )
            emitted = shard.join_pairs_emitted if shard is not None else 0
            wait = state.current_wait
            if wait is not None:
                phase = "waiting"
            elif considered:
                phase = "joining"
            elif probes:
                phase = "probing"
            elif rows_scanned:
                phase = "scanning"
            else:
                phase = "planning"
            out.append((
                state.session_id,
                state.thread_id,
                state.engine,
                state.txid,
                sql,
                phase,
                wait,
                now - state.statement_since,
                rows_scanned,
                probes,
                considered,
                emitted,
                checkpoint_lsn,
            ))
        return out

    return SystemView("jackpine_progress", columns, produce)


def _service_view(db: Any) -> SystemView:
    columns = [
        _col("pool_size", "INTEGER"),
        _col("sessions_in_use", "INTEGER"),
        _col("sessions_idle", "INTEGER"),
        _col("sessions_created", "INTEGER"),
        _col("sessions_reaped", "INTEGER"),
        _col("queue_depth", "INTEGER"),
        _col("queue_limit", "INTEGER"),
        _col("executing", "INTEGER"),
        _col("admitted", "INTEGER"),
        _col("shed_queue_full", "INTEGER"),
        _col("shed_deadline", "INTEGER"),
        _col("cache_entries", "INTEGER"),
        _col("cache_hits", "INTEGER"),
        _col("cache_misses", "INTEGER"),
        _col("cache_invalidations", "INTEGER"),
        _col("cache_bypass", "INTEGER"),
    ]

    def produce() -> List[tuple]:
        service = db.service
        if service is None:
            return []
        stats = service.stats()
        pool = stats["pool"]
        admission = stats["admission"]
        cache = stats["cache"]
        return [(
            pool["size"],
            pool["in_use"],
            pool["idle"],
            pool["created"],
            pool["reaped"],
            admission["queue_depth"],
            admission["queue_limit"],
            admission["executing"],
            admission["admitted"],
            admission["shed_queue_full"],
            admission["shed_deadline"],
            cache["entries"],
            cache["hits"],
            cache["misses"],
            cache["invalidations"],
            cache["bypass"],
        )]

    return SystemView("jackpine_service", columns, produce)


def _requests_view() -> SystemView:
    columns = [
        _col("trace_id", "TEXT"),
        _col("started_at", "REAL"),
        _col("sql", "TEXT"),
        _col("fingerprint", "TEXT"),
        _col("outcome", "TEXT"),
        _col("shed", "INTEGER"),
        _col("cached", "INTEGER"),
        _col("cache_status", "TEXT"),
        _col("recv_seconds", "REAL"),
        _col("queue_seconds", "REAL"),
        _col("session_seconds", "REAL"),
        _col("cache_seconds", "REAL"),
        _col("exec_seconds", "REAL"),
        _col("send_seconds", "REAL"),
        _col("total_seconds", "REAL"),
        _col("retained", "INTEGER"),
        _col("spans", "INTEGER"),
        _col("clock_skew_seconds", "REAL"),
    ]

    def produce() -> List[tuple]:
        # reads the process-wide recorder, like jackpine_waits reads
        # WAITS — a query *through* the server sees its own history
        from repro.obs.requests import RECORDER

        out: List[tuple] = []
        for record in RECORDER.records():
            stages = record.stage_seconds
            out.append((
                record.trace_id,
                record.started_at,
                record.sql,
                record.fingerprint,
                record.outcome,
                1 if record.shed else 0,
                1 if record.cached else 0,
                record.cache_status,
                stages.get("net.recv"),
                stages.get("queue.wait"),
                stages.get("session.acquire"),
                stages.get("cache.lookup"),
                stages.get("execute"),
                stages.get("net.send"),
                record.total_seconds,
                1 if record.retained else 0,
                record.span_count(),
                record.clock_skew_seconds,
            ))
        return out

    return SystemView("jackpine_requests", columns, produce)


def install_system_views(db: Any) -> None:
    """Register the full ``jackpine_*`` catalog on one database."""
    for view in (
        _statements_view(db),
        _plans_view(db),
        _waits_view(),
        _ash_view(),
        _tables_view(db),
        _progress_view(db),
        _service_view(db),
        _requests_view(),
    ):
        db.catalog.register_system_view(view)
