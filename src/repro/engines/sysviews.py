"""Read-only ``jackpine_*`` system views over the engine's own telemetry.

The ``pg_catalog`` idea turned inward: the observability subsystems —
statement store, wait monitor, per-table usage counters — are exposed
as *virtual tables* the normal planner and executor can scan, so
``SELECT * FROM jackpine_statements ORDER BY total_time DESC LIMIT 5``
runs through the ordinary lexer → parser → planner → executor path (and
therefore over DB-API) with no special casing beyond catalog name
resolution.

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
``jackpine_tables``       per-table/index usage: scans, probes, vacuum —
                          plus a ``bufferpool`` row (hit ratio, page I/O)
                          when durable storage is attached
``jackpine_progress``     live per-session phase + rows processed (and
                          the durable checkpoint LSN, when attached)
``jackpine_service``      query service tier: worker pool size, admission
                          queue, shed counts and result-cache counters
                          (empty unless a server is attached)
``jackpine_requests``     flight recorder: one row per traced service
                          request — trace id, outcome, per-stage
                          timings, tail-sampling verdict (empty unless
                          a server ran with request tracing)
========================  ==================================================
"""

from __future__ import annotations

import functools
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Sequence, Tuple,
)

from repro.errors import SqlPlanError, SqlProgrammingError
from repro.storage.statistics import TableStats
from repro.storage.table import Column, ColumnType

__all__ = ["SystemView", "SYSTEM_VIEW_NAMES", "install_system_views"]

#: one view column: ``(name, SQL type, key)``. ``key`` names the
#: attribute (or dict key) of a producer record, or is a callable taking
#: the record; a dict record reads a missing key as NULL.
ColumnSpec = Tuple[str, str, Any]


def _getter(key: Any) -> Callable[[Any], Any]:
    if callable(key):
        return key

    def get(record: Any) -> Any:
        if isinstance(record, dict):
            return record.get(key)
        return getattr(record, key)

    return get


class SystemView:
    """A read-only virtual table over a row producer.

    Duck-types the Table surface the planner and the non-spatial scan
    pipeline touch. The view is declared once, as a ``schema`` of
    :data:`ColumnSpec` entries over a zero-argument ``producer`` of
    records (objects or dicts); each read builds one tuple per record in
    schema order. MVCC and page accounting are inert: a view has no
    heap, no versions and a nominal single page.
    """

    ROWS_PER_PAGE = 64

    def __init__(self, name: str, schema: Sequence[ColumnSpec],
                 producer: Callable[[], Iterable[Any]]):
        self.name = name.lower()
        self.columns: Tuple[Column, ...] = tuple(
            Column(column, ColumnType.parse(type_name))
            for column, type_name, _key in schema
        )
        self._by_name: Dict[str, int] = {
            c.name: i for i, c in enumerate(self.columns)
        }
        self._getters = [_getter(key) for _column, _type, key in schema]
        self._records = producer
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

    def _produce(self) -> List[tuple]:
        getters = self._getters
        return [
            tuple(get(record) for get in getters)
            for record in self._records()
        ]

    @property
    def rows(self) -> List[tuple]:
        return self._produce()

    @property
    def live_count(self) -> int:
        return len(self._produce())

    def __len__(self) -> int:
        return self.live_count

    def scan(self, snapshot: Any = None) -> Iterator[Tuple[int, tuple]]:
        return enumerate(self._produce())

    def get_row(self, row_id: int) -> tuple:
        return self._produce()[row_id]

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

    insert_rows = _read_only
    delete_row = _read_only
    mark_deleted = _read_only
    clear_deleted = _read_only
    freeze_rows = _read_only
    rollback_insert = _read_only


# -- the seven views ---------------------------------------------------------


def _counter(name: str) -> Callable[[Any], Any]:
    return lambda entry: entry.counters[name]


def _wait_class(name: str) -> Callable[[Any], Any]:
    return lambda entry: entry.wait_class_seconds.get(name, 0.0)


def _percentile(name: str) -> Callable[[Any], Any]:
    return lambda entry: (
        getattr(entry.histogram, name) if entry.histogram.count else None
    )


def _flag(name: str) -> Callable[[Any], Any]:
    return lambda record: 1 if getattr(record, name) else 0


def _stage(name: str) -> Callable[[Any], Any]:
    return lambda record: record.stage_seconds.get(name)


_STATEMENTS: Tuple[ColumnSpec, ...] = (
    ("fingerprint", "TEXT", "fingerprint"),
    ("statement", "TEXT", "statement"),
    ("calls", "INTEGER", "calls"),
    ("errors", "INTEGER", "errors"),
    ("total_time", "REAL", "total_seconds"),
    ("mean_time", "REAL", "mean_seconds"),
    ("p50", "REAL", _percentile("p50")),
    ("p95", "REAL", _percentile("p95")),
    ("p99", "REAL", _percentile("p99")),
    ("rows", "INTEGER", "rows_returned"),
    ("rows_scanned", "INTEGER", _counter("rows_scanned")),
    ("index_probes", "INTEGER", _counter("index_probes")),
    ("pages_read", "INTEGER", _counter("pages_read")),
    ("pairs_considered", "INTEGER", _counter("join_pairs_considered")),
    ("pairs_emitted", "INTEGER", _counter("join_pairs_emitted")),
    ("degraded", "INTEGER", _counter("degraded_results")),
    ("retries", "INTEGER", "retries"),
    ("aborts", "INTEGER", "aborts"),
    ("timeouts", "INTEGER", "timeouts"),
    ("wait_lock_seconds", "REAL", _wait_class("LockManager")),
    ("wait_latch_seconds", "REAL", _wait_class("Latch")),
    ("wait_io_seconds", "REAL", _wait_class("IO")),
    ("wait_net_seconds", "REAL", _wait_class("Net")),
    ("wait_service_seconds", "REAL", _wait_class("Service")),
    ("wait_client_seconds", "REAL", _wait_class("Client")),
    ("wait_guard_seconds", "REAL", _wait_class("Guard")),
    ("cpu_seconds", "REAL", _wait_class("CPU")),
)

_PLANS: Tuple[ColumnSpec, ...] = (
    ("statement_fingerprint", "TEXT", "statement_fingerprint"),
    ("statement", "TEXT", "statement"),
    ("plan_fingerprint", "TEXT", "plan_fingerprint"),
    ("plan_shape", "TEXT", "shape"),
    ("executions", "INTEGER", "executions"),
    ("first_seen", "REAL", "first_seen"),
    ("last_seen", "REAL", "last_seen"),
    ("is_current", "INTEGER", _flag("current")),
    ("flipped_from", "TEXT", "flipped_from"),
)

#: records: ``WAITS.summary()`` entries plus their ``event``
_WAITS: Tuple[ColumnSpec, ...] = (
    ("wait_event", "TEXT", "event"),
    ("wait_class", "TEXT", lambda entry: entry["event"].split(":", 1)[0]),
    ("site", "TEXT", "site"),
    ("count", "INTEGER", lambda entry: int(entry["count"])),
    ("total_seconds", "REAL", "seconds"),
    ("p50", "REAL", "p50"),
    ("p95", "REAL", "p95"),
    ("p99", "REAL", "p99"),
)

#: records: one dict per table, per index and (attached storage) one
#: ``bufferpool`` row; a key a record lacks reads as NULL
_TABLES: Tuple[ColumnSpec, ...] = (
    ("name", "TEXT", "name"),
    ("kind", "TEXT", "kind"),
    ("table_name", "TEXT", "table_name"),
    ("column_name", "TEXT", "column_name"),
    ("live_rows", "INTEGER", "live_rows"),
    ("pages", "INTEGER", "pages"),
    ("seq_scans", "INTEGER", "seq_scans"),
    ("index_probes", "INTEGER", "index_probes"),
    ("mvcc_versions", "INTEGER", "mvcc_versions"),
    ("vacuumed_rows", "INTEGER", "vacuumed_rows"),
    ("frozen_rows", "INTEGER", "frozen_rows"),
    ("pages_read", "INTEGER", "pages_read"),
    ("pages_written", "INTEGER", "pages_written"),
    ("buffer_hit_ratio", "REAL", "buffer_hit_ratio"),
)

#: records: one dict per thread with a statement in flight
_PROGRESS: Tuple[ColumnSpec, ...] = (
    ("session_id", "INTEGER", "session_id"),
    ("thread_id", "INTEGER", "thread_id"),
    ("engine", "TEXT", "engine"),
    ("txid", "INTEGER", "txid"),
    ("sql", "TEXT", "sql"),
    ("phase", "TEXT", "phase"),
    ("wait_event", "TEXT", "wait_event"),
    ("seconds", "REAL", "statement_seconds"),
    ("rows_processed", "INTEGER", "rows_processed"),
    ("index_probes", "INTEGER", "index_probes"),
    ("pairs_considered", "INTEGER", "join_pairs_considered"),
    ("pairs_emitted", "INTEGER", "join_pairs_emitted"),
    ("checkpoint_lsn", "INTEGER", "checkpoint_lsn"),
)

#: records: the server's ``stats()``, flattened to ``section.field``
_SERVICE: Tuple[ColumnSpec, ...] = (
    ("pool_size", "INTEGER", "pool.size"),
    ("queue_depth", "INTEGER", "admission.queue_depth"),
    ("queue_limit", "INTEGER", "admission.queue_limit"),
    ("executing", "INTEGER", "admission.executing"),
    ("admitted", "INTEGER", "admission.admitted"),
    ("shed_queue_full", "INTEGER", "admission.shed_queue_full"),
    ("shed_deadline", "INTEGER", "admission.shed_deadline"),
    ("cache_entries", "INTEGER", "cache.entries"),
    ("cache_hits", "INTEGER", "cache.hits"),
    ("cache_misses", "INTEGER", "cache.misses"),
    ("cache_invalidations", "INTEGER", "cache.invalidations"),
    ("cache_bypass", "INTEGER", "cache.bypass"),
)

_REQUESTS: Tuple[ColumnSpec, ...] = (
    ("trace_id", "TEXT", "trace_id"),
    ("started_at", "REAL", "started_at"),
    ("sql", "TEXT", "sql"),
    ("fingerprint", "TEXT", "fingerprint"),
    ("outcome", "TEXT", "outcome"),
    ("shed", "INTEGER", _flag("shed")),
    ("cached", "INTEGER", _flag("cached")),
    ("cache_status", "TEXT", "cache_status"),
    ("recv_seconds", "REAL", _stage("net.recv")),
    ("queue_seconds", "REAL", _stage("queue.wait")),
    ("cache_seconds", "REAL", _stage("cache.lookup")),
    ("exec_seconds", "REAL", _stage("execute")),
    ("send_seconds", "REAL", _stage("net.send")),
    ("total_seconds", "REAL", "total_seconds"),
    ("retained", "INTEGER", _flag("retained")),
    ("spans", "INTEGER", lambda record: record.span_count()),
    ("clock_skew_seconds", "REAL", "clock_skew_seconds"),
)


def _statement_records(db: Any) -> List[Any]:
    return db.obs.statements.statements()


def _plan_records(db: Any) -> List[Any]:
    return db.obs.statements.plans()


def _wait_records(_db: Any) -> List[Dict[str, Any]]:
    from repro.obs.waits import WAIT_EVENTS, WAITS

    return [
        dict(entry, event=event, site=WAIT_EVENTS.get(event, ""))
        for event, entry in sorted(WAITS.summary().items())
    ]


def _table_records(db: Any) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = [
        {
            "name": table.name,
            "kind": "table",
            "table_name": table.name,
            "live_rows": table.live_count,
            "pages": table.page_count,
            "seq_scans": table.seq_scans,
            "index_probes": 0,
            "mvcc_versions": table.mvcc_versions,
            "vacuumed_rows": table.vacuumed_rows,
            "frozen_rows": table.frozen_rows,
        }
        for table in db.catalog.tables()
    ]
    out.extend(
        {
            "name": entry.name,
            "kind": "index",
            "table_name": entry.table_name,
            "column_name": ", ".join(entry.columns),
            "live_rows": len(entry.index),
            "pages": 0,
            "seq_scans": 0,
            "index_probes": entry.probes,
            "mvcc_versions": 0,
            "vacuumed_rows": 0,
            "frozen_rows": 0,
        }
        for entry in db.catalog.indexes()
    )
    stats = db.durability.stats()
    if stats is not None:
        out.append({
            "name": "buffer_pool",
            "kind": "bufferpool",
            "pages": stats["pages_on_disk"],
            "pages_read": stats["pages_read"],
            "pages_written": stats["pages_written"],
            "buffer_hit_ratio": stats["buffer_hit_ratio"],
        })
    return out


def _phase(session: Dict[str, Any]) -> str:
    if session["wait_event"] is not None:
        return "waiting"
    if session["join_pairs_considered"]:
        return "joining"
    if session["index_probes"]:
        return "probing"
    if session["rows_processed"]:
        return "scanning"
    return "planning"


def _progress_records(db: Any) -> List[Dict[str, Any]]:
    from repro.obs.waits import WAITS

    checkpoint_lsn = db.durability.last_checkpoint_lsn
    return [
        dict(session, phase=_phase(session), checkpoint_lsn=checkpoint_lsn)
        for session in WAITS.active_sessions()
        if session["sql"] is not None
    ]


def _service_records(db: Any) -> List[Dict[str, Any]]:
    service = db.service
    if service is None:
        return []
    stats = service.stats()
    return [{
        f"{section}.{field}": value
        for section in ("pool", "admission", "cache")
        for field, value in stats[section].items()
    }]


def _request_records(_db: Any) -> List[Any]:
    # reads the process-wide recorder, like jackpine_waits reads
    # WAITS — a query *through* the server sees its own history
    from repro.obs.requests import RECORDER

    return RECORDER.records()


#: every view, declared once: name, schema, producer of records from a db
_VIEWS = (
    ("jackpine_statements", _STATEMENTS, _statement_records),
    ("jackpine_plans", _PLANS, _plan_records),
    ("jackpine_waits", _WAITS, _wait_records),
    ("jackpine_tables", _TABLES, _table_records),
    ("jackpine_progress", _PROGRESS, _progress_records),
    ("jackpine_service", _SERVICE, _service_records),
    ("jackpine_requests", _REQUESTS, _request_records),
)

#: every reserved view name, rejected by CREATE TABLE / DROP TABLE
SYSTEM_VIEW_NAMES: Tuple[str, ...] = tuple(name for name, _s, _p in _VIEWS)


def install_system_views(db: Any) -> None:
    """Register the full ``jackpine_*`` catalog on one database."""
    for name, schema, records in _VIEWS:
        db.catalog.register_system_view(
            SystemView(name, schema, functools.partial(records, db))
        )
