"""Wait-event instrumentation: where threads spend their time.

Modeled on Postgres's ``pg_stat_activity`` wait-event taxonomy: every
place the engine can block — row locks, the statement latch, WAL and
page I/O, client-side retry/backoff — plus the attributed on-CPU hot paths
(refinement, index probes, sorts) and the guardrail tick, is a *wait
event* from a closed taxonomy (:data:`WAIT_EVENTS`). When the process-
wide :data:`WAITS` monitor is enabled, each finished wait bumps its
thread's per-event totals and the event's latency histogram (no
cross-thread locks on the record path beyond the histogram's); when it
is disabled, every site costs one attribute read and a branch. There
is one recording path: a site that blocks or computes goes through
:meth:`WaitMonitor.timed`, which hands back the untimed callable while
the monitor is off, and a site that measured its own wait calls
:meth:`WaitMonitor.record`, which returns at once while it is off —
the same contract as :data:`~repro.faults.FAULTS` and the observability
switchboard, pinned by ``benchmarks/test_bench_disabled_overhead.py``.

Three consumers sit on top:

- :meth:`WaitMonitor.active_sessions` shows each thread's *current*
  statement and wait state (``jackpine top``, ``jackpine_progress``),
  and each statement's own waits accumulate in place between
  ``begin_statement`` and ``end_statement`` (``Trace.waits``);
- :class:`WaitAttribution` decomposes wall time into wait classes and
  on-CPU buckets with p50/p95/p99 per event (``EXPLAIN ANALYZE``,
  ``jackpine stats``, the J-X2/J-X4 reports);
- the per-lock-key "hottest rows" table names the rows contended
  workloads actually fight over.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.obs.metrics import Histogram

T = TypeVar("T")

__all__ = [
    "WAIT_EVENTS",
    "WAIT_CLASSES",
    "CPU_CLASS",
    "WAITS",
    "WaitMonitor",
    "WaitAttribution",
    "LOCK_ROW",
    "LATCH_SHARED",
    "LATCH_EXCLUSIVE",
    "IO_WAL_WRITE",
    "IO_WAL_FSYNC",
    "IO_PAGE_READ",
    "IO_PAGE_WRITE",
    "CPU_REFINE",
    "CPU_INDEX_PROBE",
    "CPU_SORT",
    "CLIENT_RETRY",
    "CLIENT_BACKOFF",
    "GUARD_TICK",
    "NET_RECV",
    "NET_SEND",
    "SERVICE_QUEUE",
]

# -- the closed taxonomy ----------------------------------------------------

LOCK_ROW = "LockManager:RowLock"
LATCH_SHARED = "Latch:StatementShared"
LATCH_EXCLUSIVE = "Latch:StatementExclusive"
IO_WAL_WRITE = "IO:WalWrite"
IO_WAL_FSYNC = "IO:WalFsync"
IO_PAGE_READ = "IO:PageRead"
IO_PAGE_WRITE = "IO:PageWrite"
CPU_REFINE = "CPU:Refine"
CPU_INDEX_PROBE = "CPU:IndexProbe"
CPU_SORT = "CPU:Sort"
CLIENT_RETRY = "Client:Retry"
CLIENT_BACKOFF = "Client:Backoff"
GUARD_TICK = "Guard:Tick"
NET_RECV = "Net:Recv"
NET_SEND = "Net:Send"
SERVICE_QUEUE = "Service:QueueWait"

#: every wait event compiled into the engine, event -> the site that
#: emits it. The taxonomy is *closed*: recording an unknown event raises.
WAIT_EVENTS: Dict[str, str] = {
    LOCK_ROW: "RowLockTable.acquire — blocked on a row write lock",
    LATCH_SHARED: "SharedExclusiveLock.acquire_shared — statement latch",
    LATCH_EXCLUSIVE: "SharedExclusiveLock.acquire_exclusive — statement latch",
    IO_WAL_WRITE: "WriteAheadLog.flush — writing buffered log records",
    IO_WAL_FSYNC: "WriteAheadLog.sync — fsync of the log file (group commit)",
    IO_PAGE_READ: "DiskManager.read_page — reading a heap page from disk",
    IO_PAGE_WRITE: "DiskManager.write_page — writing a dirty heap page",
    CPU_REFINE: "EngineProfile.refine — exact geometry refinement",
    CPU_INDEX_PROBE: "IndexScan / IndexNestedLoopJoin — spatial index search",
    CPU_SORT: "Sort operator — materialise + multi-key sort",
    CLIENT_RETRY: "workload driver — rolling back an aborted transaction",
    CLIENT_BACKOFF: "workload driver — jittered backoff sleep before retry",
    GUARD_TICK: "ExecutionGuard — amortised deadline/cancellation check",
    NET_RECV: "service server — reading a request frame off the socket",
    NET_SEND: "service server — draining a response frame to the socket",
    SERVICE_QUEUE: "service server — admitted request waiting for a worker",
}

#: event-name prefix identifying attributed on-CPU work (not off-CPU waits)
CPU_CLASS = "CPU"

#: every class in the taxonomy, in report order (waits first, CPU last)
WAIT_CLASSES: Tuple[str, ...] = (
    "LockManager", "Latch", "IO", "Net", "Service", "Client", "Guard",
    CPU_CLASS,
)


class _ThreadState:
    """Everything the monitor tracks for one thread."""

    __slots__ = (
        "thread_id", "totals",
        "current_wait", "current_wait_detail", "current_wait_since",
        "statement", "engine", "txid", "session_id", "statement_since",
        "shard", "statement_waits",
    )

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        #: event -> [count, total_seconds]
        self.totals: Dict[str, List[float]] = {}
        self.current_wait: Optional[str] = None
        self.current_wait_detail: Any = None
        self.current_wait_since = 0.0
        self.statement: Optional[str] = None
        self.engine: Optional[str] = None
        self.txid: Optional[int] = None
        self.session_id: Optional[int] = None
        self.statement_since = 0.0
        #: live per-statement Stats shard (rows-processed progress)
        self.shard: Any = None
        #: the open statement's ``{event: {count, seconds}}``, or None
        #: between statements
        self.statement_waits: Optional[Dict[str, Dict[str, float]]] = None


class WaitMonitor:
    """Process-wide wait-event switchboard (see module docstring)."""

    def __init__(self) -> None:
        #: the one flag every instrumented site reads on its hot path
        self.enabled = False
        self._mutex = threading.Lock()
        self._states: Dict[int, _ThreadState] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: LockManager:RowLock detail -> [count, total_seconds]
        self._lock_keys: Dict[Any, List[float]] = {}

    # -- switches ----------------------------------------------------------

    def enable(self) -> "WaitMonitor":
        self.enabled = True
        return self

    def disable(self) -> "WaitMonitor":
        self.enabled = False
        return self

    def reset(self) -> None:
        """Forget every aggregate and thread state."""
        with self._mutex:
            self._states.clear()
            self._histograms.clear()
            self._lock_keys.clear()

    # -- per-thread state --------------------------------------------------

    def state(self) -> _ThreadState:
        tid = threading.get_ident()
        state = self._states.get(tid)
        if state is None:
            with self._mutex:
                state = self._states.get(tid)
                if state is None:
                    state = _ThreadState(tid)
                    self._states[tid] = state
        return state

    def thread_states(self) -> List[_ThreadState]:
        with self._mutex:
            return list(self._states.values())

    # -- recording ---------------------------------------------------------

    def record(self, event: str, seconds: float, detail: Any = None) -> None:
        """Record an already-measured wait on the calling thread (nothing
        while the monitor is off)."""
        if self.enabled:
            self._record(self.state(), event, seconds, detail)

    def timed(self, event: str, fn: Callable[..., T],
              detail: Any = None) -> Callable[..., T]:
        """``fn`` timed as one ``event`` per call.

        While the monitor is off this returns ``fn`` itself, so a call
        site hoisted out of a loop pays nothing per call; otherwise a
        wrapper that records the call's duration, also when it raises.
        An off-CPU event is also the thread's current wait while the
        call runs (what ``active_sessions`` shows); an on-CPU bucket is
        not.
        """
        if not self.enabled:
            return fn
        waiting = not event.startswith(CPU_CLASS)

        def timed_call(*args: Any, **kwargs: Any) -> T:
            state = self.state()
            started = time.perf_counter()
            if waiting:
                state.current_wait = event
                state.current_wait_detail = detail
                state.current_wait_since = started
            try:
                return fn(*args, **kwargs)
            finally:
                if waiting:
                    state.current_wait = None
                    state.current_wait_detail = None
                self._record(
                    state, event, time.perf_counter() - started, detail
                )

        return timed_call

    def _record(self, state: _ThreadState, event: str, seconds: float,
                detail: Any) -> None:
        if event not in WAIT_EVENTS:
            raise KeyError(
                f"unknown wait event {event!r}; the taxonomy is closed "
                f"(see repro.obs.waits.WAIT_EVENTS)"
            )
        totals = state.totals.get(event)
        if totals is None:
            totals = state.totals[event] = [0, 0.0]
        totals[0] += 1
        totals[1] += seconds
        waits = state.statement_waits
        if waits is not None:
            entry = waits.get(event)
            if entry is None:
                waits[event] = {"count": 1, "seconds": seconds}
            else:
                entry["count"] += 1
                entry["seconds"] += seconds
        self._histogram(event).observe(seconds)
        if detail is not None and event == LOCK_ROW:
            with self._mutex:
                entry = self._lock_keys.get(detail)
                if entry is None:
                    entry = self._lock_keys[detail] = [0, 0.0]
                entry[0] += 1
                entry[1] += seconds

    def _histogram(self, event: str) -> Histogram:
        hist = self._histograms.get(event)
        if hist is None:
            with self._mutex:
                hist = self._histograms.get(event)
                if hist is None:
                    hist = self._histograms[event] = Histogram(
                        f"wait_{event}", WAIT_EVENTS[event]
                    )
        return hist

    # -- statement tracking ------------------------------------------------

    def begin_statement(self, sql: str, engine: Optional[str] = None,
                        txid: Optional[int] = None,
                        session_id: Optional[int] = None) -> None:
        state = self.state()
        state.statement = sql
        state.engine = engine
        state.txid = txid
        state.session_id = session_id
        state.statement_since = time.perf_counter()
        state.shard = None
        state.statement_waits = {}

    def attach_shard(self, shard: Any) -> None:
        """Expose the live per-statement Stats shard as the progress
        counter (read racily by ``active_sessions``; ints never tear)."""
        self.state().shard = shard

    def end_statement(self) -> Optional[Dict[str, Dict[str, float]]]:
        """Close the thread's statement and return the waits it recorded,
        ``{event: {count, seconds}}`` (``None`` if a :meth:`reset` since
        ``begin_statement`` dropped its state)."""
        state = self.state()
        state.statement = None
        state.txid = None
        state.shard = None
        waits = state.statement_waits
        state.statement_waits = None
        return waits

    def active_sessions(self) -> List[Dict[str, Any]]:
        """One snapshot row per thread with a statement or a wait in
        flight — the ``pg_stat_activity`` view ``jackpine top`` draws
        and ``jackpine_progress`` reads — with the statement's live
        progress counters."""
        now = time.perf_counter()
        out: List[Dict[str, Any]] = []
        for state in self.thread_states():
            sql = state.statement
            wait = state.current_wait
            if sql is None and wait is None:
                continue
            shard = state.shard
            rows = shard.rows_scanned if shard is not None else 0
            out.append({
                "thread_id": state.thread_id,
                "session_id": state.session_id,
                "engine": state.engine,
                "sql": sql,
                "txid": state.txid,
                "wait_event": wait,
                "wait_seconds": (
                    now - state.current_wait_since if wait is not None
                    else 0.0
                ),
                "statement_seconds": (
                    now - state.statement_since if sql is not None else 0.0
                ),
                "rows_processed": rows,
                **{
                    name: getattr(shard, name) if shard is not None else 0
                    for name in ("index_probes", "join_pairs_considered",
                                 "join_pairs_emitted")
                },
            })
        return out

    # -- aggregate views ---------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-event totals merged across threads:
        ``{event: {count, seconds, p50, p95, p99}}``."""
        merged: Dict[str, List[float]] = {}
        for state in self.thread_states():
            for event, (count, seconds) in state.totals.items():
                entry = merged.setdefault(event, [0, 0.0])
                entry[0] += count
                entry[1] += seconds
        out: Dict[str, Dict[str, float]] = {}
        for event, (count, seconds) in sorted(merged.items()):
            hist = self._histograms.get(event)
            entry: Dict[str, float] = {
                "count": int(count), "seconds": seconds,
            }
            if hist is not None and hist.count:
                entry.update(p50=hist.p50, p95=hist.p95, p99=hist.p99)
            out[event] = entry
        return out

    def hottest_rows(self, limit: int = 10) -> List[Dict[str, Any]]:
        """The lock keys threads waited on most (by total wait seconds)."""
        with self._mutex:
            items = list(self._lock_keys.items())
        items.sort(key=lambda kv: kv[1][1], reverse=True)
        out = []
        for key, (count, seconds) in items[:limit]:
            table, row_id = key if isinstance(key, tuple) else (key, None)
            out.append({
                "table": table,
                "row_id": row_id,
                "waits": int(count),
                "seconds": seconds,
            })
        return out


#: the process-wide monitor every instrumented site reads
WAITS = WaitMonitor()


# -- contention attribution -------------------------------------------------


class WaitAttribution:
    """Wall-time decomposition: off-CPU wait classes + on-CPU buckets.

    ``busy_seconds`` is the total thread-time being decomposed (wall
    seconds x concurrent clients for a workload; plain wall seconds for
    one statement). Off-CPU classes subtract from it; the attributed
    ``CPU:*`` buckets and the remainder ("other on-CPU") split what is
    left, so the decomposition always sums to ``busy_seconds`` unless
    recorded waits exceed it (overlap — reported as ``overcount``).
    """

    def __init__(self, summary: Dict[str, Dict[str, float]],
                 busy_seconds: float,
                 hottest: Optional[List[Dict[str, Any]]] = None):
        self.summary = summary
        self.busy_seconds = busy_seconds
        self.hottest = hottest or []

    @classmethod
    def capture(cls, monitor: WaitMonitor, busy_seconds: float,
                hottest_limit: int = 10) -> "WaitAttribution":
        return cls(
            monitor.summary(), busy_seconds,
            monitor.hottest_rows(hottest_limit),
        )

    # -- derived figures ---------------------------------------------------

    def class_seconds(self) -> Dict[str, float]:
        """Per-class total seconds, including zero-valued classes."""
        out = {cls_name: 0.0 for cls_name in WAIT_CLASSES}
        for event, entry in self.summary.items():
            out[event.split(":", 1)[0]] += entry["seconds"]
        return out

    @property
    def off_cpu_seconds(self) -> float:
        return sum(
            seconds for cls_name, seconds in self.class_seconds().items()
            if cls_name != CPU_CLASS
        )

    @property
    def attributed_cpu_seconds(self) -> float:
        return self.class_seconds()[CPU_CLASS]

    @property
    def other_cpu_seconds(self) -> float:
        """on-CPU time not covered by an attributed CPU bucket."""
        return max(
            0.0,
            self.busy_seconds - self.off_cpu_seconds
            - self.attributed_cpu_seconds,
        )

    @property
    def overcount_seconds(self) -> float:
        """Recorded time beyond ``busy_seconds`` (overlapping records)."""
        recorded = self.off_cpu_seconds + self.attributed_cpu_seconds
        return max(0.0, recorded - self.busy_seconds)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "busy_seconds": self.busy_seconds,
            "off_cpu_seconds": self.off_cpu_seconds,
            "attributed_cpu_seconds": self.attributed_cpu_seconds,
            "other_cpu_seconds": self.other_cpu_seconds,
            "overcount_seconds": self.overcount_seconds,
            "classes": self.class_seconds(),
            "events": self.summary,
            "hottest_rows": self.hottest,
        }

    # -- rendering ---------------------------------------------------------

    def render(self, title: str = "wait-event attribution") -> str:
        busy = self.busy_seconds or 1e-12
        lines = [
            f"-- {title} (busy {self.busy_seconds:.2f}s) --",
            f"{'event':<28s} {'count':>8s} {'seconds':>9s} {'%busy':>7s} "
            f"{'p50':>9s} {'p95':>9s} {'p99':>9s}",
        ]

        def pct(seconds: float) -> str:
            return f"{100.0 * seconds / busy:6.1f}%"

        def ms(entry: Dict[str, float], key: str) -> str:
            value = entry.get(key)
            return f"{value * 1e3:8.3f}m" if value is not None else "      --"

        for event in sorted(self.summary):
            entry = self.summary[event]
            lines.append(
                f"{event:<28s} {entry['count']:>8d} "
                f"{entry['seconds']:>8.3f}s {pct(entry['seconds'])} "
                f"{ms(entry, 'p50')} {ms(entry, 'p95')} {ms(entry, 'p99')}"
            )
        lines.append(
            f"{'on-CPU (other)':<28s} {'':>8s} "
            f"{self.other_cpu_seconds:>8.3f}s {pct(self.other_cpu_seconds)}"
        )
        if self.overcount_seconds > 0.0:
            lines.append(
                f"{'(overlap overcount)':<28s} {'':>8s} "
                f"{self.overcount_seconds:>8.3f}s"
            )
        if self.hottest:
            lines.append("-- hottest rows (by lock-wait seconds) --")
            lines.append(
                f"{'table':<16s} {'row':>8s} {'waits':>7s} {'seconds':>9s}"
            )
            for row in self.hottest:
                lines.append(
                    f"{str(row['table']):<16s} {str(row['row_id']):>8s} "
                    f"{row['waits']:>7d} {row['seconds']:>8.3f}s"
                )
        return "\n".join(lines)


def summary_delta(before: Dict[str, Dict[str, float]],
                  after: Dict[str, Dict[str, float]],
                  ) -> Dict[str, Dict[str, float]]:
    """Per-event ``after - before`` (counts and seconds only — the
    histograms are cumulative, so percentile columns are omitted)."""
    out: Dict[str, Dict[str, float]] = {}
    for event, entry in after.items():
        base = before.get(event, {"count": 0, "seconds": 0.0})
        count = int(entry["count"] - base["count"])
        seconds = entry["seconds"] - base["seconds"]
        if count or seconds > 0.0:
            out[event] = {"count": count, "seconds": seconds}
    return out
