"""Active-session-history sampler over the wait-event monitor.

The classic ASH idea (Oracle's v$active_session_history, Postgres's
pg_stat_activity polled on a timer): a background thread snapshots every
active session — current statement, transaction id, wait state,
rows-processed progress — at a fixed interval into a bounded history.
Aggregating the samples approximates where wall time went without
per-event overhead; the exact per-event numbers come from the wait
totals themselves (:class:`~repro.obs.waits.WaitAttribution`).

The sampler only sees threads that report through
:data:`~repro.obs.waits.WAITS` (statements via ``begin_statement``,
off-CPU waits via ``WAITS.timed``), so it is useful exactly when the
monitor is enabled. ``start``/``stop`` are idempotent; the thread is a
daemon and never outlives :meth:`AshSampler.stop`.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from typing import Any, Deque, Dict, List, Optional

from repro.obs.waits import WAITS, WaitMonitor

__all__ = [
    "AshSample",
    "AshSampler",
    "active_samplers",
    "registered_samples",
    "render_sessions",
]

#: samplers currently running, so the ``jackpine_ash`` system view can
#: find their histories without holding a reference to any one sampler
_REGISTRY_LOCK = threading.Lock()
_ACTIVE_SAMPLERS: List["AshSampler"] = []


def active_samplers() -> List["AshSampler"]:
    """Every sampler between ``start()`` and ``stop()`` right now."""
    with _REGISTRY_LOCK:
        return list(_ACTIVE_SAMPLERS)


def registered_samples() -> List["AshSample"]:
    """All buffered samples across running samplers, oldest first per
    sampler — the row source of the ``jackpine_ash`` system view."""
    out: List[AshSample] = []
    for sampler in active_samplers():
        out.extend(sampler.samples())
    return out


class AshSample:
    """One active session observed at one sampling instant."""

    __slots__ = (
        "sampled_at", "thread_id", "session_id", "engine", "sql", "txid",
        "wait_event", "wait_seconds", "statement_seconds", "rows_processed",
    )

    def __init__(self, sampled_at: float, session: Dict[str, Any]):
        self.sampled_at = sampled_at
        self.thread_id = session["thread_id"]
        self.session_id = session["session_id"]
        self.engine = session["engine"]
        self.sql = session["sql"]
        self.txid = session["txid"]
        self.wait_event = session["wait_event"]
        self.wait_seconds = session["wait_seconds"]
        self.statement_seconds = session["statement_seconds"]
        self.rows_processed = session["rows_processed"]

    def as_dict(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.wait_event or "on CPU"
        return f"AshSample(thread={self.thread_id}, {state}, sql={self.sql!r})"


class AshSampler:
    """Background active-session sampler (see module docstring)."""

    #: default sampling interval in seconds
    DEFAULT_INTERVAL = 0.01

    #: default bounded history length (samples, not sampling instants)
    DEFAULT_CAPACITY = 4096

    def __init__(self, monitor: Optional[WaitMonitor] = None,
                 interval: float = DEFAULT_INTERVAL,
                 capacity: int = DEFAULT_CAPACITY):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.monitor = monitor if monitor is not None else WAITS
        self.interval = interval
        self._history: Deque[AshSample] = deque(maxlen=capacity)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self.sample_instants = 0

    # -- lifecycle (idempotent) --------------------------------------------

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "AshSampler":
        with self._lock:
            if self.running:
                return self
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="jackpine-ash", daemon=True
            )
            self._thread.start()
        with _REGISTRY_LOCK:
            if self not in _ACTIVE_SAMPLERS:
                _ACTIVE_SAMPLERS.append(self)
        return self

    def stop(self) -> "AshSampler":
        with self._lock:
            thread = self._thread
            if thread is None:
                return self
            self._stop.set()
            thread.join(timeout=5.0)
            self._thread = None
        with _REGISTRY_LOCK:
            if self in _ACTIVE_SAMPLERS:
                _ACTIVE_SAMPLERS.remove(self)
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    def sample_once(self) -> List[AshSample]:
        """Take one sampling pass right now (also used by tests)."""
        now = time.time()
        batch = [
            AshSample(now, session)
            for session in self.monitor.active_sessions()
        ]
        self._history.extend(batch)
        self.sample_instants += 1
        return batch

    # -- views -------------------------------------------------------------

    def samples(self) -> List[AshSample]:
        return list(self._history)

    def clear(self) -> None:
        self._history.clear()
        self.sample_instants = 0

    def wait_state_counts(self) -> Dict[str, int]:
        """How many samples landed in each wait state ('on CPU' for
        none) — the ASH approximation of the time decomposition."""
        counts: Counter = Counter(
            sample.wait_event or "on CPU" for sample in self._history
        )
        return dict(counts)

    def export(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """The ``ash`` telemetry section (JSON-able, newest-last)."""
        samples = self.samples()
        if limit is not None:
            samples = samples[-limit:]
        return {
            "interval": self.interval,
            "sample_instants": self.sample_instants,
            "wait_state_counts": self.wait_state_counts(),
            "samples": [sample.as_dict() for sample in samples],
        }


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
        reason = (
            "no activity" if WAITS.enabled
            else "wait monitor disabled / sampler not running"
        )
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
