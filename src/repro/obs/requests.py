"""End-to-end request tracing for the service tier: a flight recorder.

The statement-level observability stack (spans, waits, statements)
stops at the engine boundary; since the query service went in, a slow
request's time is spent in places no statement trace can see — the
socket read, the admission queue, the session-pool wait, the cache
lookup. This module ties those together:

- a **trace context** (``trace_id`` / ``span_id`` / ``sent_at``) is
  generated client-side and propagated over the wire as the optional
  ``trace`` request field (additive — servers ignore what clients don't
  send, and old clients never send it);
- the server opens one :class:`~repro.obs.span.Span` per lifecycle
  stage (``net.recv`` / ``queue.wait`` / ``session.acquire`` /
  ``cache.lookup`` / ``execute`` / ``net.send``) and parents the
  executor's own ``SpanNode`` trace under the ``execute`` stage, so one
  request yields **one linked tree** from the client's send to the
  server's last byte;
- every completed request files a compact :class:`RequestRecord` into
  the bounded :class:`FlightRecorder` ring, and a **tail-based
  sampler** keeps the *full* span tree only for requests worth a
  post-mortem: slow, errored, shed, or cache-stale-adjacent ones.

Records are queryable through the ``jackpine_requests`` system view,
dumpable as merged client+server Chrome-trace JSON (``jackpine trace
TRACE_ID``), and optionally appended to a size-rotated slow log so they
survive process exit.

Clock-offset normalization: the client's ``sent_at`` is its own wall
clock. The server cannot know the true offset from one timestamp, but
causality bounds it — the server cannot *receive* before the client
*sent* — so a ``sent_at`` later than the server's first stage is
clamped back and the correction reported as ``clock_skew_seconds``.
Within one host (the common deployment here) both sides read the same
clock and the skew is zero.

Disabled-path discipline: when no server enables tracing, the recorder
costs the service exactly one attribute check per request, the same
contract as :data:`~repro.obs.waits.WAITS` and the observability
switchboard — pinned by ``benchmarks/test_bench_disabled_overhead.py``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.span import Span
from repro.obs.statements import fingerprint

__all__ = [
    "RECORDER",
    "FlightRecorder",
    "PendingRequest",
    "RequestRecord",
    "SlowLog",
    "TraceContext",
    "chrome_trace",
    "new_span_id",
    "new_trace_id",
    "read_slow_log",
]

#: request outcomes that count as load shedding (the request never ran)
SHED_OUTCOMES = ("shed_queue_full", "shed_deadline", "overloaded")

# trace ids must be unique across client processes but cheap to mint on
# the per-request hot path: a random per-process prefix + a counter
_ID_PREFIX = os.urandom(6).hex()
_ID_COUNTER = itertools.count(1)


def new_trace_id() -> str:
    """A 20-hex-char id: random process prefix + sequence number."""
    return f"{_ID_PREFIX}{next(_ID_COUNTER) & 0xFFFFFFFF:08x}"


def new_span_id() -> str:
    return os.urandom(4).hex()


class TraceContext:
    """The wire-propagated half of a trace: who started it and when."""

    __slots__ = ("trace_id", "span_id", "sent_at")

    def __init__(self, trace_id: str, span_id: Optional[str] = None,
                 sent_at: Optional[float] = None):
        self.trace_id = trace_id
        #: the client's root span id (None when the server originated
        #: the trace for a context-less client)
        self.span_id = span_id
        #: client wall-clock epoch seconds at send time
        self.sent_at = sent_at

    @classmethod
    def fresh(cls) -> "TraceContext":
        return cls(new_trace_id(), new_span_id(), time.time())

    def to_wire(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"trace_id": self.trace_id}
        if self.span_id is not None:
            payload["span_id"] = self.span_id
        if self.sent_at is not None:
            payload["sent_at"] = self.sent_at
        return payload

    @classmethod
    def from_wire(cls, payload: Any) -> Optional["TraceContext"]:
        """Parse the optional ``trace`` request field; ``None`` when the
        field is absent or malformed (a bad context must never fail the
        request — compatibility rule for old clients and foreign ones).
        """
        if not isinstance(payload, dict):
            return None
        trace_id = payload.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        span_id = payload.get("span_id")
        sent_at = payload.get("sent_at")
        return cls(
            trace_id[:64],
            span_id if isinstance(span_id, str) else None,
            float(sent_at) if isinstance(sent_at, (int, float)) else None,
        )


class PendingRequest:
    """One in-flight request's accumulating measurements.

    Stage timings arrive as ``(name, perf_start, seconds, detail)``
    tuples; the executor's statement traces are appended by the
    recorder's ``query_end`` hook while the worker thread is bound to
    this request. Also duck-types the ``stages`` sink the
    :class:`~repro.service.cache.CachedExecutor` reports into.
    """

    __slots__ = (
        "ctx", "sql", "started_at", "start", "stages", "traces",
        "outcome", "cached", "cache_status",
    )

    def __init__(self, ctx: TraceContext, sql: str):
        self.ctx = ctx
        self.sql = sql
        self.started_at = time.time()
        self.start = time.perf_counter()
        self.stages: List[Tuple[str, float, float, str]] = []
        self.traces: List[Any] = []
        self.outcome = "unknown"
        self.cached = False
        #: "hit" / "miss" / "stale" / "bypass" / None (never looked)
        self.cache_status: Optional[str] = None

    @property
    def trace_id(self) -> str:
        return self.ctx.trace_id

    def stage(self, name: str, perf_start: float, seconds: float,
              detail: str = "") -> None:
        self.stages.append((name, perf_start, seconds, detail))

    def complete(self, outcome: str, cached: bool = False) -> None:
        self.outcome = outcome
        self.cached = cached


class RequestRecord:
    """One completed request, compact by default; ``root`` carries the
    full linked span tree only when the tail sampler retained it."""

    __slots__ = (
        "trace_id", "client_span_id", "started_at", "sent_at", "sql",
        "fingerprint", "outcome", "cached", "cache_status",
        "stage_seconds", "total_seconds", "clock_skew_seconds",
        "retained", "root",
    )

    def __init__(self, trace_id: str, client_span_id: Optional[str],
                 started_at: float, sent_at: Optional[float], sql: str,
                 sql_fingerprint: str, outcome: str, cached: bool,
                 cache_status: Optional[str],
                 stage_seconds: Dict[str, float], total_seconds: float,
                 clock_skew_seconds: float, retained: bool,
                 root: Optional[Span]):
        self.trace_id = trace_id
        self.client_span_id = client_span_id
        self.started_at = started_at
        self.sent_at = sent_at
        self.sql = sql
        self.fingerprint = sql_fingerprint
        self.outcome = outcome
        self.cached = cached
        self.cache_status = cache_status
        #: per-stage seconds, e.g. ``{"queue.wait": 0.004, ...}``
        self.stage_seconds = stage_seconds
        self.total_seconds = total_seconds
        self.clock_skew_seconds = clock_skew_seconds
        self.retained = retained
        self.root = root

    @property
    def shed(self) -> bool:
        return self.outcome in SHED_OUTCOMES

    def span_count(self) -> int:
        return self.root.total_spans() if self.root is not None else 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "client_span_id": self.client_span_id,
            "started_at": self.started_at,
            "sent_at": self.sent_at,
            "sql": self.sql,
            "fingerprint": self.fingerprint,
            "outcome": self.outcome,
            "shed": self.shed,
            "cached": self.cached,
            "cache_status": self.cache_status,
            "stage_seconds": dict(self.stage_seconds),
            "total_seconds": self.total_seconds,
            "clock_skew_seconds": self.clock_skew_seconds,
            "retained": self.retained,
            "root": self.root.to_dict() if self.root is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RequestRecord":
        root = data.get("root")
        return cls(
            trace_id=data["trace_id"],
            client_span_id=data.get("client_span_id"),
            started_at=data.get("started_at", 0.0),
            sent_at=data.get("sent_at"),
            sql=data.get("sql", ""),
            sql_fingerprint=data.get("fingerprint", ""),
            outcome=data.get("outcome", "unknown"),
            cached=bool(data.get("cached")),
            cache_status=data.get("cache_status"),
            stage_seconds=dict(data.get("stage_seconds", ())),
            total_seconds=data.get("total_seconds", 0.0),
            clock_skew_seconds=data.get("clock_skew_seconds", 0.0),
            retained=bool(data.get("retained")),
            root=Span.from_dict(root) if root is not None else None,
        )

    def brief(self) -> Dict[str, Any]:
        """The compact listing row (``jackpine trace`` with no id)."""
        return {
            "trace_id": self.trace_id,
            "started_at": self.started_at,
            "outcome": self.outcome,
            "cached": self.cached,
            "total_ms": round(self.total_seconds * 1e3, 3),
            "retained": self.retained,
            "sql": self.sql[:120],
        }


class SlowLog:
    """Append-only JSON-lines log of tail-sampled requests with
    size-based rotation: when the file would exceed ``max_bytes`` the
    current file is renamed to ``<path>.1`` (replacing any previous
    rollover) and a fresh file is started — post-mortems survive the
    process, disk usage stays bounded at ~2x ``max_bytes``."""

    def __init__(self, path: str, max_bytes: int = 4 * 1024 * 1024):
        if max_bytes < 1024:
            raise ValueError("slow-log max_bytes must be >= 1024")
        self.path = path
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._handle = open(path, "a", encoding="utf-8")

    def write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._lock:
            if self._handle is None:
                return
            if self._handle.tell() + len(line) > self.max_bytes \
                    and self._handle.tell() > 0:
                self._handle.close()
                os.replace(self.path, self.path + ".1")
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line)
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def read_slow_log(path: str) -> List[RequestRecord]:
    """Records from a slow log (rollover file first, oldest-first)."""
    out: List[RequestRecord] = []
    for candidate in (path + ".1", path):
        if not os.path.exists(candidate):
            continue
        with open(candidate, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    out.append(RequestRecord.from_dict(json.loads(line)))
    return out


class FlightRecorder:
    """Bounded ring of request records with a tail-based sampler.

    The ring keeps the last ``capacity`` compact records regardless of
    interest; the *full* span tree is attached (and the slow log
    written) only when a request is slow (``>= slow_threshold``),
    errored, shed, or hit a cache-stale-adjacent lookup — the head-
    sampling alternative would keep a fixed fraction of boring requests
    and miss exactly the traces a post-mortem needs.
    """

    DEFAULT_CAPACITY = 2048

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 slow_threshold: float = 0.1):
        #: the one flag the service checks per request
        self.enabled = False
        self.capacity = capacity
        #: seconds at or above which a request's full trace is retained
        self.slow_threshold = slow_threshold
        self.slow_log: Optional[SlowLog] = None
        self._lock = threading.Lock()
        self._records: Deque[RequestRecord] = deque(maxlen=capacity)
        self._local = threading.local()
        self.requests_total = 0
        self.retained_total = 0
        self._outcomes: Dict[str, int] = {}
        self._hooked_obs: List[Any] = []

    # -- switches ----------------------------------------------------------

    def configure(self, slow_threshold: Optional[float] = None,
                  capacity: Optional[int] = None,
                  slow_log: Optional[SlowLog] = None) -> "FlightRecorder":
        with self._lock:
            if slow_threshold is not None:
                self.slow_threshold = float(slow_threshold)
            if capacity is not None and capacity != self.capacity:
                self.capacity = int(capacity)
                self._records = deque(self._records, maxlen=self.capacity)
            if slow_log is not None:
                if self.slow_log is not None:
                    self.slow_log.close()
                self.slow_log = slow_log
        return self

    def enable(self) -> "FlightRecorder":
        self.enabled = True
        return self

    def disable(self) -> "FlightRecorder":
        self.enabled = False
        return self

    def reset(self) -> None:
        with self._lock:
            self._records.clear()
            self.requests_total = 0
            self.retained_total = 0
            self._outcomes = {}

    def close_log(self) -> None:
        with self._lock:
            if self.slow_log is not None:
                self.slow_log.close()
                self.slow_log = None

    # -- engine linkage ----------------------------------------------------

    def install(self, database: Any) -> None:
        """Attach to one database: enable span-capturing tracing and
        register the ``query_end`` hook that routes each executor trace
        to the request whose worker thread ran it."""
        obs = database.obs
        if obs in self._hooked_obs:
            return
        obs.on_query_end(self._on_query_end)
        obs.enable_tracing()
        self._hooked_obs.append(obs)

    def uninstall(self, database: Any) -> None:
        obs = database.obs
        if obs not in self._hooked_obs:
            return
        self._hooked_obs.remove(obs)
        obs.remove_query_end(self._on_query_end)
        obs.disable_tracing()

    def _on_query_end(self, trace: Any) -> None:
        # thread-keyed correlation: the worker thread that executes a
        # request's statement is bound to its PendingRequest for exactly
        # the duration of CachedExecutor.execute, so a shared database
        # serving concurrent workers never cross-files a trace
        pending = getattr(self._local, "pending", None)
        if pending is not None:
            pending.traces.append(trace)

    def bind(self, pending: PendingRequest) -> None:
        self._local.pending = pending

    def unbind(self) -> None:
        self._local.pending = None

    # -- request lifecycle -------------------------------------------------

    def begin(self, ctx: Optional[TraceContext], sql: str) -> PendingRequest:
        """Open a request; a server-originated context is minted when
        the client sent none (old clients still get traced)."""
        if ctx is None:
            ctx = TraceContext(new_trace_id())
        return PendingRequest(ctx, sql)

    def finish(self, pending: PendingRequest,
               send_seconds: float = 0.0) -> RequestRecord:
        """File one completed request: tail-sample, ring-append, and
        slow-log the retained ones."""
        now = time.perf_counter()
        if send_seconds > 0.0:
            pending.stage("net.send", now - send_seconds, send_seconds)
        first = min(
            [pending.start] + [start for _n, start, _s, _d in pending.stages]
        )
        total = now - first
        outcome = pending.outcome
        retained = (
            outcome != "ok"
            or total >= self.slow_threshold
            or pending.cache_status == "stale"
        )
        started_epoch = pending.started_at + (first - pending.start)
        sent_at = pending.ctx.sent_at
        skew = (
            max(0.0, sent_at - started_epoch) if sent_at is not None else 0.0
        )
        root = self._build_tree(pending, total, skew) if retained else None
        record = RequestRecord(
            trace_id=pending.ctx.trace_id,
            client_span_id=pending.ctx.span_id,
            started_at=started_epoch,
            sent_at=sent_at,
            sql=pending.sql,
            sql_fingerprint=fingerprint(pending.sql),
            outcome=outcome,
            cached=pending.cached,
            cache_status=pending.cache_status,
            stage_seconds={
                name: seconds for name, _start, seconds, _d in pending.stages
            },
            total_seconds=total,
            clock_skew_seconds=skew,
            retained=retained,
            root=root,
        )
        with self._lock:
            self._records.append(record)
            self.requests_total += 1
            if retained:
                self.retained_total += 1
            self._outcomes[outcome] = self._outcomes.get(outcome, 0) + 1
            slow_log = self.slow_log
        if retained and slow_log is not None:
            slow_log.write(record.as_dict())
        return record

    def _build_tree(self, pending: PendingRequest, total: float,
                    skew: float) -> Span:
        """The linked span tree, all ``started`` values in epoch seconds:
        client span -> service.request -> lifecycle stages, with the
        executor's statement trace parented under ``execute``."""

        def to_epoch(perf_value: float) -> float:
            return pending.started_at + (perf_value - pending.start)

        request = Span("service.request", detail=pending.sql[:120])
        traces = list(pending.traces)
        for name, start, seconds, detail in sorted(
            pending.stages, key=lambda item: item[1]
        ):
            stage = Span(name, detail=detail or name)
            stage.started = to_epoch(start)
            stage.seconds = seconds
            if name == "execute":
                for trace in traces:
                    stage.children.append(self._statement_span(
                        trace, to_epoch
                    ))
                traces = []
            request.children.append(stage)
        for trace in traces:  # an execute stage never closed (errors)
            request.children.append(self._statement_span(trace, to_epoch))
        request.started = min(
            [child.started for child in request.children
             if child.started is not None] or [to_epoch(pending.start)]
        )
        request.seconds = total
        sent_at = pending.ctx.sent_at
        if sent_at is None:
            return request
        # causality clamp: the server cannot have started before the
        # client sent; a later sent_at is clock skew, normalized out
        client = Span(
            "client.request",
            detail=f"span {pending.ctx.span_id or '?'}",
            children=[request],
        )
        client.started = min(sent_at - skew, request.started)
        client.seconds = (request.started + request.seconds) - client.started
        return client

    @staticmethod
    def _statement_span(trace: Any, to_epoch) -> Span:
        """One executor statement as a span subtree on the epoch
        timeline (operator ``started`` values are perf-counter based)."""
        if trace.root is not None:
            root = Span.from_dict(trace.root.to_dict())
            for _depth, span in root.walk():
                if span.started is not None:
                    span.started = to_epoch(span.started)
        else:
            root = Span("statement", detail=trace.sql[:120])
        if root.started is None:
            root.started = trace.started_at
        if root.seconds == 0.0:
            root.seconds = trace.seconds
        root.rows = root.rows or trace.rows
        return root

    # -- reading back ------------------------------------------------------

    def records(self) -> List[RequestRecord]:
        with self._lock:
            return list(self._records)

    def lookup(self, trace_id: str) -> Optional[RequestRecord]:
        with self._lock:
            for record in reversed(self._records):
                if record.trace_id == trace_id:
                    return record
        return None

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "capacity": self.capacity,
                "buffered": len(self._records),
                "total": self.requests_total,
                "retained": self.retained_total,
                "dropped": max(0, self.requests_total - self.capacity),
                "slow_threshold_ms": self.slow_threshold * 1e3,
                "outcomes": dict(self._outcomes),
            }


def chrome_trace(record: Any) -> Dict[str, Any]:
    """The merged Chrome-trace (``chrome://tracing`` / Perfetto) JSON for
    one retained request: the client span on its own track (pid 1), the
    server lifecycle + executor spans on another (pid 2), timestamps
    normalized to the trace origin with the clock-skew clamp already
    applied to the stored tree."""
    if isinstance(record, dict):
        record = RequestRecord.from_dict(record)
    if record.root is None:
        raise ValueError(
            f"trace {record.trace_id} was not retained by the tail "
            f"sampler (no span tree to render)"
        )
    origin = record.root.started or record.started_at
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 1,
         "args": {"name": "client"}},
        {"name": "process_name", "ph": "M", "pid": 2,
         "args": {"name": "server"}},
    ]
    for _depth, span in record.root.walk():
        start = span.started if span.started is not None else origin
        events.append({
            "name": span.op,
            "cat": "request",
            "ph": "X",
            "ts": round(max(0.0, start - origin) * 1e6, 3),
            "dur": round(span.seconds * 1e6, 3),
            "pid": 1 if span.op.startswith("client.") else 2,
            "tid": 1,
            "args": {
                "detail": span.detail,
                "rows": span.rows,
                "counters": dict(span.counters),
            },
        })
    return {
        "traceEvents": events,
        "otherData": {
            "trace_id": record.trace_id,
            "sql": record.sql,
            "outcome": record.outcome,
            "cached": record.cached,
            "cache_status": record.cache_status,
            "total_seconds": record.total_seconds,
            "clock_skew_seconds": record.clock_skew_seconds,
            "stage_seconds": dict(record.stage_seconds),
        },
    }


#: the process-wide recorder (the ``jackpine_requests`` view reads it)
RECORDER = FlightRecorder()
