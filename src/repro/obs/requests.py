"""End-to-end request tracing for the service tier: a flight recorder.

The statement-level observability stack (spans, waits, statements)
stops at the engine boundary; since the query service went in, a slow
request's time is spent in places no statement trace can see — the
socket read, the admission queue, the cache lookup. This module ties
those together:

- a **trace context** (``trace_id`` / ``span_id`` / ``sent_at``) is
  generated client-side and propagated over the wire as the optional
  ``trace`` request field (additive — servers ignore what clients don't
  send, and old clients never send it);
- the server opens one :class:`~repro.obs.span.Span` per lifecycle
  stage (``net.recv`` / ``queue.wait`` / ``cache.lookup`` /
  ``execute`` / ``net.send``) and parents the
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

One request path: a traced and an untraced server run the same code.
The untraced one measures into :data:`NULL_REQUEST`, whose methods keep
nothing, so its only per-request tracing check is which request it
begins, and the recorder is never called — pinned by
``benchmarks/test_bench_disabled_overhead.py``.
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
    "NULL_REQUEST",
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


#: what a completed record keeps in its dict form (the slow log, the
#: ``trace`` op), with the value a dict without the key reads as
_KEPT = (
    ("trace_id", None), ("client_span_id", None), ("started_at", 0.0),
    ("sent_at", None), ("sql", ""), ("fingerprint", ""),
    ("outcome", "unknown"), ("cached", False), ("cache_status", None),
    ("stage_seconds", {}), ("total_seconds", 0.0),
    ("clock_skew_seconds", 0.0), ("retained", False),
)


class RequestRecord:
    """One request, from :meth:`FlightRecorder.begin` to its reply.

    In flight it gathers stage timings as ``(name, perf_start, seconds,
    detail)`` tuples, and the recorder's ``query_end`` hook appends the
    executor's statement traces while a worker thread is bound to it;
    :meth:`FlightRecorder.finish` completes it in place. The ring, the
    slow log and the ``jackpine_requests`` view keep the completed
    record, and ``root`` carries the full linked span tree only when
    the tail sampler retained it.
    """

    __slots__ = (
        "recorder", "trace_id", "client_span_id", "sent_at", "sql",
        "started_at", "start", "stages", "traces", "outcome", "cached",
        "cache_status", "fingerprint", "stage_seconds", "total_seconds",
        "clock_skew_seconds", "retained", "root",
    )

    def __init__(self, recorder: Optional["FlightRecorder"], trace_id: str,
                 sql: str, client_span_id: Optional[str] = None,
                 sent_at: Optional[float] = None):
        #: the recorder that began the request (None when read back)
        self.recorder = recorder
        self.trace_id = trace_id
        #: the client's root span id (None for a server-minted trace)
        self.client_span_id = client_span_id
        #: client wall-clock epoch seconds at send time
        self.sent_at = sent_at
        self.sql = sql
        self.started_at = time.time()
        self.start = time.perf_counter()
        self.stages: List[Tuple[str, float, float, str]] = []
        self.traces: List[Any] = []
        self.outcome = "unknown"
        self.cached = False
        #: "hit" / "miss" / "stale" / "bypass" / None (never looked)
        self.cache_status: Optional[str] = None
        # the rest is filled in by FlightRecorder.finish
        self.fingerprint = ""
        #: per-stage seconds, e.g. ``{"queue.wait": 0.004, ...}``
        self.stage_seconds: Dict[str, float] = {}
        self.total_seconds = 0.0
        self.clock_skew_seconds = 0.0
        self.retained = False
        self.root: Optional[Span] = None

    def stage(self, name: str, perf_start: float, seconds: float,
              detail: str = "") -> None:
        self.stages.append((name, perf_start, seconds, detail))

    def note_cache(self, status: str) -> None:
        self.cache_status = status

    def complete(self, outcome: str, cached: bool = False) -> None:
        self.outcome = outcome
        self.cached = cached

    def bind(self) -> None:
        self.recorder.bind(self)

    def unbind(self) -> None:
        self.recorder.unbind()

    def finish(self, send_seconds: float = 0.0) -> None:
        self.recorder.finish(self, send_seconds)

    @property
    def shed(self) -> bool:
        return self.outcome in SHED_OUTCOMES

    def span_count(self) -> int:
        return self.root.total_spans() if self.root is not None else 0

    def as_dict(self) -> Dict[str, Any]:
        data = {name: getattr(self, name) for name, _default in _KEPT}
        data.update(
            shed=self.shed, stage_seconds=dict(self.stage_seconds),
            root=self.root.to_dict() if self.root is not None else None,
        )
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RequestRecord":
        record = cls(None, data["trace_id"], "")
        for name, default in _KEPT:
            setattr(record, name, data.get(name, default))
        record.stage_seconds = dict(record.stage_seconds)
        root = data.get("root")
        record.root = Span.from_dict(root) if root is not None else None
        return record

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


class _NullRequest:
    """What an untraced server measures into: it keeps nothing and calls
    no recorder, so both kinds of server run the same request code."""

    __slots__ = ()
    trace_id = None

    def stage(self, *_args: Any, **_kwargs: Any) -> None:
        """Drop the measurement."""

    note_cache = complete = bind = unbind = finish = stage


#: the request of every untraced server (and of a direct cache call)
NULL_REQUEST = _NullRequest()


class SlowLog:
    """Append-only JSON-lines log of tail-sampled requests with
    size-based rotation: when the file would exceed ``max_bytes`` (4 MiB
    for a server's log) the current file is renamed to ``<path>.1``
    (replacing any previous rollover) and a fresh file is started —
    post-mortems survive the process, disk usage stays bounded at ~2x
    ``max_bytes``."""

    def __init__(self, path: str, max_bytes: int = 4 * 1024 * 1024):
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
        #: a traced server is recording into this recorder
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

    # -- a traced server's start and stop ----------------------------------

    def start(self, database: Any, slow_threshold: float,
              slow_log: Optional[str] = None) -> None:
        """Record the requests a traced server over ``database`` serves:
        retain those at or above ``slow_threshold`` seconds, append the
        retained ones to the slow log at path ``slow_log`` when given,
        and switch on span-capturing tracing on the engine with the
        ``query_end`` hook that routes each executor trace to the
        request whose worker thread ran it."""
        with self._lock:
            self.slow_threshold = float(slow_threshold)
            if self.slow_log is not None:
                self.slow_log.close()
            self.slow_log = SlowLog(slow_log) if slow_log else None
        obs = database.obs
        if self._on_query_end not in obs.query_end:
            obs.on_query_end(self._on_query_end)
        obs.enable_tracing()
        self.enabled = True

    def stop(self, database: Any) -> None:
        """Stop recording and close the slow log; the buffered records
        stay readable — post-mortems outlive the server that made them."""
        self.enabled = False
        database.obs.remove_query_end(self._on_query_end)
        database.obs.disable_tracing()
        with self._lock:
            if self.slow_log is not None:
                self.slow_log.close()
                self.slow_log = None

    def reset(self) -> None:
        with self._lock:
            self._records.clear()
            self.requests_total = 0
            self.retained_total = 0
            self._outcomes = {}

    # -- engine linkage ----------------------------------------------------

    def _on_query_end(self, trace: Any) -> None:
        # thread-keyed correlation: the worker thread that executes a
        # request's statement is bound to its record for exactly the
        # duration of CachedExecutor.resolve, so a shared database
        # serving concurrent workers never cross-files a trace
        record = getattr(self._local, "record", None)
        if record is not None:
            record.traces.append(trace)

    def bind(self, record: RequestRecord) -> None:
        self._local.record = record

    def unbind(self) -> None:
        self._local.record = None

    # -- request lifecycle -------------------------------------------------

    def begin(self, ctx: Optional[TraceContext], sql: str,
              recv_seconds: float = 0.0) -> RequestRecord:
        """Open a request whose body took ``recv_seconds`` to read; a
        server-originated context is minted when the client sent none
        (old clients still get traced)."""
        if ctx is None:
            ctx = TraceContext(new_trace_id())
        record = RequestRecord(self, ctx.trace_id, sql, ctx.span_id,
                               ctx.sent_at)
        if recv_seconds > 0.0:
            record.stage("net.recv", record.start - recv_seconds,
                         recv_seconds)
        return record

    def finish(self, record: RequestRecord,
               send_seconds: float = 0.0) -> RequestRecord:
        """Complete one request in place: total, tail sample, span tree,
        clock skew and fingerprint; then ring-append it and slow-log it
        when retained."""
        now = time.perf_counter()
        if send_seconds > 0.0:
            record.stage("net.send", now - send_seconds, send_seconds)
        first = min(
            [record.start] + [start for _n, start, _s, _d in record.stages]
        )
        # the record's clocks now start at its first stage
        record.started_at += first - record.start
        record.start = first
        record.total_seconds = now - first
        record.retained = (
            record.outcome != "ok"
            or record.total_seconds >= self.slow_threshold
            or record.cache_status == "stale"
        )
        if record.sent_at is not None:
            record.clock_skew_seconds = max(
                0.0, record.sent_at - record.started_at
            )
        record.fingerprint = fingerprint(record.sql)
        record.stage_seconds = {
            name: seconds for name, _start, seconds, _d in record.stages
        }
        if record.retained:
            record.root = self._build_tree(record)
        record.traces = []  # the kept tree holds what a post-mortem needs
        with self._lock:
            self._records.append(record)
            self.requests_total += 1
            if record.retained:
                self.retained_total += 1
            self._outcomes[record.outcome] = (
                self._outcomes.get(record.outcome, 0) + 1
            )
            slow_log = self.slow_log
        if record.retained and slow_log is not None:
            slow_log.write(record.as_dict())
        return record

    def _build_tree(self, record: RequestRecord) -> Span:
        """The linked span tree, all ``started`` values in epoch seconds:
        client span -> service.request -> lifecycle stages, with the
        executor's statement trace parented under ``execute``."""

        def to_epoch(perf_value: float) -> float:
            return record.started_at + (perf_value - record.start)

        request = Span("service.request", detail=record.sql[:120])
        traces = record.traces
        for name, start, seconds, detail in sorted(
            record.stages, key=lambda item: item[1]
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
             if child.started is not None] or [record.started_at]
        )
        request.seconds = record.total_seconds
        if record.sent_at is None:
            return request
        # causality clamp: the server cannot have started before the
        # client sent; a later sent_at is clock skew, normalized out
        client = Span(
            "client.request",
            detail=f"span {record.client_span_id or '?'}",
            children=[request],
        )
        client.started = min(record.sent_at - record.clock_skew_seconds,
                             request.started)
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


def chrome_trace(record: RequestRecord) -> Dict[str, Any]:
    """The merged Chrome-trace (``chrome://tracing`` / Perfetto) JSON for
    one retained request: the client span on its own track (pid 1), the
    server lifecycle + executor spans on another (pid 2), timestamps
    normalized to the trace origin with the clock-skew clamp already
    applied to the stored tree."""
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
