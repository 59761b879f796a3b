"""Query-engine observability: trace spans, metrics, hooks, telemetry.

One :class:`Observability` object hangs off every
:class:`~repro.engines.Database` and bundles the three concerns:

- **tracing** — per-operator span trees for SELECTs
  (:meth:`enable_tracing`, :attr:`last_trace`), plus slow-query
  auto-capture via :attr:`slow_query_threshold`;
- **metrics** — a per-connection :class:`MetricsRegistry` chained to the
  process-wide :data:`~repro.obs.metrics.GLOBAL` registry
  (:meth:`enable_metrics`);
- **hooks** — ``on_query_start`` / ``on_query_end`` /
  ``on_operator_close`` callbacks.

The engine has one statement path. When :attr:`active` — a plain
precomputed bool, the only thing that path reads while everything is
off — is set, it builds one :class:`Trace` event per statement and
hands it to :meth:`Observability.record`, the only fan-out: traces, the
slow log, metrics, the statement store and the ``query_end`` hooks (the
flight recorder is one) are all consumers of that event.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.obs.ash import AshSampler
from repro.obs.hooks import Hooks
from repro.obs.metrics import GLOBAL, Histogram, MetricsRegistry, percentile_of
from repro.obs.span import Span
from repro.obs.trace import Trace
from repro.obs.waits import WAIT_EVENTS, WAITS, WaitAttribution, WaitMonitor

# imported after waits: statements pulls in the SQL lexer, whose package
# init transitively re-enters repro.obs for the wait monitor
from repro.obs.statements import StatementStore  # noqa: E402
from repro.obs.requests import (  # noqa: E402
    RECORDER,
    FlightRecorder,
    RequestRecord,
    chrome_trace,
)

__all__ = [
    "GLOBAL",
    "RECORDER",
    "AshSampler",
    "FlightRecorder",
    "Hooks",
    "MetricsRegistry",
    "Observability",
    "RequestRecord",
    "Span",
    "StatementStore",
    "Trace",
    "WAIT_EVENTS",
    "WAITS",
    "WaitAttribution",
    "WaitMonitor",
    "chrome_trace",
    "percentile_of",
]


class Observability:
    """Per-database observability switchboard (see module docstring)."""

    #: how many auto-captured slow-query traces to keep
    SLOW_TRACE_CAPACITY = 16

    def __init__(self, metrics_parent: Optional[MetricsRegistry] = None):
        self.metrics = MetricsRegistry(
            parent=GLOBAL if metrics_parent is None else metrics_parent
        )
        self.hooks = Hooks()
        self.last_trace: Optional[Trace] = None
        self.slow_traces: Deque[Trace] = deque(maxlen=self.SLOW_TRACE_CAPACITY)
        self._tracing = False
        self._metrics_enabled = False
        self._slow_query_threshold: Optional[float] = None
        #: per-fingerprint statement/plan aggregates (pg_stat_statements
        #: style), fed by :meth:`record`
        self.statements = StatementStore()
        self.statements.on_flip = self._count_plan_flip
        #: the one flag the engine hot path reads; kept in sync by every
        #: mutator below so the disabled path never recomputes it
        self.active = False

    # -- switches ----------------------------------------------------------

    def _refresh(self) -> None:
        self.active = bool(
            self._tracing
            or self._metrics_enabled
            or self._slow_query_threshold is not None
            or self.hooks
            or self.statements.enabled
        )

    @property
    def tracing(self) -> bool:
        return self._tracing

    def enable_tracing(self) -> "Observability":
        self._tracing = True
        self._refresh()
        return self

    def disable_tracing(self) -> "Observability":
        self._tracing = False
        self._refresh()
        return self

    @property
    def metrics_enabled(self) -> bool:
        return self._metrics_enabled

    def enable_metrics(self) -> "Observability":
        self._metrics_enabled = True
        self._refresh()
        return self

    def disable_metrics(self) -> "Observability":
        self._metrics_enabled = False
        self._refresh()
        return self

    def enable_statements(self) -> "Observability":
        self.statements.enable()
        self._refresh()
        return self

    def disable_statements(self) -> "Observability":
        self.statements.disable()
        self._refresh()
        return self

    def _count_plan_flip(self) -> None:
        self.metrics.counter(
            "plan_flips_total",
            "statements whose captured plan shape changed",
        ).inc()

    @property
    def slow_query_threshold(self) -> Optional[float]:
        """Seconds; statements at or above it get their trace auto-kept."""
        return self._slow_query_threshold

    @slow_query_threshold.setter
    def slow_query_threshold(self, seconds: Optional[float]) -> None:
        self._slow_query_threshold = (
            float(seconds) if seconds is not None else None
        )
        self._refresh()

    # -- hook registration (decorator-friendly) ----------------------------

    def on_query_start(self, fn: Callable[[str, tuple], Any]):
        self.hooks.query_start.append(fn)
        self._refresh()
        return fn

    def on_query_end(self, fn: Callable[[Trace], Any]):
        self.hooks.query_end.append(fn)
        self._refresh()
        return fn

    def on_operator_close(self, fn: Callable[[Span], Any]):
        self.hooks.operator_close.append(fn)
        self._refresh()
        return fn

    def remove_query_end(self, fn: Callable[[Trace], Any]) -> None:
        """Unregister one ``query_end`` hook (no-op when absent) — the
        flight recorder detaches this way without clobbering hooks other
        subsystems registered."""
        try:
            self.hooks.query_end.remove(fn)
        except ValueError:
            pass
        self._refresh()

    def clear_hooks(self) -> None:
        self.hooks = Hooks()
        self._refresh()

    # -- recording (called by the engine) ----------------------------------

    @property
    def capture_spans(self) -> bool:
        """Whether SELECT executions should build a span tree."""
        return (
            self._tracing
            or self._slow_query_threshold is not None
            or bool(self.hooks.operator_close)
        )

    def record(self, trace: Trace) -> None:
        """Fan one statement event out to every enabled consumer: traces,
        slow log, metrics, the statement store, ``query_end`` hooks."""
        if self._tracing:
            self.last_trace = trace
        threshold = self._slow_query_threshold
        if threshold is not None and trace.seconds >= threshold:
            self.slow_traces.append(trace)
        if self._metrics_enabled:
            metrics = self.metrics
            metrics.counter(
                "queries_total", "statements executed"
            ).inc()
            metrics.counter(
                "rows_returned_total", "result rows returned"
            ).inc(trace.rows)
            metrics.histogram(
                "query_seconds", "statement latency"
            ).observe(trace.seconds)
            if trace.outcome != "ok":
                metrics.counter(
                    "query_errors_total",
                    "statements that failed (any outcome but ok)",
                ).inc()
        store = self.statements
        if store.enabled:
            if trace.plan is not None:
                store.record_plan(trace.sql, trace.plan)
            store.record(
                trace.sql, trace.seconds, trace.rows,
                counters=trace.counters, outcome=trace.outcome,
                wait_class_seconds=trace.wait_class_seconds,
            )
        self.hooks.fire_query_end(trace)
