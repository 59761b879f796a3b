"""Query-engine observability: trace spans, metrics, hooks, telemetry.

One :class:`Observability` object hangs off every
:class:`~repro.engines.Database`. It has three settable values:

- **tracing** — per-operator span trees for SELECTs
  (:meth:`enable_tracing`, :attr:`last_trace`);
- **statements** — the per-fingerprint :class:`StatementStore`
  (:meth:`enable_statements`);
- **hooks** — ``on_query_start`` / ``on_query_end`` callbacks.

The engine has one statement path. When :attr:`active` — a plain
precomputed bool, the only thing that path reads while everything is
off — is set, it builds one :class:`Trace` event per statement and
hands it to :meth:`Observability.record`, the only fan-out: the last
trace, the four per-statement metrics of the per-connection
:class:`MetricsRegistry` (chained to the process-wide
:data:`~repro.obs.metrics.GLOBAL` registry), the statement store and
the ``query_end`` hooks (the flight recorder is one) all consume that
event.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

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
    "FlightRecorder",
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

    def __init__(self, metrics_parent: Optional[MetricsRegistry] = None):
        self.metrics = MetricsRegistry(
            parent=GLOBAL if metrics_parent is None else metrics_parent
        )
        self.query_start: List[Callable[[str, tuple], Any]] = []
        self.query_end: List[Callable[[Trace], Any]] = []
        self.last_trace: Optional[Trace] = None
        self._tracing = False
        #: per-fingerprint statement/plan aggregates (pg_stat_statements
        #: style), fed by :meth:`record`
        self.statements = StatementStore()
        #: the one flag the engine hot path reads; kept in sync by every
        #: mutator below so the disabled path never recomputes it
        self.active = False

    # -- switches ----------------------------------------------------------

    def _refresh(self) -> None:
        self.active = bool(
            self._tracing
            or self.query_start
            or self.query_end
            or self.statements.enabled
        )

    @property
    def tracing(self) -> bool:
        """Whether SELECT executions build a span tree."""
        return self._tracing

    def enable_tracing(self) -> "Observability":
        self._tracing = True
        self._refresh()
        return self

    def disable_tracing(self) -> "Observability":
        self._tracing = False
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

    # -- hook registration (decorator-friendly) ----------------------------

    def on_query_start(self, fn: Callable[[str, tuple], Any]):
        self.query_start.append(fn)
        self._refresh()
        return fn

    def on_query_end(self, fn: Callable[[Trace], Any]):
        self.query_end.append(fn)
        self._refresh()
        return fn

    def remove_query_end(self, fn: Callable[[Trace], Any]) -> None:
        """Unregister one ``query_end`` hook (no-op when absent) — the
        flight recorder detaches this way without clobbering hooks other
        subsystems registered."""
        try:
            self.query_end.remove(fn)
        except ValueError:
            pass
        self._refresh()

    # -- recording (called by the engine) ----------------------------------

    def record(self, trace: Trace) -> None:
        """Fan one statement event out to every consumer: the last trace,
        metrics, the statement store, ``query_end`` hooks."""
        if self._tracing:
            self.last_trace = trace
        metrics = self.metrics
        metrics.counter("queries_total", "statements executed").inc()
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
                if store.record_plan(trace.sql, trace.plan) is not None:
                    metrics.counter(
                        "plan_flips_total",
                        "statements whose captured plan shape changed",
                    ).inc()
            store.record(
                trace.sql, trace.seconds, trace.rows,
                counters=trace.counters, outcome=trace.outcome,
                wait_class_seconds=trace.wait_class_seconds,
            )
        for callback in self.query_end:
            callback(trace)
