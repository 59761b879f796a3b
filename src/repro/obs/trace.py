"""The per-statement event.

A :class:`Trace` is the one per-statement event the engine emits: it
ties one executed statement — SELECT, DML/DDL or transaction control,
finished or failed — to its outcome, its statement-level counter and
wait deltas, the plan it ran with and (for SELECTs run under tracing)
its operator span tree. Request-level export lives in
:mod:`repro.obs.requests` (``jackpine trace``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.span import Span
from repro.obs.waits import WaitAttribution


class Trace:
    """Everything recorded about one statement execution."""

    __slots__ = (
        "sql",
        "engine",
        "statement",
        "seconds",
        "started_at",
        "rows",
        "counters",
        "root",
        "outcome",
        "waits",
        "plan",
    )

    def __init__(
        self,
        sql: str,
        engine: str,
        statement: str,
        seconds: float,
        started_at: float,
        rows: int,
        counters: Dict[str, int],
        root: Optional[Span] = None,
        outcome: str = "ok",
        waits: Optional[Dict[str, Dict[str, float]]] = None,
        plan: Any = None,
    ):
        self.sql = sql
        self.engine = engine
        #: AST statement class name, e.g. ``Select`` / ``Insert``
        self.statement = statement
        self.seconds = seconds
        #: wall-clock epoch seconds when execution began
        self.started_at = started_at
        self.rows = rows
        #: engine-counter deltas over the whole statement
        self.counters = counters
        #: operator span tree (``None`` for untraced / non-SELECT runs)
        self.root = root
        #: ``ok``, or how the statement failed: ``abort`` (serialization
        #: conflict), ``timeout``, ``cancelled`` or ``error``
        self.outcome = outcome
        #: this thread's wait-event deltas over the statement,
        #: ``{event: {count, seconds}}``; ``None`` while ``WAITS`` is off
        self.waits = waits
        #: the plan tree a SELECT executed with (in-process only; ``None``
        #: for other statements and for failures before planning)
        self.plan = plan

    # -- convenience -------------------------------------------------------

    @property
    def wait_class_seconds(self) -> Dict[str, float]:
        """Seconds per wait class (``IO``, ``Latch``, …) over the statement."""
        return WaitAttribution(self.waits or {}, self.seconds).class_seconds()

    def operator_breakdown(self) -> List[Dict[str, Any]]:
        """Flat per-operator rows for reports and telemetry artifacts."""
        out: List[Dict[str, Any]] = []
        if self.root is None:
            return out
        for depth, span in self.root.walk():
            out.append(
                {
                    "depth": depth,
                    "op": span.op,
                    "detail": span.detail,
                    "rows": span.rows,
                    "seconds": span.seconds,
                    "exclusive_seconds": span.exclusive_seconds,
                    "counters": span.exclusive_counters(),
                }
            )
        return out
