"""Statement traces and exporters.

A :class:`Trace` is the one per-statement event the engine emits: it
ties one executed statement — SELECT, DML/DDL or transaction control,
finished or failed — to its outcome, its statement-level counter and
wait deltas, the plan it ran with and (for SELECTs run under tracing)
its operator span tree. Two interchange formats are supported:

- **JSON lines** — one header object plus one object per span, each
  span carrying an ``id``/``parent`` pair so the tree round-trips
  (:meth:`Trace.to_json_lines` / :meth:`Trace.from_json_lines`);
- **Chrome trace events** — the ``chrome://tracing`` / Perfetto JSON
  format, complete ("X") events with microsecond timestamps
  (:meth:`Trace.to_chrome_trace`).
"""

from __future__ import annotations

import json
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

    def spans(self) -> List[Span]:
        """All spans in pre-order (empty when the run was untraced)."""
        if self.root is None:
            return []
        return [span for _depth, span in self.root.walk()]

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

    # -- dict / JSON-lines round trip --------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sql": self.sql,
            "engine": self.engine,
            "statement": self.statement,
            "seconds": self.seconds,
            "started_at": self.started_at,
            "rows": self.rows,
            "outcome": self.outcome,
            "counters": dict(self.counters),
            "root": self.root.to_dict() if self.root is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Trace":
        root = data.get("root")
        return cls(
            sql=data["sql"],
            engine=data["engine"],
            statement=data["statement"],
            seconds=data["seconds"],
            started_at=data["started_at"],
            rows=data["rows"],
            counters=dict(data.get("counters", ())),
            root=Span.from_dict(root) if root is not None else None,
            outcome=data.get("outcome", "ok"),
        )

    def to_json_lines(self) -> str:
        """One ``trace`` header line plus one line per span."""
        header = self.to_dict()
        header.pop("root")
        header["type"] = "trace"
        lines = [json.dumps(header, sort_keys=True)]
        if self.root is not None:
            flat: List[Dict[str, Any]] = []

            def emit(span: Span, parent: Optional[int]) -> None:
                record = span.to_dict()
                record.pop("children", None)
                record["type"] = "span"
                record["id"] = len(flat)
                record["parent"] = parent
                flat.append(record)
                my_id = record["id"]
                for child in span.children:
                    emit(child, my_id)

            emit(self.root, None)
            lines.extend(json.dumps(r, sort_keys=True) for r in flat)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json_lines(cls, text: str) -> "Trace":
        header: Optional[Dict[str, Any]] = None
        spans: Dict[int, Span] = {}
        root: Optional[Span] = None
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("type") == "trace":
                header = record
                continue
            span = Span.from_dict(record)
            spans[record["id"]] = span
            parent = record.get("parent")
            if parent is None:
                root = span
            else:
                spans[parent].children.append(span)
        if header is None:
            raise ValueError("no trace header line found")
        header["root"] = None
        trace = cls.from_dict(header)
        trace.root = root
        return trace

    # -- Chrome trace-event export -----------------------------------------

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The ``chrome://tracing`` JSON object for this statement."""
        events: List[Dict[str, Any]] = []
        origin = None
        if self.root is not None and self.root.started is not None:
            origin = self.root.started
        for _depth, span in (self.root.walk() if self.root else ()):
            start = span.started if span.started is not None else origin
            offset = 0.0
            if origin is not None and start is not None:
                offset = max(0.0, start - origin)
            events.append(
                {
                    "name": span.op,
                    "cat": "operator",
                    "ph": "X",
                    "ts": round(offset * 1e6, 3),
                    "dur": round(span.seconds * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "detail": span.detail,
                        "rows": span.rows,
                        "counters": span.exclusive_counters(),
                    },
                }
            )
        return {
            "traceEvents": events,
            "otherData": {
                "sql": self.sql,
                "engine": self.engine,
                "statement": self.statement,
                "seconds": self.seconds,
                "rows": self.rows,
                "counters": dict(self.counters),
            },
        }

    def render(self) -> str:
        """Human-readable indented view (what ``EXPLAIN ANALYZE`` prints)."""
        lines = [
            f"-- {self.statement} on {self.engine}: "
            f"{self.seconds * 1e3:.2f}ms, {self.rows} rows"
        ]
        if self.root is not None:
            for depth, span in self.root.walk():
                extras = "".join(
                    f", {k}={v}"
                    for k, v in sorted(span.exclusive_counters().items())
                )
                lines.append(
                    "  " * depth
                    + f"{span.detail}  (rows={span.rows}, "
                    f"time={span.seconds * 1e3:.2f}ms{extras})"
                )
        return "\n".join(lines)
