"""Trace spans: the per-operator measurement record.

A :class:`Span` mirrors one plan-operator node for one execution. It
records wall time, rows produced and the *inclusive* delta of the engine
counters (``rows_scanned``, ``index_probes``, ``join_pairs_considered``,
…) over the operator's lifetime; exclusive figures — what the operator
itself cost, minus its children — are derived on demand. Spans form a
tree congruent with the plan tree and serialise to plain dicts, which is
what the flight recorder's request records carry.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple


class Span:
    """One operator's measurements for one statement execution."""

    __slots__ = (
        "op",
        "detail",
        "rows",
        "seconds",
        "started",
        "counters",
        "children",
        "_begin_counters",
    )

    def __init__(self, op: str, detail: str = "",
                 children: Optional[List["Span"]] = None):
        self.op = op
        self.detail = detail or op
        self.rows = 0
        self.seconds = 0.0
        #: perf_counter value at the first ``rows()`` call; ``None`` when
        #: the operator was planned but never pulled from
        self.started: Optional[float] = None
        #: inclusive engine-counter deltas (non-zero entries only)
        self.counters: Dict[str, int] = {}
        self.children: List["Span"] = children if children is not None else []
        self._begin_counters: Optional[Dict[str, int]] = None

    # -- lifecycle (driven by the executor's span wrapper) -----------------

    def begin(self, now: float, counters: Dict[str, int]) -> None:
        self.started = now
        self._begin_counters = counters

    def finish(self, rows: int, seconds: float,
               counters: Dict[str, int]) -> None:
        self.rows = rows
        self.seconds = seconds
        before = self._begin_counters
        if before is not None:
            self.counters = {
                key: value - before[key]
                for key, value in counters.items()
                if value != before.get(key, 0)
            }
            self._begin_counters = None

    # -- derived views -----------------------------------------------------

    @property
    def exclusive_seconds(self) -> float:
        """Time spent in this operator minus time in its children."""
        return max(0.0, self.seconds - sum(c.seconds for c in self.children))

    def exclusive_counters(self) -> Dict[str, int]:
        """Counter deltas attributable to this operator alone."""
        out = dict(self.counters)
        for child in self.children:
            for key, value in child.counters.items():
                remaining = out.get(key, 0) - value
                if remaining:
                    out[key] = remaining
                else:
                    out.pop(key, None)
        return out

    def walk(self, depth: int = 0) -> Iterator[Tuple[int, "Span"]]:
        """Pre-order traversal as ``(depth, span)`` pairs."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def total_spans(self) -> int:
        return sum(1 for _ in self.walk())

    def find(self, op: str) -> Optional["Span"]:
        """First span (pre-order) whose operator name is ``op``."""
        for _depth, span in self.walk():
            if span.op == op:
                return span
        return None

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "op": self.op,
            "detail": self.detail,
            "rows": self.rows,
            "seconds": self.seconds,
            "counters": dict(self.counters),
        }
        if self.started is not None:
            out["started"] = self.started
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        span = cls(
            data["op"],
            data.get("detail", ""),
            [cls.from_dict(c) for c in data.get("children", ())],
        )
        span.rows = data.get("rows", 0)
        span.seconds = data.get("seconds", 0.0)
        span.started = data.get("started")
        span.counters = dict(data.get("counters", ()))
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.op!r}, rows={self.rows}, "
            f"seconds={self.seconds:.6f}, children={len(self.children)})"
        )
