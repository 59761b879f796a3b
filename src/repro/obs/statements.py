"""Per-statement aggregate statistics and plan-flip detection.

The ``pg_stat_statements`` idea: every executed statement is normalised
into a stable *fingerprint* — literals become ``?``, IN-lists collapse
to a single placeholder, keywords and identifiers are case-folded — and
all executions sharing a fingerprint aggregate into one entry: calls,
latency percentiles, rows, engine-counter deltas, retries/aborts/
timeouts, and per-wait-class seconds. Alongside each statement entry the
store keeps the *plan fingerprint* of every plan shape the statement has
executed with (join strategy, index choice, operator tree); when a new
execution arrives with a different shape than the current one, a
**plan-flip event** is recorded with the before/after shapes and the
``plan_flips_total`` counter bumps — the hook future executor changes
are judged against.

The store is a consumer of the engine's per-statement event: enabling
it flips ``obs.active``, and :meth:`Observability.record
<repro.obs.Observability.record>` folds each event's timing, outcome,
counters, waits and plan in. With it off the engine never gets
here.

Everything here is surfaced three ways: the ``jackpine_statements`` /
``jackpine_plans`` system views (:mod:`repro.engines.sysviews`),
``jackpine stats --statements``, and the additive ``statements`` section
of the ``jackpine-telemetry/1`` document.
"""

from __future__ import annotations

import functools
import hashlib
import threading
import time
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.metrics import Histogram
from repro.sql.lexer import TokenType, tokenize

__all__ = [
    "StatementStore",
    "StatementEntry",
    "PlanEntry",
    "fingerprint",
    "fingerprinted",
    "normalize",
    "plan_shape",
    "plan_fingerprint",
]


# -- statement fingerprinting ------------------------------------------------


def normalize(sql: str) -> str:
    """The canonical text behind a fingerprint.

    Tokenises ``sql`` (the lexer already case-folds identifiers and
    keywords), replaces every literal and parameter marker with ``?``,
    and collapses IN-lists of any length to ``in (?)`` — so
    ``WHERE id IN (1, 2, 3)`` and ``where id in (9)`` normalise
    identically. String literals are re-quoted before replacement so a
    string containing SQL can never smuggle structure in.
    """
    tokens = tokenize(sql)
    parts: List[str] = []
    for token in tokens:
        if token.type is TokenType.END:
            break
        if token.type in (TokenType.NUMBER, TokenType.STRING,
                          TokenType.PARAM):
            parts.append("?")
        else:
            parts.append(token.value)
    # collapse "in ( ? , ? , ... )" runs to "in ( ? )"
    out: List[str] = []
    i = 0
    n = len(parts)
    while i < n:
        part = parts[i]
        if part == "in" and i + 2 < n and parts[i + 1] == "(":
            j = i + 2
            placeholders = 0
            while j < n and parts[j] in ("?", ","):
                if parts[j] == "?":
                    placeholders += 1
                j += 1
            if placeholders >= 1 and j < n and parts[j] == ")":
                out.extend(("in", "(", "?", ")"))
                i = j + 1
                continue
        out.append(part)
        i += 1
    return " ".join(out)


@functools.lru_cache(maxsize=512)
def fingerprinted(sql: str) -> Tuple[str, str]:
    """``(fingerprint, normalized)`` of one SQL text, memoised: the
    statement store and the flight recorder tokenize each text once."""
    normalized = normalize(sql)
    digest = hashlib.sha256(normalized.encode("utf-8")).hexdigest()
    return digest[:12], normalized


def fingerprint(sql: str) -> str:
    """Stable hex fingerprint of one statement's normalised text."""
    return fingerprinted(sql)[0]


# -- plan fingerprinting -----------------------------------------------------


def _node_shape(node: Any) -> str:
    """One operator's canonical shape: class name + the tables/indexes it
    touches, recursively over its children. Costs, row estimates and
    literal-bearing labels are deliberately omitted, so the shape only
    changes when the *strategy* does (operator, join order, index
    choice) — exactly what a plan flip should mean."""
    name = type(node).__name__
    if name == "SpanNode":
        return _node_shape(node.inner)
    detail: List[str] = []
    for attr in ("table", "outer_table", "inner_table"):
        obj = getattr(node, attr, None)
        if obj is not None and hasattr(obj, "name"):
            detail.append(obj.name)
    for attr in ("entry", "outer_entry", "inner_entry"):
        obj = getattr(node, attr, None)
        if obj is not None and hasattr(obj, "name"):
            detail.append(obj.name)
    shape = name
    if detail:
        shape += "(" + ",".join(detail) + ")"
    children = [_node_shape(child) for child in node.children()]
    if children:
        shape += "[" + ",".join(children) + "]"
    return shape


def plan_shape(plan: Any) -> str:
    """Canonical text form of a plan tree (see :func:`_node_shape`)."""
    return _node_shape(plan)


def plan_fingerprint(shape: str) -> str:
    """Stable hex fingerprint of one canonical plan shape."""
    return hashlib.sha256(shape.encode("utf-8")).hexdigest()[:12]


# -- per-fingerprint aggregates ----------------------------------------------

#: engine-counter deltas folded into each statement entry
_COUNTER_FIELDS = (
    "rows_scanned",
    "index_probes",
    "pages_read",
    "join_pairs_considered",
    "join_pairs_emitted",
    "degraded_results",
)

#: wait classes aggregated per statement (matches WAIT_CLASSES order)
_WAIT_CLASS_FIELDS = (
    "LockManager", "Latch", "IO", "Net", "Service", "Client", "Guard", "CPU",
)


class StatementEntry:
    """Aggregate statistics for one statement fingerprint."""

    __slots__ = (
        "fingerprint", "statement", "calls", "errors", "total_seconds",
        "histogram", "rows_returned", "retries", "aborts", "timeouts",
        "counters", "wait_class_seconds", "first_seen", "last_seen",
    )

    def __init__(self, fp: str, statement: str):
        self.fingerprint = fp
        self.statement = statement
        self.calls = 0
        self.errors = 0
        self.total_seconds = 0.0
        self.histogram = Histogram(f"stmt_{fp}", "per-statement latency")
        self.rows_returned = 0
        self.retries = 0
        self.aborts = 0
        self.timeouts = 0
        self.counters: Dict[str, int] = {f: 0 for f in _COUNTER_FIELDS}
        self.wait_class_seconds: Dict[str, float] = {
            cls: 0.0 for cls in _WAIT_CLASS_FIELDS
        }
        self.first_seen = time.time()
        self.last_seen = self.first_seen

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0

    def as_dict(self) -> Dict[str, Any]:
        hist = self.histogram
        out: Dict[str, Any] = {
            "fingerprint": self.fingerprint,
            "statement": self.statement,
            "calls": self.calls,
            "errors": self.errors,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "rows_returned": self.rows_returned,
            "retries": self.retries,
            "aborts": self.aborts,
            "timeouts": self.timeouts,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
        }
        if hist.count:
            out.update(p50=hist.p50, p95=hist.p95, p99=hist.p99)
        out.update(self.counters)
        out["wait_class_seconds"] = dict(self.wait_class_seconds)
        return out


class PlanEntry:
    """One plan shape a statement fingerprint has executed with."""

    __slots__ = (
        "statement_fingerprint", "statement", "plan_fingerprint", "shape",
        "executions", "first_seen", "last_seen", "current", "flipped_from",
    )

    def __init__(self, stmt_fp: str, statement: str, plan_fp: str,
                 shape: str, flipped_from: Optional[str] = None):
        self.statement_fingerprint = stmt_fp
        self.statement = statement
        self.plan_fingerprint = plan_fp
        self.shape = shape
        self.executions = 0
        self.first_seen = time.time()
        self.last_seen = self.first_seen
        self.current = True
        self.flipped_from = flipped_from

    def as_dict(self) -> Dict[str, Any]:
        return {
            "statement_fingerprint": self.statement_fingerprint,
            "statement": self.statement,
            "plan_fingerprint": self.plan_fingerprint,
            "shape": self.shape,
            "executions": self.executions,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "current": self.current,
            "flipped_from": self.flipped_from,
        }


class StatementStore:
    """Bounded per-fingerprint statement/plan aggregates (see module
    docstring). Thread-safe: workload clients record concurrently."""

    #: distinct statement fingerprints kept (LRU-evicted beyond this)
    DEFAULT_CAPACITY = 512

    #: plan-flip events kept (newest last)
    FLIP_HISTORY = 256

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        #: whether :meth:`Observability.record` feeds this store
        self.enabled = False
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, StatementEntry]" = OrderedDict()
        #: stmt_fp -> [PlanEntry, ...] in first-seen order
        self._plans: Dict[str, List[PlanEntry]] = {}
        self._flips: Deque[Dict[str, Any]] = deque(maxlen=self.FLIP_HISTORY)
        self.plan_flips_total = 0

    # -- switches ----------------------------------------------------------

    def enable(self) -> "StatementStore":
        self.enabled = True
        return self

    def disable(self) -> "StatementStore":
        self.enabled = False
        return self

    def reset(self) -> None:
        with self._lock:
            self._entries.clear()
            self._plans.clear()
            self._flips.clear()
            self.plan_flips_total = 0

    def _entry(self, fp: str, normalized: str) -> StatementEntry:
        """Get-or-create under the store lock (caller holds it)."""
        entry = self._entries.get(fp)
        if entry is None:
            if len(self._entries) >= self.capacity:
                evicted_fp, _ = self._entries.popitem(last=False)
                self._plans.pop(evicted_fp, None)
            entry = self._entries[fp] = StatementEntry(fp, normalized)
        else:
            self._entries.move_to_end(fp)
        return entry

    # -- recording (fed by Observability.record) ----------------------------

    def record(
        self,
        sql: str,
        seconds: float,
        rows: int,
        counters: Optional[Dict[str, int]] = None,
        outcome: str = "ok",
        wait_class_seconds: Optional[Dict[str, float]] = None,
    ) -> None:
        """Fold one finished execution into its fingerprint's entry.

        ``outcome`` is one of ``ok`` / ``abort`` / ``timeout`` /
        ``cancelled`` / ``error``; anything but ``ok`` also counts as an
        error.
        """
        fp, normalized = fingerprinted(sql)
        with self._lock:
            entry = self._entry(fp, normalized)
            entry.calls += 1
            entry.total_seconds += seconds
            entry.last_seen = time.time()
            entry.rows_returned += rows
            if outcome != "ok":
                entry.errors += 1
                if outcome == "abort":
                    entry.aborts += 1
                elif outcome == "timeout":
                    entry.timeouts += 1
            if counters:
                folded = entry.counters
                for field in _COUNTER_FIELDS:
                    value = counters.get(field)
                    if value:
                        folded[field] += value
            if wait_class_seconds:
                folded_waits = entry.wait_class_seconds
                for cls, value in wait_class_seconds.items():
                    if value:
                        folded_waits[cls] = (
                            folded_waits.get(cls, 0.0) + value
                        )
        # the histogram has its own lock discipline (metrics _LOCK)
        entry.histogram.observe(seconds)

    def record_retry(self, sql: str) -> None:
        """Count one client-side retry against a statement fingerprint."""
        fp, normalized = fingerprinted(sql)
        with self._lock:
            self._entry(fp, normalized).retries += 1

    def record_plan(self, sql: str, plan: Any) -> Optional[Dict[str, Any]]:
        """File the plan one execution ran with; returns the flip event
        when the shape changed from the statement's current plan."""
        shape = plan_shape(plan)
        plan_fp = plan_fingerprint(shape)
        stmt_fp, normalized = fingerprinted(sql)
        flip: Optional[Dict[str, Any]] = None
        with self._lock:
            plans = self._plans.get(stmt_fp)
            if plans is None:
                plans = self._plans[stmt_fp] = []
            current = next((p for p in plans if p.current), None)
            entry = next(
                (p for p in plans if p.plan_fingerprint == plan_fp), None
            )
            if current is not None and current.plan_fingerprint != plan_fp:
                current.current = False
                flip = {
                    "statement_fingerprint": stmt_fp,
                    "statement": normalized,
                    "from_plan": current.plan_fingerprint,
                    "from_shape": current.shape,
                    "to_plan": plan_fp,
                    "to_shape": shape,
                    "at": time.time(),
                }
                self._flips.append(flip)
                self.plan_flips_total += 1
            if entry is None:
                entry = PlanEntry(
                    stmt_fp, normalized, plan_fp, shape,
                    flipped_from=(
                        current.plan_fingerprint
                        if flip is not None else None
                    ),
                )
                plans.append(entry)
            entry.current = True
            entry.executions += 1
            entry.last_seen = time.time()
        return flip

    # -- views -------------------------------------------------------------

    def statements(self) -> List[StatementEntry]:
        """Entries ordered by total time, costliest first."""
        with self._lock:
            entries = list(self._entries.values())
        entries.sort(key=lambda e: e.total_seconds, reverse=True)
        return entries

    def plans(self) -> List[PlanEntry]:
        """Every plan entry, grouped by statement fingerprint."""
        with self._lock:
            return [
                plan for plans in self._plans.values() for plan in plans
            ]

    def flips(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._flips)

    def export(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """The ``statements`` telemetry section (JSON-able)."""
        entries = self.statements()
        if limit is not None:
            entries = entries[:limit]
        return {
            "by_total_time": [entry.as_dict() for entry in entries],
            "plans": [plan.as_dict() for plan in self.plans()],
            "plan_flips": self.flips(),
            "plan_flips_total": self.plan_flips_total,
        }

    def render(self, limit: int = 20) -> str:
        """The ``jackpine stats --statements`` table."""
        lines = [
            f"-- statements by total time (top {limit}) --",
            f"{'calls':>7s} {'total':>9s} {'mean':>9s} {'p95':>9s} "
            f"{'rows':>8s} {'err':>4s}  statement",
        ]
        for entry in self.statements()[:limit]:
            hist = entry.histogram
            p95 = f"{hist.p95 * 1e3:7.2f}ms" if hist.count else "       --"
            statement = entry.statement
            if len(statement) > 56:
                statement = statement[:53] + "..."
            lines.append(
                f"{entry.calls:>7d} {entry.total_seconds * 1e3:7.2f}ms "
                f"{entry.mean_seconds * 1e3:7.2f}ms {p95} "
                f"{entry.rows_returned:>8d} {entry.errors:>4d}  {statement}"
            )
        if self.plan_flips_total:
            lines.append(
                f"-- plan flips: {self.plan_flips_total} recorded --"
            )
            for flip in self.flips()[-5:]:
                lines.append(
                    f"   {flip['statement'][:48]}: "
                    f"{flip['from_plan']} -> {flip['to_plan']}"
                )
        return "\n".join(lines)
