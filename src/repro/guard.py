"""Execution guardrails: deadlines, cooperative cancellation, budgets.

A :class:`Guardrails` value holds the configured limits (on a
:class:`~repro.engines.database.Database`, a DB-API connection, or a
single ``execute`` call); :meth:`Guardrails.start` arms them into an
:class:`ExecutionGuard` for one statement. Operators co-operate by
calling :meth:`ExecutionGuard.tick` once per row/pair processed — the
real check (clock read, cancellation flag, budget comparison) is
amortised to every :data:`CHECK_EVERY` ticks so the guarded hot path
stays within a few percent of the unguarded one — and
:meth:`ExecutionGuard.reserve` whenever they buffer rows (nested-loop
inner sides, hash buckets, sorts, packed tree-join sides), which is
where the row/byte *memory* budget is enforced.

Timeouts follow the per-query-deadline methodology Geographica added on
top of Jackpine: a runaway predicate is a *result* (recorded as
``timeout``), not a reason to abort the run.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Dict, Optional

from repro.errors import (
    MemoryBudgetError,
    QueryCancelledError,
    QueryTimeoutError,
)
from repro.obs.waits import GUARD_TICK, WAITS

#: rows processed between two full guard checks (amortisation window)
CHECK_EVERY = 256


class CancelToken:
    """Cooperative cancellation flag, safe to set from another thread."""

    __slots__ = ("_event", "reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason = ""

    def cancel(self, reason: str = "") -> None:
        self.reason = reason or self.reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


class ExecutionGuard:
    """Armed limits for one executing statement."""

    __slots__ = (
        "timeout",
        "deadline",
        "max_rows",
        "max_bytes",
        "cancel",
        "rows_processed",
        "buffered_rows",
        "buffered_bytes",
        "_countdown",
    )

    def __init__(
        self,
        timeout: Optional[float] = None,
        max_rows: Optional[int] = None,
        max_bytes: Optional[int] = None,
        cancel: Optional[CancelToken] = None,
    ):
        self.timeout = timeout
        self.deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        self.max_rows = max_rows
        self.max_bytes = max_bytes
        self.cancel = cancel
        self.rows_processed = 0
        self.buffered_rows = 0
        self.buffered_bytes = 0
        # first tick checks immediately (an already-expired deadline must
        # fail fast even on tiny inputs), then every CHECK_EVERY rows
        self._countdown = 1

    def tick(self, n: int = 1) -> None:
        """Account ``n`` rows of work; runs the full check every
        :data:`CHECK_EVERY` rows."""
        self.rows_processed += n
        self._countdown -= n
        if self._countdown <= 0:
            self._countdown = CHECK_EVERY
            # the full check is already amortised to every CHECK_EVERY
            # rows, so timing it here costs nothing on the row path
            WAITS.timed(GUARD_TICK, self.check)()

    def check(self) -> None:
        """The unamortised check: cancellation first, then the deadline."""
        cancel = self.cancel
        if cancel is not None and cancel.cancelled:
            reason = cancel.reason or "no reason given"
            raise QueryCancelledError(
                f"query cancelled after {self.rows_processed} rows ({reason})"
            )
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise QueryTimeoutError(
                f"query exceeded its {self.timeout:.6g}s deadline "
                f"after {self.rows_processed} rows"
            )

    def reserve(self, count: int, sample: Any = None) -> None:
        """Account ``count`` rows buffered by a materialising operator.

        ``sample`` (one representative row) sizes the byte estimate;
        buffering also counts as work, so the deadline stays live inside
        blocking build phases.
        """
        self.buffered_rows += count
        if self.max_rows is not None and self.buffered_rows > self.max_rows:
            raise MemoryBudgetError(
                f"query buffered {self.buffered_rows} rows, "
                f"over its {self.max_rows}-row budget"
            )
        if self.max_bytes is not None:
            if sample is not None:
                self.buffered_bytes += count * _row_nbytes(sample)
            if self.buffered_bytes > self.max_bytes:
                raise MemoryBudgetError(
                    f"query buffered ~{self.buffered_bytes} bytes, "
                    f"over its {self.max_bytes}-byte budget"
                )
        self.tick(count)


class Guardrails:
    """Configured (not yet armed) limits; merge order is per-call >
    connection > database default."""

    __slots__ = ("timeout", "max_rows", "max_bytes")

    def __init__(
        self,
        timeout: Optional[float] = None,
        max_rows: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        _validate_positive("timeout", timeout)
        _validate_positive("max_rows", max_rows)
        _validate_positive("max_bytes", max_bytes)
        self.timeout = timeout
        self.max_rows = max_rows
        self.max_bytes = max_bytes

    @property
    def enabled(self) -> bool:
        return (
            self.timeout is not None
            or self.max_rows is not None
            or self.max_bytes is not None
        )

    def merged(
        self,
        timeout: Optional[float] = None,
        max_rows: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> "Guardrails":
        """A new config with per-call overrides filled in where given."""
        return Guardrails(
            timeout=timeout if timeout is not None else self.timeout,
            max_rows=max_rows if max_rows is not None else self.max_rows,
            max_bytes=max_bytes if max_bytes is not None else self.max_bytes,
        )

    def start(
        self,
        timeout: Optional[float] = None,
        max_rows: Optional[int] = None,
        max_bytes: Optional[int] = None,
        cancel: Optional[CancelToken] = None,
    ) -> Optional[ExecutionGuard]:
        """Arm a guard for one statement, or ``None`` when every limit is
        off — operators skip all accounting on a ``None`` guard."""
        t = timeout if timeout is not None else self.timeout
        r = max_rows if max_rows is not None else self.max_rows
        b = max_bytes if max_bytes is not None else self.max_bytes
        if t is None and r is None and b is None and cancel is None:
            return None
        _validate_positive("timeout", t)
        _validate_positive("max_rows", r)
        _validate_positive("max_bytes", b)
        return ExecutionGuard(timeout=t, max_rows=r, max_bytes=b, cancel=cancel)

    def describe(self) -> Dict[str, Optional[float]]:
        return {
            "timeout": self.timeout,
            "max_rows": self.max_rows,
            "max_bytes": self.max_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{k}={v!r}" for k, v in self.describe().items() if v is not None
        )
        return f"Guardrails({parts})"


def _validate_positive(name: str, value) -> None:
    if value is not None and value < 0:
        raise ValueError(f"guardrail {name} must be >= 0, got {value!r}")


def _row_nbytes(row: Any) -> int:
    """Shallow size estimate of one executor row (alias -> stored tuple)."""
    size = sys.getsizeof(row)
    if isinstance(row, dict):
        for value in row.values():
            size += sys.getsizeof(value)
    elif isinstance(row, tuple):
        for value in row:
            size += sys.getsizeof(value)
    return size
