"""Timing statistics for benchmark runs."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

#: per-query outcomes the harness distinguishes; ``n/s`` stays a result
#: (the paper reports feature gaps), the rest are resilience outcomes
OUTCOMES = ("ok", "degraded", "not supported", "timeout", "error")


@dataclass
class QueryTiming:
    """Repeated-measurement record for one benchmark query."""

    query_id: str
    times: List[float] = field(default_factory=list)
    result_value: Optional[object] = None  # e.g. COUNT(*) for answer checks
    supported: bool = True
    error: Optional[str] = None
    #: exemplar operator trace (a :class:`repro.obs.Trace`) captured by
    #: the harness outside the timed runs, for telemetry breakdowns
    trace: Optional[object] = None
    #: one of :data:`OUTCOMES` — how the measurement protocol ended
    outcome: str = "ok"
    #: transient-fault retries spent across all runs of this query
    retries: int = 0

    @property
    def ok(self) -> bool:
        """True when the timings are usable (possibly degraded)."""
        return self.outcome in ("ok", "degraded")

    def record(self, seconds: float) -> None:
        self.times.append(seconds)

    def percentile(self, p: float) -> float:
        """Exact percentile of the recorded runs (``p`` in 0..100)."""
        from repro.obs.metrics import percentile_of

        return percentile_of(self.times, p)

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def runs(self) -> int:
        return len(self.times)

    @property
    def mean(self) -> float:
        return sum(self.times) / len(self.times) if self.times else math.nan

    @property
    def median(self) -> float:
        if not self.times:
            return math.nan
        ordered = sorted(self.times)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    @property
    def minimum(self) -> float:
        return min(self.times) if self.times else math.nan

    @property
    def maximum(self) -> float:
        return max(self.times) if self.times else math.nan

    @property
    def stddev(self) -> float:
        if len(self.times) < 2:
            return 0.0
        mean = self.mean
        var = sum((t - mean) ** 2 for t in self.times) / (len(self.times) - 1)
        return math.sqrt(var)

    @property
    def total(self) -> float:
        return sum(self.times)


def time_call(fn: Callable[[], object]) -> tuple:
    """(elapsed_seconds, return_value) of one call."""
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def backoff_delay(
    attempt: int,
    base: float = 0.05,
    cap: float = 1.0,
    rng: Optional[random.Random] = None,
) -> float:
    """Full-jitter exponential backoff for retry ``attempt`` (0-based).

    Sleeping a uniform draw from ``[0, min(cap, base * 2**attempt)]``
    decorrelates retries — the standard cure for retry storms.
    """
    window = min(cap, base * (2.0 ** attempt))
    return (rng or random).uniform(0.0, window)


def run_timed(
    timing: QueryTiming,
    fn: Callable[[], object],
    repeats: int = 3,
    warmups: int = 1,
    retries: int = 0,
    backoff_base: float = 0.05,
    backoff_cap: float = 1.0,
    rng: Optional[random.Random] = None,
) -> QueryTiming:
    """Standard protocol: discard warmups, record ``repeats`` runs.

    Resilience contract: transient faults (:class:`TransientError`) are
    retried up to ``retries`` times per call with full-jitter backoff —
    only the successful attempt is timed. Deadline trips, unsupported
    features and other engine errors end the protocol and are recorded
    on ``timing.outcome`` instead of propagating, so one failing query
    never takes down a suite run.
    """
    from repro.errors import (
        QueryTimeoutError,
        ReproError,
        TransientError,
        UnsupportedFeatureError,
    )

    def attempt(record: bool) -> None:
        tries = 0
        while True:
            try:
                elapsed, value = time_call(fn)
            except TransientError:
                if tries >= retries:
                    raise
                time.sleep(backoff_delay(tries, backoff_base, backoff_cap, rng))
                tries += 1
                timing.retries += 1
                from repro.obs.metrics import GLOBAL

                GLOBAL.counter(
                    "harness_retries_total",
                    "transient-fault retries spent by the benchmark harness",
                ).inc()
                continue
            if record:
                timing.record(elapsed)
                timing.result_value = value
            return

    try:
        for _ in range(warmups):
            attempt(record=False)
        for _ in range(repeats):
            attempt(record=True)
    except UnsupportedFeatureError as exc:
        timing.supported = False
        timing.outcome = "not supported"
        timing.error = str(exc)
    except QueryTimeoutError as exc:
        timing.outcome = "timeout"
        timing.error = str(exc)
    except ReproError as exc:
        timing.outcome = "error"
        timing.error = str(exc)
    return timing


def measure(
    db,
    query_id: str,
    call: Callable[[], object],
    repeats: int = 3,
    warmups: int = 1,
    retries: int = 0,
) -> QueryTiming:
    """The one statement protocol of every paper table: ``call`` (one
    statement on ``db``) measured by :func:`run_timed`.

    The outcome turns ``degraded`` when exact refinement fell back to MBR
    verdicts (``db.stats.degraded_results`` moved) during a successful
    measurement. The first warmup run is traced into ``timing.trace``, so
    the exemplar costs no extra execution and no tracing lands in a timed
    run; without warmups there is no exemplar.
    """
    timing = QueryTiming(query_id)
    degraded = db.stats.degraded_results

    def traced() -> object:
        if timing.trace is not None:
            return call()
        db.obs.enable_tracing()
        try:
            value = call()
        finally:
            db.obs.disable_tracing()
        timing.trace = db.last_trace()
        return value

    run_timed(timing, traced if warmups else call, repeats=repeats,
              warmups=warmups, retries=retries)
    if timing.outcome == "ok" and db.stats.degraded_results > degraded:
        timing.outcome = "degraded"
    return timing
