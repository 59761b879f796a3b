"""Deterministic fault injection for chaos testing.

Named failure points are compiled into the engine at the places a real
spatial DBMS fails in practice — storage writes, index maintenance and
probes, geometry refinement, WAL and page I/O. Tests arm a point with
either a seeded probability or a fire-on-Nth-call trigger, run a workload, and
get *reproducible* chaos: the same seed always fails the same calls.

The hot-path contract matches the observability switchboard: call sites
guard on the precomputed :attr:`FaultRegistry.active` flag, so a fully
disarmed registry costs one attribute read per site.

>>> from repro import faults
>>> with faults.injected("index.probe", on_call=1):
...     db.execute("SELECT ...")      # first probe raises InjectedFaultError
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple, Type

from repro.errors import InjectedFaultError

#: every failure point compiled into the engine, site -> description
FAULT_POINTS: Dict[str, str] = {
    "storage.insert": "Table.insert_rows, per row, before the heap changes",
    "index.insert": "Database._insert_run, per row, before heap or index",
    "index.probe": "index search in IndexScan / IndexNestedLoopJoin",
    "geometry.refine": "exact refinement of one pair (EngineProfile.refine)",
    "txn.commit": "TxnManager.commit, before any commit state changes",
    "wal.append": "WriteAheadLog.append, before the record is buffered",
    "wal.fsync": "WriteAheadLog.sync, after write() but before fsync()",
    "page.write": "DiskManager.write_page, before the page hits the file",
}


class _Arm:
    """One armed failure point."""

    __slots__ = ("site", "probability", "on_call", "error", "rng", "calls",
                 "fired", "max_fires")

    def __init__(
        self,
        site: str,
        probability: Optional[float],
        on_call: Optional[int],
        error: Type[Exception],
        seed: int,
        max_fires: Optional[int],
    ):
        self.site = site
        self.probability = probability
        self.on_call = on_call
        self.error = error
        self.rng = random.Random(seed)
        self.calls = 0
        self.fired = 0
        self.max_fires = max_fires

    def should_fire(self) -> bool:
        self.calls += 1
        if self.max_fires is not None and self.fired >= self.max_fires:
            return False
        if self.on_call is not None:
            return self.calls == self.on_call
        if self.probability is not None:
            return self.rng.random() < self.probability
        return False


class FaultRegistry:
    """Named failure points with deterministic seeded triggers."""

    def __init__(self, points: Optional[Dict[str, str]] = None):
        self._points = dict(FAULT_POINTS if points is None else points)
        self._arms: Dict[str, _Arm] = {}
        #: precomputed "anything armed?" flag read by hot call sites
        self.active = False
        self.fired_total = 0
        # serialises trigger state (call counts, rng draws) under the
        # concurrent workload driver; disarmed call sites never take it
        self._mutex = threading.Lock()

    # -- configuration -----------------------------------------------------

    def points(self) -> Tuple[str, ...]:
        """Every registered failure point, sorted."""
        return tuple(sorted(self._points))

    def describe(self, site: str) -> str:
        return self._points[site]

    def register(self, site: str, description: str = "") -> None:
        """Add a failure point (extensions register theirs at import)."""
        self._points.setdefault(site, description)

    def arm(
        self,
        site: str,
        probability: Optional[float] = None,
        on_call: Optional[int] = None,
        error: Type[Exception] = InjectedFaultError,
        seed: int = 0,
        max_fires: Optional[int] = None,
    ) -> None:
        """Arm ``site``; exactly one of ``probability`` / ``on_call``.

        ``probability`` fires each call with that chance from a
        ``random.Random(seed)`` stream; ``on_call=N`` fires on the Nth
        call only. ``error`` is the exception *class* to raise and
        ``max_fires`` caps the total number of firings.
        """
        if site not in self._points:
            raise KeyError(
                f"unknown fault point {site!r}; "
                f"registered: {', '.join(self.points())}"
            )
        if (probability is None) == (on_call is None):
            raise ValueError(
                "arm() needs exactly one of probability= or on_call="
            )
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if on_call is not None and on_call < 1:
            raise ValueError(f"on_call must be >= 1, got {on_call}")
        self._arms[site] = _Arm(
            site, probability, on_call, error, seed, max_fires
        )
        self.active = True

    def arm_all(
        self,
        probability: float,
        seed: int = 0,
        error: Type[Exception] = InjectedFaultError,
        max_fires: Optional[int] = None,
    ) -> None:
        """Chaos mode: arm every registered point with one probability.

        Each site gets its own stream seeded from ``seed`` and the site
        name, so firing patterns are independent but reproducible.
        """
        for index, site in enumerate(self.points()):
            self.arm(
                site,
                probability=probability,
                error=error,
                seed=seed * 1000003 + index,
                max_fires=max_fires,
            )

    def disarm(self, site: str) -> None:
        self._arms.pop(site, None)
        self.active = bool(self._arms)

    def disarm_all(self) -> None:
        self._arms.clear()
        self.active = False

    def reset(self) -> None:
        """Disarm everything and zero the counters."""
        self.disarm_all()
        self.fired_total = 0

    # -- the hot path ------------------------------------------------------

    def hit(self, site: str) -> None:
        """Called by instrumented code; raises when the site's trigger fires.

        Call sites guard with ``if FAULTS.active:`` so the disarmed cost
        is a single attribute read.
        """
        if not self.active:
            return
        with self._mutex:
            arm = self._arms.get(site)
            if arm is None or not arm.should_fire():
                return
            arm.fired += 1
            self.fired_total += 1
        from repro.obs.metrics import GLOBAL

        GLOBAL.counter(
            "faults_fired_total", "injected faults that fired"
        ).inc()
        raise arm.error(
            f"injected fault at {site} (call #{arm.calls})"
        )

    def fire_counts(self) -> Dict[str, int]:
        """site -> times fired, for armed sites."""
        return {site: arm.fired for site, arm in sorted(self._arms.items())}


#: the process-wide registry every engine call site consults
FAULTS = FaultRegistry()


@contextmanager
def injected(site: str, **kwargs) -> Iterator[FaultRegistry]:
    """Arm one site for the duration of a ``with`` block."""
    FAULTS.arm(site, **kwargs)
    try:
        yield FAULTS
    finally:
        FAULTS.disarm(site)
