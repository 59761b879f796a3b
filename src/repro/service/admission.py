"""Admission control: bounded queue, per-request deadlines, load shedding.

Every query request passes through three gates:

1. :meth:`AdmissionControl.try_admit` on the event-loop thread — if the
   number of admitted-but-not-yet-executing requests has reached
   ``max_queue``, the request is shed immediately with a typed
   ``overloaded`` response. This is the bound that keeps queue growth
   (and therefore queueing latency) finite under overload.
2. :meth:`AdmissionControl.begin` on the worker thread — measures the
   time spent queued once, as the ``Service:QueueWait`` wait event and
   the request's ``queue.wait`` stage, then enforces the per-request
   deadline: a request whose deadline budget was eaten by queueing is
   shed *before* it touches the engine (executing a query whose client
   has given up is pure goodput loss).
3. The *remaining* deadline is what :meth:`begin` returns; the server
   arms it as the statement's :mod:`repro.guard` timeout, so a query
   admitted with 80ms of budget left is cancelled by the ordinary
   guardrail machinery at 80ms, not at the full statement timeout.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

from repro.errors import ServiceOverloadedError
from repro.obs.requests import NULL_REQUEST
from repro.obs.waits import SERVICE_QUEUE, WAITS

__all__ = ["AdmissionControl", "AdmissionTicket"]


class AdmissionTicket:
    __slots__ = ("arrival", "deadline")

    def __init__(self, arrival: float, deadline: float):
        self.arrival = arrival
        self.deadline = deadline


class AdmissionControl:
    def __init__(self, max_queue: int = 32, deadline: float = 1.0):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        self.max_queue = max_queue
        self.deadline = deadline
        self._lock = threading.Lock()
        self._queued = 0
        self._executing = 0
        self.peak_queue = 0
        self.admitted = 0
        self.completed = 0
        self.shed_queue_full = 0
        self.shed_deadline = 0

    def try_admit(self) -> Optional[AdmissionTicket]:
        """Admit or shed; ``None`` means the queue is full."""
        now = time.perf_counter()
        with self._lock:
            if self._queued >= self.max_queue:
                self.shed_queue_full += 1
                return None
            self._queued += 1
            if self._queued > self.peak_queue:
                self.peak_queue = self._queued
            self.admitted += 1
        return AdmissionTicket(now, now + self.deadline)

    def cancel(self, ticket: AdmissionTicket) -> None:
        """Give an admitted slot back without executing (dispatch failed)."""
        with self._lock:
            self._queued -= 1

    def begin(self, ticket: AdmissionTicket,
              request: Any = NULL_REQUEST) -> float:
        """Worker picked the request up: account the queue wait (also as
        ``request``'s stage), enforce the deadline, move queued ->
        executing. Returns the remaining deadline budget in seconds."""
        now = time.perf_counter()
        waited = now - ticket.arrival
        WAITS.record(SERVICE_QUEUE, waited)
        request.stage("queue.wait", ticket.arrival, waited)
        remaining = ticket.deadline - now
        with self._lock:
            self._queued -= 1
            if remaining <= 0.0:
                self.shed_deadline += 1
            else:
                self._executing += 1
        if remaining <= 0.0:
            raise ServiceOverloadedError(
                f"deadline expired after {waited:.3f}s in "
                f"queue (budget {self.deadline:.3f}s)",
                retry_after=self.deadline,
            )
        return remaining

    def done(self) -> None:
        with self._lock:
            self._executing -= 1
            self.completed += 1

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "queue_depth": self._queued,
                "queue_limit": self.max_queue,
                "peak_queue": self.peak_queue,
                "executing": self._executing,
                "admitted": self.admitted,
                "completed": self.completed,
                "shed_queue_full": self.shed_queue_full,
                "shed_deadline": self.shed_deadline,
            }
