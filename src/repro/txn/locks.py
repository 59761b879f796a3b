"""Locking primitives for the MVCC transaction subsystem.

Two independent mechanisms with different lifetimes:

* :class:`RowLockTable` — logical row write locks, keyed by
  ``(table_name, row_id)`` and held from the first write to a row until
  the owning transaction commits or rolls back. Readers never take row
  locks (snapshot isolation: readers never block). Deadlocks are broken
  by timeout: a blocked acquirer that exceeds its wait budget raises
  :class:`~repro.errors.SerializationError`, which aborts exactly one of
  the transactions in the cycle.

* :class:`SharedExclusiveLock` — the database *latch*, protecting the
  physical structures (heap arrays, spatial indexes, catalog) for the
  duration of one statement. SELECTs hold it shared, anything that
  mutates holds it exclusive. It is never held across statements, so it
  orders physical access without providing isolation — that is the row
  locks' and the snapshots' job.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Set, Tuple

from repro.errors import SerializationError
from repro.obs.waits import LATCH_EXCLUSIVE, LATCH_SHARED, LOCK_ROW, WAITS

LockKey = Tuple[str, int]


class RowLockTable:
    """Per-row write locks with blocking acquire and timeout.

    One mutex guards the whole table; waiters block on a per-key
    condition sharing that mutex. Locks are reentrant per owner and
    released all at once at transaction end (strict two-phase locking
    on the write set).

    Every blocked :meth:`acquire` is a ``LockManager:RowLock`` wait
    event, and the *same* measurement is what reaches the ``on_wait``
    callback (the transaction manager feeds its lock-wait histogram from
    it) — one recording point, so the two views cannot drift.
    """

    def __init__(self, on_wait=None) -> None:
        self._mutex = threading.Lock()
        self._owners: Dict[LockKey, int] = {}
        self._conds: Dict[LockKey, threading.Condition] = {}
        self._held: Dict[int, Set[LockKey]] = {}
        #: ``on_wait(key, txid, waited_seconds, timed_out)`` after every
        #: blocked acquire, successful or not
        self.on_wait = on_wait

    def try_acquire(self, key: LockKey, txid: int) -> bool:
        """Take the lock if free (or already ours); never blocks."""
        with self._mutex:
            owner = self._owners.get(key)
            if owner is None:
                self._owners[key] = txid
                self._held.setdefault(txid, set()).add(key)
                return True
            return owner == txid

    def acquire(self, key: LockKey, txid: int, timeout: float) -> float:
        """Block until the lock is ours; returns seconds spent waiting.

        Raises :class:`SerializationError` after ``timeout`` seconds —
        the deadlock-detection-by-timeout contract: any wait-for cycle
        eventually trips one waiter's budget and aborts it.
        """
        started = time.monotonic()
        timed_out = False
        try:
            return WAITS.timed(LOCK_ROW, self._wait_for, key)(
                key, txid, started, timeout
            )
        except SerializationError:
            timed_out = True
            raise
        finally:
            if self.on_wait is not None:
                self.on_wait(
                    key, txid, time.monotonic() - started, timed_out
                )

    def _wait_for(self, key: LockKey, txid: int, started: float,
                  timeout: float) -> float:
        """The blocking loop of :meth:`acquire`, timed as one
        ``LockManager:RowLock`` wait event when the monitor is on."""
        deadline = started + timeout
        with self._mutex:
            while True:
                owner = self._owners.get(key)
                if owner is None or owner == txid:
                    self._owners[key] = txid
                    self._held.setdefault(txid, set()).add(key)
                    return time.monotonic() - started
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise SerializationError(
                        f"transaction {txid} timed out after "
                        f"{timeout:.3g}s waiting for row lock {key} "
                        f"held by transaction {owner} "
                        f"(possible deadlock)"
                    )
                cond = self._conds.get(key)
                if cond is None:
                    cond = self._conds[key] = threading.Condition(
                        self._mutex
                    )
                cond.wait(remaining)

    def release_all(self, txid: int) -> None:
        """Drop every lock the transaction holds and wake its waiters."""
        with self._mutex:
            for key in self._held.pop(txid, ()):
                if self._owners.get(key) == txid:
                    del self._owners[key]
                cond = self._conds.get(key)
                if cond is not None:
                    cond.notify_all()
                    if self._owners.get(key) is None:
                        # nobody owns it; the condition is rebuilt on demand
                        del self._conds[key]

    def owner_of(self, key: LockKey) -> Optional[int]:
        with self._mutex:
            return self._owners.get(key)

    def held_by(self, txid: int) -> Set[LockKey]:
        with self._mutex:
            return set(self._held.get(txid, ()))


class SharedExclusiveLock:
    """A readers-writer latch with writer preference and owner reentrancy.

    ``acquire_exclusive`` is reentrant for the owning thread (a COMMIT
    issued while applying a statement must not self-deadlock), and a
    thread holding the exclusive side passes straight through
    ``acquire_shared``.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._readers = 0
        self._writer: Optional[int] = None
        self._writer_depth = 0
        self._waiting_writers = 0

    def acquire_shared(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                # exclusive covers shared; nothing extra to take
                self._writer_depth += 1
                return
            if self._writer is not None or self._waiting_writers:
                WAITS.timed(LATCH_SHARED, self._wait_shared)()
            self._readers += 1

    def _wait_shared(self) -> None:
        """Blocked-path wait loop (caller holds ``self._cond``); timed as
        a ``Latch:StatementShared`` wait event when the monitor is on."""
        while self._writer is not None or self._waiting_writers:
            self._cond.wait()

    def release_shared(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth -= 1
                return
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_exclusive(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            self._waiting_writers += 1
            try:
                if self._writer is not None or self._readers:
                    WAITS.timed(LATCH_EXCLUSIVE, self._wait_exclusive)()
            finally:
                self._waiting_writers -= 1
            self._writer = me
            self._writer_depth = 1

    def _wait_exclusive(self) -> None:
        """Blocked-path wait loop (caller holds ``self._cond``); timed as
        a ``Latch:StatementExclusive`` wait event when the monitor is on."""
        while self._writer is not None or self._readers:
            self._cond.wait()

    def release_exclusive(self) -> None:
        with self._cond:
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    def shared(self) -> "_Held":
        return _Held(self.acquire_shared, self.release_shared)

    def exclusive(self) -> "_Held":
        return _Held(self.acquire_exclusive, self.release_exclusive)


class _Held:
    """Context manager pairing one acquire with one release."""

    __slots__ = ("_acquire", "_release")

    def __init__(self, acquire, release):
        self._acquire = acquire
        self._release = release

    def __enter__(self) -> None:
        self._acquire()

    def __exit__(self, *exc) -> None:
        self._release()
