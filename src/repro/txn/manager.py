"""Snapshot-isolation MVCC: transaction ids, snapshots, undo, vacuum.

Row versioning follows the classic xmin/xmax design: every heap slot
carries the id of the transaction that created it (``xmin``) and, once
deleted or superseded, the id of the transaction that removed it
(``xmax``). The sentinel :data:`FROZEN_XID` (0) means "committed before
any live snapshot cares" — frozen rows are visible to everyone, and a
table whose every slot is frozen skips visibility checks entirely. Every
write runs in a transaction (an auto-commit statement in an implicit
single-statement one); with nothing else open its commit freezes its own
inserts and vacuums its own deletes before it returns, so a quiescent
database is all-frozen and reads at pre-MVCC speed.

Visibility for a snapshot ``S`` taken by transaction ``T``:

* ``xid == FROZEN_XID`` → treated as committed long ago (visible);
* ``xid == T``          → T's own work (visible);
* ``xid >= S.horizon``  → started after the snapshot (invisible);
* ``xid ∈ S.in_flight`` → uncommitted when the snapshot was taken
  (invisible — readers never see uncommitted writes);
* otherwise             → committed before the snapshot (visible).

A row is visible iff its ``xmin`` is visible and its ``xmax`` is not.
Aborted transactions need no special casing: rollback physically
reverses every stamp before the transaction leaves the active set, and
while the rollback runs its id is still in-flight for every snapshot.

Write-write conflicts are first-updater-wins: a writer locks each target
row (:class:`~repro.txn.locks.RowLockTable`) and then checks for a
committed ``xmax`` it did not see — finding one raises
:class:`~repro.errors.SerializationError`. Cleanup (physically removing
committed-dead versions, freezing committed inserts) is deferred until
the active set drains, so open snapshots never lose the versions they
may still need.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import EngineError
from repro.faults import FAULTS
from repro.txn.locks import RowLockTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engines.database import Database
    from repro.storage.table import Table

#: xmin/xmax sentinel: "committed before any live snapshot" / "not deleted"
FROZEN_XID = 0

#: transaction states
ACTIVE, COMMITTED, ABORTED = "active", "committed", "aborted"

#: a commit that writes more row versions than this logs them unbounded
#: (see :func:`written_boxes`), so a bulk load is never folded into a box
WRITE_BOX_ROWS = 64


def written_boxes(undo) -> Dict[str, Optional[tuple]]:
    """Table name -> the box around every row version an undo log wrote,
    old versions included (:meth:`Table.versions_box`), for the write
    log of :meth:`Database.bump_write_marks`; every box is None
    (unbounded) past :data:`WRITE_BOX_ROWS` versions."""
    if sum(count for _op, _table, _first, count in undo) > WRITE_BOX_ROWS:
        return dict.fromkeys(table.name for _op, table, _f, _c in undo)
    slots: Dict["Table", List[int]] = {}
    for _op, table, first, count in undo:
        slots.setdefault(table, []).extend(range(first, first + count))
    return {table.name: table.versions_box(ids)
            for table, ids in slots.items()}


class Snapshot:
    """An immutable visibility horizon: what one statement (or one whole
    transaction) is allowed to see."""

    __slots__ = ("txid", "horizon", "in_flight")

    def __init__(self, txid: int, horizon: int,
                 in_flight: FrozenSet[int]) -> None:
        self.txid = txid
        self.horizon = horizon
        self.in_flight = in_flight

    def xid_visible(self, xid: int) -> bool:
        if xid == self.txid:
            return True
        if xid >= self.horizon:
            return False
        return xid not in self.in_flight

    def row_visible(self, xmin: int, xmax: int) -> bool:
        """The MVCC visibility rule over one slot's stamps."""
        if xmin and not self.xid_visible(xmin):
            return False
        return not (xmax and self.xid_visible(xmax))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Snapshot(txid={self.txid}, horizon={self.horizon}, "
            f"in_flight={sorted(self.in_flight)})"
        )


class Transaction:
    """One open transaction: its snapshot plus the undo log that commit
    and rollback replay."""

    __slots__ = ("txid", "snapshot", "status", "undo")

    def __init__(self, txid: int, snapshot: Snapshot) -> None:
        self.txid = txid
        self.snapshot = snapshot
        self.status = ACTIVE
        #: ("insert" | "delete", table, first_row_id, count) runs in
        #: execution order: the heap is append-only, so the rows one
        #: statement (or one ``insert_rows`` batch) inserts are one run,
        #: however many there are; an UPDATE contributes a delete of the
        #: old version and an insert of the new one per row
        self.undo: List[Tuple[str, "Table", int, int]] = []

    def record(self, op: str, table: "Table", first: int,
               count: int = 1) -> None:
        if count:
            self.undo.append((op, table, first, count))


class Session:
    """Per-connection transaction state (the engine's default session
    serves callers that use :class:`Database` directly)."""

    __slots__ = ("txn", "session_id")

    #: process-wide id source so active-session rows (``jackpine top``,
    #: ``jackpine_progress``) can name sessions
    _next_id = itertools.count(1)

    def __init__(self) -> None:
        self.txn: Optional[Transaction] = None
        self.session_id = next(Session._next_id)

    @property
    def in_transaction(self) -> bool:
        return self.txn is not None


class TxnManager:
    """Issues transaction ids, tracks the active set, and applies
    commit/rollback against the owning database's heap and indexes."""

    #: default row-lock wait budget before declaring a deadlock
    LOCK_TIMEOUT = 1.0

    def __init__(self, database: "Database",
                 lock_timeout: float = LOCK_TIMEOUT) -> None:
        self._db = database
        self._lock = threading.RLock()
        self._next_txid = 1
        self._active: Dict[int, Transaction] = {}
        self.locks = RowLockTable(on_wait=self._on_row_lock_wait)
        self.lock_timeout = lock_timeout
        # committed transactions' undo runs, flushed when the active set
        # drains: inserts to freeze, deleted versions a still-open
        # snapshot might need to vacuum
        self._pending: List[Tuple[str, "Table", int, int]] = []

    # -- lifecycle ---------------------------------------------------------

    def begin(self) -> Transaction:
        with self._lock:
            txid = self._next_txid
            self._next_txid += 1
            snapshot = Snapshot(txid, txid, frozenset(self._active))
            txn = Transaction(txid, snapshot)
            self._active[txid] = txn
            return txn

    def read_snapshot(self) -> Optional[Snapshot]:
        """A single-statement snapshot for an auto-commit reader, or
        ``None`` when no transaction is open anywhere — the fast path
        where visibility checks are skipped entirely."""
        with self._lock:
            if not self._active:
                return None
            return Snapshot(-1, self._next_txid, frozenset(self._active))

    def commit(self, txn: Transaction) -> None:
        if txn.status is not ACTIVE:
            raise EngineError(
                f"cannot commit transaction {txn.txid}: {txn.status}"
            )
        if FAULTS.active:
            # before any state changes: a fired fault leaves the
            # transaction active, and the caller's rollback undoes it
            FAULTS.hit("txn.commit")
        # the only durability call a transaction makes: its row records
        # and COMMIT are logged and fsynced before any in-memory commit
        # state changes, so a failure here leaves the transaction active
        # for the caller's rollback, and a log without its commit record
        # discards it (a no-op without storage)
        self._db.durability.log_commit(txn)
        # read before the garbage flush below vacuums the versions it
        # deleted: their boxes count, or a row moved out of a window
        # would leave a cached read of that window standing
        boxes = written_boxes(txn.undo) if txn.undo else None
        with self._lock:
            self._pending.extend(txn.undo)
            txn.status = COMMITTED
            del self._active[txn.txid]
            self.locks.release_all(txn.txid)
            self._metrics_counter(
                "txn_commits_total", "transactions committed"
            ).inc()
            if not self._active:
                self._flush_garbage()
        if boxes is not None:
            # after visibility: the watermark must never get ahead of the
            # rows it vouches for, or a cache fill racing this commit
            # could tag a pre-commit result with the post-commit xid
            self._db.bump_write_marks(boxes, txn.txid)

    def rollback(self, txn: Transaction) -> None:
        if txn.status is not ACTIVE:
            raise EngineError(
                f"cannot roll back transaction {txn.txid}: {txn.status}"
            )
        with self._lock:
            # reverse order: an UPDATE's new version disappears before the
            # old version's delete stamp is cleared
            for op, table, first, count in reversed(txn.undo):
                for row_id in reversed(range(first, first + count)):
                    if op == "insert":
                        self._db._index_remove(table, row_id)
                        table.rollback_insert(row_id)
                    else:
                        table.clear_deleted(row_id)
            txn.status = ABORTED
            del self._active[txn.txid]
            self.locks.release_all(txn.txid)
            self._metrics_counter(
                "txn_aborts_total", "transactions rolled back"
            ).inc()
            if not self._active:
                self._flush_garbage()

    # -- introspection -----------------------------------------------------

    @property
    def active_count(self) -> int:
        with self._lock:
            return len(self._active)

    @property
    def pending_garbage(self) -> int:
        with self._lock:
            return sum(count for _op, _table, _first, count in self._pending)

    @property
    def next_txid(self) -> int:
        with self._lock:
            return self._next_txid

    def stamp(self) -> int:
        """Allocate a fresh xid with no transaction attached — the
        write watermark for DDL, which auto-commits outside the
        transaction machinery."""
        with self._lock:
            xid = self._next_txid
            self._next_txid += 1
            return xid

    def set_next_txid(self, value: int) -> None:
        """Advance the txid source (recovery: past every logged txid)."""
        with self._lock:
            self._next_txid = max(self._next_txid, value)

    def active_txids(self) -> Tuple[int, ...]:
        with self._lock:
            return tuple(self._active)

    # -- internals ---------------------------------------------------------

    def _flush_garbage(self) -> None:
        """No open snapshot can need old versions any more: physically
        remove committed-dead rows and freeze committed inserts.

        Called with the manager lock held, from a context that holds the
        database's exclusive latch (COMMIT/ROLLBACK statements run
        exclusively), so heap and index mutation is safe.
        """
        for op, table, first, count in self._pending:
            if op == "insert":
                table.freeze_rows(first, count)
                continue
            for row_id in range(first, first + count):
                if table.rows[row_id] is not None:
                    self._db._index_remove(table, row_id)
                    table.delete_row(row_id)
                    table.vacuumed_rows += 1
        self._pending.clear()

    def _metrics_counter(self, name: str, help_text: str):
        return self._db.obs.metrics.counter(name, help_text)

    def lock_wait_histogram(self):
        return self._db.obs.metrics.histogram(
            "txn_lock_wait_seconds",
            "seconds spent waiting for row write locks",
        )

    def _on_row_lock_wait(self, key, txid, waited: float,
                          timed_out: bool) -> None:
        """The single recording point for row-lock waits: the histogram
        is fed from the same measurement as the ``LockManager:RowLock``
        wait-event records (see :class:`~repro.txn.locks.RowLockTable`),
        so the two views cannot drift. Timed-out waits count too — the
        blocked time was spent either way."""
        self.lock_wait_histogram().observe(waited)

    def conflict_counter(self):
        return self._metrics_counter(
            "txn_conflicts_total",
            "write-write conflicts (first-updater-wins losses and "
            "lock-wait timeouts)",
        )
