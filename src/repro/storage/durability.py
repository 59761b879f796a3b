"""The durability layer: WAL + heap pages wired under the MVCC engine.

The in-memory :class:`~repro.storage.table.Table` heap stays the
execution data structure; this module maintains a *durable mirror* of
the committed-plus-in-flight state in slotted pages
(:mod:`repro.storage.pages`) guarded by a write-ahead log
(:mod:`repro.storage.wal`), the way in-memory engines persist. The
engine calls one hook per logical row operation:

* ``log_insert`` / ``log_delete`` — append a WAL record (with undo
  information: old values ride in delete records; an UPDATE logs the
  insert of its new version and the delete of its old one), then apply
  the change to the heap pages (steal policy: uncommitted rows do reach
  disk; recovery undoes them);
* ``log_commit`` — append COMMIT and group-fsync: the transaction is
  durable exactly when this returns;
* ``log_abort`` — append ABORT and reverse the transaction's page
  effects from the in-memory undo log (never raises on the cleanup
  path);
* ``log_ddl`` — schema changes, logged and fsynced immediately;
* ``checkpoint`` — flush dirty pages, then atomically rewrite the WAL
  to the records of still-active transactions (their undo information
  must survive) plus one ``checkpoint`` record carrying the table and
  index definitions.

A database directory is therefore two files: the page file and the WAL.
:func:`recover` is the ARIES-lite restart path: scan the page file for
the raw row image, take the schema from the log's first checkpoint
record, then **analysis** (who committed?) → **redo** (replay every
logged op in LSN order, DDL included — idempotent, so effects already on
disk are harmless) → **undo** (reverse losers' ops newest-first, guarded
by a last-writer check so a recycled row id is never clobbered) →
rebuild the in-memory heap, catalog and spatial indexes, and checkpoint.

Crash simulation: when an armed WAL/page fault raises
:class:`~repro.errors.SimulatedCrashError`, the layer *freezes first* —
WAL truncated to its durable offset, every later durable write refused —
before the error propagates, so the engine's error cleanup cannot touch
the "dead" disk. See ``docs/DURABILITY.md``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from repro.errors import EngineError, SimulatedCrashError
from repro.storage.pages import (
    PAGE_SIZE,
    BufferManager,
    DiskManager,
    HeapStore,
)
from repro.storage.records import decode_value, encode_value
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engines.database import Database
    from repro.txn.manager import Transaction

__all__ = [
    "CheckpointReport",
    "DurabilityManager",
    "RecoveryReport",
    "recover",
]

PAGES_FILE = "pages.db"
WAL_FILE = "wal.log"

_ROW_OPS = ("insert", "delete")


@dataclass
class CheckpointReport:
    """What one checkpoint did."""

    lsn: int
    pages_flushed: int
    wal_records_kept: int
    wal_bytes: int

    def describe(self) -> str:
        return (
            f"checkpoint lsn={self.lsn}: flushed {self.pages_flushed} "
            f"pages, kept {self.wal_records_kept} WAL records "
            f"({self.wal_bytes} bytes)"
        )


@dataclass
class RecoveryReport:
    """What :func:`recover` found and rebuilt."""

    profile: str = "greenwood"
    tables: Dict[str, int] = field(default_factory=dict)
    indexes: List[str] = field(default_factory=list)
    wal_records: int = 0
    winners: int = 0
    losers: int = 0
    redone: int = 0
    undone: int = 0
    checkpoint_lsn: int = 0
    next_txid: int = 1
    analysis_seconds: float = 0.0
    redo_seconds: float = 0.0
    undo_seconds: float = 0.0
    rebuild_seconds: float = 0.0
    total_seconds: float = 0.0

    def describe(self) -> str:
        rows = sum(self.tables.values())
        return (
            f"recovered {self.profile} database: "
            f"{len(self.tables)} tables, {rows} rows, "
            f"{len(self.indexes)} indexes in {self.total_seconds:.3f}s "
            f"(scanned {self.wal_records} WAL records: "
            f"{self.winners} committed, {self.losers} undone losers; "
            f"redo {self.redone} ops, undo {self.undone} ops)"
        )


class DurabilityManager:
    """Owns one database directory's page file, WAL, and buffer pool."""

    def __init__(
        self,
        directory: str,
        page_size: int = PAGE_SIZE,
        buffer_pages: int = 128,
        profile: str = "greenwood",
    ):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.wal = WriteAheadLog(
            os.path.join(directory, WAL_FILE), profile=profile
        )
        self.disk = DiskManager(
            os.path.join(directory, PAGES_FILE), page_size=page_size
        )
        self.buffer = BufferManager(
            self.disk, capacity=buffer_pages,
            wal_barrier=self.wal.sync_for,
        )
        self.heap = HeapStore(self.buffer)
        self._db: Optional["Database"] = None
        self.crashed = False
        self.checkpoints_total = 0
        self.last_checkpoint_lsn = 0
        #: logged row-op counts per open transaction: read-only commits
        #: skip the COMMIT record (and its fsync) entirely
        self._txn_ops: Dict[int, int] = {}

    def bind(self, db: "Database") -> None:
        self._db = db
        # the next checkpoint's WAL header records the bound profile
        self.wal.profile = db.profile.name

    # -- crash simulation --------------------------------------------------

    def crash(self) -> None:
        """Freeze the layer as if the process died this instant."""
        if self.crashed:
            return
        self.crashed = True
        self.wal.freeze()

    def _check_live(self) -> None:
        if self.crashed:
            raise SimulatedCrashError(
                "durability layer is frozen (simulated crash); "
                "recover the database directory to continue"
            )

    # -- row-operation hooks -----------------------------------------------

    def log_insert(self, txid: int, table: str, rid: int,
                   values: tuple) -> None:
        self._check_live()
        try:
            encoded = [encode_value(v) for v in values]
            lsn = self.wal.append({
                "type": "wal", "op": "insert", "txid": txid,
                "table": table, "rid": rid, "values": encoded,
            })
            self.heap.insert(table, rid, encoded, lsn)
            self._txn_ops[txid] = self._txn_ops.get(txid, 0) + 1
        except SimulatedCrashError:
            self.crash()
            raise

    def log_delete(self, txid: int, table: str, rid: int,
                   old_values: tuple) -> None:
        self._check_live()
        try:
            lsn = self.wal.append({
                "type": "wal", "op": "delete", "txid": txid,
                "table": table, "rid": rid,
                "old": [encode_value(v) for v in old_values],
            })
            self.heap.delete(table, rid, lsn)
            self._txn_ops[txid] = self._txn_ops.get(txid, 0) + 1
        except SimulatedCrashError:
            self.crash()
            raise

    # -- transaction boundaries --------------------------------------------

    def log_commit(self, txid: int) -> None:
        """Append COMMIT and fsync; the transaction is durable on return."""
        self._check_live()
        if not self._txn_ops.pop(txid, 0):
            return  # read-only transaction: nothing to make durable
        try:
            lsn = self.wal.append({"type": "wal", "op": "commit",
                                   "txid": txid})
            self.wal.sync_for(lsn)
        except SimulatedCrashError:
            self.crash()
            raise

    def log_abort(self, txn: "Transaction") -> None:
        """Append ABORT and reverse the transaction's page effects.

        Runs on the error-cleanup path, so it must not raise: after a
        simulated crash the disk is frozen and the reversal is skipped —
        recovery will undo the loser from the WAL instead.
        """
        ops = self._txn_ops.pop(txn.txid, 0)
        if self.crashed or not ops:
            return
        try:
            lsn = self.wal.append({"type": "wal", "op": "abort",
                                   "txid": txn.txid})
            # newest-first, mirroring TxnManager.rollback; the in-memory
            # rows still hold the values this reversal needs (the hook
            # runs before the memory-side rollback)
            for op, table, first, count in reversed(txn.undo):
                for rid in reversed(range(first, first + count)):
                    if op == "insert":
                        self.heap.delete(table.name, rid, lsn)
                        continue
                    row = table.rows[rid]
                    if row is not None:
                        self.heap.insert(
                            table.name, rid,
                            [encode_value(v) for v in row], lsn,
                        )
        except SimulatedCrashError:
            self.crash()

    # -- DDL ---------------------------------------------------------------

    def log_ddl(self, ddl: str, **fields: Any) -> None:
        """Log a schema change and fsync immediately (DDL is rare and
        auto-commits in this engine)."""
        self._check_live()
        try:
            record = {"type": "wal", "op": "ddl", "ddl": ddl, "txid": 0}
            record.update(fields)
            lsn = self.wal.append(record)
            if ddl == "drop_table":
                self.heap.drop_table(fields["name"], lsn)
            self.wal.sync_for(lsn)
        except SimulatedCrashError:
            self.crash()
            raise

    # -- checkpoint --------------------------------------------------------

    def checkpoint(self) -> CheckpointReport:
        """Flush dirty pages, then replace the WAL with a checkpoint.

        Caller must hold the database's exclusive statement latch (no
        statement is mid-flight). The rewritten log holds the records of
        still-active transactions — their undo information must survive
        until they resolve; redo idempotency makes the carried copies
        harmless if they later commit — and one ``checkpoint`` record
        carrying the table and index definitions, so the rewrite is the
        checkpoint's one atomic step.
        """
        self._check_live()
        db = self._db
        if db is None:
            raise EngineError("durability manager is not bound to a database")
        try:
            self.wal.sync()
            flushed = self.buffer.flush_all()
            self.disk.sync()
            active = set(db.txn.active_txids())
            keep = [
                r for r in self.wal.records()
                if r.get("txid") in active and r.get("op") in _ROW_OPS
            ]
            ckpt = {
                "type": "wal", "op": "checkpoint", "txid": 0,
                "active": sorted(active),
                "next_txid": db.txn.next_txid,
                "tables": [
                    {"name": t.name,
                     "columns": [[c.name, c.type.value] for c in t.columns]}
                    for t in db.catalog.tables()
                ],
                "indexes": [
                    {
                        "name": e.name, "table": e.table_name,
                        "column": e.column_name, "kind": e.index.kind,
                    }
                    for e in db.catalog.indexes()
                ],
            }
            lsn = self.wal.append(ckpt)
            self.wal.rewrite(keep + [ckpt])
            self.last_checkpoint_lsn = lsn
            self.checkpoints_total += 1
            return CheckpointReport(
                lsn, flushed, len(keep), self.wal.size_bytes()
            )
        except SimulatedCrashError:
            self.crash()
            raise

    # -- attach-time mirroring ---------------------------------------------

    def mirror_existing_rows(self) -> int:
        """Write every current in-memory row to the heap pages (used when
        storage is attached to a database that already holds data, e.g.
        a loaded benchmark dataset); returns the row count."""
        self._check_live()
        if self._db is None:
            raise EngineError("durability manager is not bound to a database")
        count = 0
        for table in self._db.catalog.tables():
            for rid, row in table.scan():
                self.heap.insert(
                    table.name, rid, [encode_value(v) for v in row], 0
                )
                count += 1
        return count

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "wal_records": self.wal.records_total,
            "wal_bytes": self.wal.size_bytes(),
            "wal_syncs": self.wal.syncs_total,
            "durable_lsn": self.wal.durable_lsn,
            "pages_on_disk": self.disk.page_count,
            "pages_read": self.disk.pages_read,
            "pages_written": self.disk.pages_written,
            "buffer_capacity": self.buffer.capacity,
            "buffer_hits": self.buffer.hits,
            "buffer_misses": self.buffer.misses,
            "buffer_evictions": self.buffer.evictions,
            "buffer_hit_ratio": self.buffer.hit_ratio,
            "buffer_dirty": self.buffer.dirty_count,
            "checkpoints": self.checkpoints_total,
            "checkpoint_lsn": self.last_checkpoint_lsn,
            "crashed": self.crashed,
        }

    def close(self) -> None:
        self.wal.close()
        self.disk.close()


# -- recovery ---------------------------------------------------------------


def recover(
    directory: str,
    profile: Optional[str] = None,
    page_size: int = PAGE_SIZE,
    buffer_pages: int = 128,
) -> Tuple["Database", RecoveryReport]:
    """ARIES-lite restart: rebuild a :class:`Database` from a directory.

    Analysis → redo → undo over the durable WAL, starting from the raw
    page image; then the in-memory heap, catalog and spatial indexes are
    rebuilt, the recovered database gets the durability manager attached,
    and a fresh checkpoint truncates the replayed log. ``profile``
    overrides the one the WAL header records.
    """
    from repro.engines.database import Database

    total_started = time.perf_counter()
    report = RecoveryReport()
    mgr = DurabilityManager(
        directory, page_size=page_size, buffer_pages=buffer_pages,
        profile=profile or "greenwood",
    )
    report.profile = profile or mgr.wal.profile

    mgr.heap.adopt_from_disk()
    records = mgr.wal.records()
    report.wal_records = len(records)

    # schema baseline from the first checkpoint record — the head the
    # last completed rewrite left; WAL DDL redo layers on top
    baseline = next(
        (r for r in records if r.get("op") == "checkpoint"), {}
    )
    report.checkpoint_lsn = int(baseline.get("lsn", 0))
    tables: Dict[str, List[List[str]]] = {
        t["name"]: t["columns"] for t in baseline.get("tables", ())
    }
    indexes: Dict[str, dict] = {
        e["name"]: e for e in baseline.get("indexes", ())
    }

    # -- analysis: last disposition wins per transaction --------------------
    started = time.perf_counter()
    disposition: Dict[int, str] = {}
    max_txid = 0
    for record in records:
        txid = record.get("txid", 0)
        max_txid = max(max_txid, txid)
        op = record.get("op")
        if op in _ROW_OPS:
            disposition.setdefault(txid, "in-flight")
        elif op == "commit":
            disposition[txid] = "committed"
        elif op == "abort":
            disposition[txid] = "aborted"
        elif op == "checkpoint":
            max_txid = max(max_txid, int(record.get("next_txid", 1)) - 1)
    losers: Set[int] = {
        txid for txid, state in disposition.items() if state != "committed"
    }
    report.winners = len(disposition) - len(losers)
    report.losers = len(losers)
    report.analysis_seconds = time.perf_counter() - started

    # -- redo: replay everything in LSN order (idempotent) ------------------
    started = time.perf_counter()
    last_writer: Dict[Tuple[str, int], int] = {}
    for record in records:
        op = record.get("op")
        lsn = record.get("lsn", 0)
        if op == "ddl":
            ddl = record.get("ddl")
            if ddl == "create_table":
                tables.setdefault(record["name"], record["columns"])
            elif ddl == "drop_table":
                tables.pop(record["name"], None)
                mgr.heap.drop_table(record["name"], lsn)
                for name in [
                    n for n, e in indexes.items()
                    if e["table"] == record["name"]
                ]:
                    del indexes[name]
            elif ddl == "create_index":
                indexes[record["name"]] = {
                    "name": record["name"], "table": record["table"],
                    "column": record["column"], "kind": record["kind"],
                }
            elif ddl == "drop_index":
                indexes.pop(record["name"], None)
            report.redone += 1
            continue
        if op not in _ROW_OPS:
            continue
        key = (record["table"], record["rid"])
        if op == "delete":
            mgr.heap.delete(key[0], key[1], lsn)
        else:
            mgr.heap.insert(key[0], key[1], record["values"], lsn)
        last_writer[key] = record.get("txid", 0)
        report.redone += 1
    report.redo_seconds = time.perf_counter() - started

    # -- undo: reverse losers newest-first ----------------------------------
    started = time.perf_counter()
    for record in reversed(records):
        op = record.get("op")
        txid = record.get("txid", 0)
        if op not in _ROW_OPS or txid not in losers:
            continue
        key = (record["table"], record["rid"])
        if last_writer.get(key) != txid:
            continue  # a later transaction recycled this row id
        lsn = record.get("lsn", 0)
        if op == "insert":
            mgr.heap.delete(key[0], key[1], lsn)
        else:
            mgr.heap.insert(key[0], key[1], record["old"], lsn)
        report.undone += 1
    report.undo_seconds = time.perf_counter() - started

    # -- rebuild the in-memory engine ---------------------------------------
    started = time.perf_counter()
    db = Database(report.profile)
    for name, columns in tables.items():
        column_sql = ", ".join(
            f"{col} {type_name}" for col, type_name in columns
        )
        db.execute(f"CREATE TABLE {name} ({column_sql})")
    slots: Dict[str, Dict[int, tuple]] = {name: {} for name in tables}
    for table_name, rid, values in mgr.heap.rows():
        if table_name not in slots:
            continue  # rows of a table dropped after its last page write
        slots[table_name][rid] = tuple(decode_value(v) for v in values)
    for name, rows in slots.items():
        db.catalog.table(name).restore_slots(rows)
        report.tables[name] = len(rows)
    db.txn.set_next_txid(max_txid + 1)
    report.next_txid = max_txid + 1
    for entry in indexes.values():
        db.execute(
            f"CREATE SPATIAL INDEX {entry['name']} ON {entry['table']} "
            f"({entry['column']}) USING {entry['kind']}"
        )
        report.indexes.append(entry["name"])
    db.attach_durability(mgr)
    mgr.checkpoint()
    report.rebuild_seconds = time.perf_counter() - started
    report.total_seconds = time.perf_counter() - total_started
    db.recovery_report = report
    return db, report
