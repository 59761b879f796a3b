"""The durability layer: a redo-only WAL + heap pages under the MVCC engine.

The in-memory :class:`~repro.storage.table.Table` heap stays the
execution data structure. The slotted pages (:mod:`repro.storage.pages`)
hold the committed state as of the last checkpoint, and the write-ahead
log (:mod:`repro.storage.wal`) holds every committed change since — the
shape of SQLite's WAL mode. The policy is *no-steal, redo-only*: nothing
uncommitted ever reaches the log or the pages, so nothing ever has to be
undone, and a rollback writes nothing. The engine calls three hooks:

* ``log_commit`` — at COMMIT, append the transaction's row records (an
  insert carries its row, a delete only its row id; an UPDATE is the
  insert of the new version and the delete of the old one), then the
  COMMIT record, then group-fsync: the transaction is durable exactly
  when this returns;
* ``log_ddl`` — schema changes and ``ANALYZE``, logged and fsynced
  immediately;
* ``checkpoint`` — replay the log's committed records onto the heap
  pages, flush and fsync them, then atomically rewrite the WAL to one
  ``checkpoint`` record carrying the table and index definitions.

A database directory is therefore two files: the page file and the WAL.
:func:`recover` is the restart path: scan the page file for the raw row
image, take the schema from the log's first checkpoint record, then
**analysis** (which transactions have a commit record?) → **replay**
(the checkpoint's own :func:`_replay`: committed row records and DDL in
LSN order, idempotent, so effects already on disk are harmless) →
rebuild the in-memory heap, catalog, spatial and key indexes, and write
a checkpoint.

Crash simulation: when an armed WAL/page fault raises
:class:`~repro.errors.SimulatedCrashError`, the layer *freezes first* —
WAL truncated to its durable offset, every later durable write refused —
before the error propagates, so the engine's error cleanup cannot touch
the "dead" disk. See ``docs/DURABILITY.md``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from repro.errors import (EngineError, ReproError, SimulatedCrashError,
                          SqlProgrammingError)
from repro.storage.pages import DiskManager, HeapStore
from repro.storage.records import decode_value, encode_value
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engines.database import Database
    from repro.txn.manager import Transaction

__all__ = [
    "CheckpointReport",
    "Checkpointer",
    "DurabilityManager",
    "NoDurability",
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
    records_replayed: int
    wal_bytes: int

    def describe(self) -> str:
        return (
            f"checkpoint at lsn {self.lsn}: {self.records_replayed} WAL "
            f"record(s) replayed, {self.pages_flushed} page(s) written, "
            f"wal truncated to {self.wal_bytes} bytes"
        )


@dataclass
class RecoveryReport:
    """What :func:`recover` found and rebuilt.

    ``losers`` counts transactions whose row records have no commit
    record (they are discarded); ``undo_seconds`` is always 0.0 — there
    is no undo pass — and stays for readers of the per-pass timings.
    """

    profile: str = "greenwood"
    tables: Dict[str, int] = field(default_factory=dict)
    indexes: List[str] = field(default_factory=list)
    wal_records: int = 0
    winners: int = 0
    losers: int = 0
    redone: int = 0
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
            f"{self.winners} committed, {self.losers} discarded; "
            f"replayed {self.redone} records)"
        )


class NoDurability:
    """The durability of an in-memory database: every hook the engine
    calls does nothing, so no caller asks whether storage is attached.
    :meth:`~repro.engines.Database.attach_storage` replaces it with a
    :class:`DurabilityManager`."""

    attached = False
    crashed = False
    last_checkpoint_lsn = None

    def log_commit(self, txn: "Transaction") -> None:
        """Nothing to log: the commit is as durable as the process."""

    def log_ddl(self, ddl: str, **fields: Any) -> None:
        """Nothing to log."""

    def checkpoint(self) -> CheckpointReport:
        raise SqlProgrammingError("no durable storage attached")

    def stats(self) -> None:
        """No storage counters: a round report's ``storage`` is None."""

    def close(self) -> None:
        """No files to release."""


class DurabilityManager:
    """Owns one database directory's page file and WAL; ``buffer_pages``
    bounds how many pages the heap keeps in memory."""

    attached = True

    def __init__(
        self,
        directory: str,
        buffer_pages: int = 128,
        profile: str = "greenwood",
    ):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.wal = WriteAheadLog(
            os.path.join(directory, WAL_FILE), profile=profile
        )
        self.disk = DiskManager(os.path.join(directory, PAGES_FILE))
        self.heap = HeapStore(self.disk, capacity=buffer_pages)
        self._db: Optional["Database"] = None
        self.crashed = False
        self.checkpoints_total = 0
        self.last_checkpoint_lsn = 0

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

    # -- commit ------------------------------------------------------------

    def log_commit(self, txn: "Transaction") -> None:
        """Log ``txn``'s row records and COMMIT, then fsync; the
        transaction is durable on return.

        Called before any in-memory commit state changes, so every row
        the transaction wrote is still in its heap slot. A read-only
        transaction logs nothing. Undo entries of a table that has since
        been dropped (and perhaps re-created under the same name) are
        skipped: replaying them would put the old table's rows into the
        new one.
        """
        self._check_live()
        append = self.wal.append
        catalog = self._db.catalog
        txid = txn.txid
        lsn = 0
        try:
            for op, table, first, count in txn.undo:
                name = table.name
                if not (catalog.has_table(name)
                        and catalog.table(name) is table):
                    continue  # dropped since this transaction wrote it
                rows = table.rows
                for rid in range(first, first + count):
                    if op == "insert":
                        lsn = append({
                            "type": "wal", "op": "insert", "txid": txid,
                            "table": name, "rid": rid,
                            "values": [encode_value(v) for v in rows[rid]],
                        })
                    else:
                        lsn = append({
                            "type": "wal", "op": "delete", "txid": txid,
                            "table": name, "rid": rid,
                        })
            if not lsn:
                return  # nothing to make durable
            lsn = append({"type": "wal", "op": "commit", "txid": txid})
            self.wal.sync_for(lsn)
        except SimulatedCrashError:
            self.crash()
            raise

    # -- DDL ---------------------------------------------------------------

    def log_ddl(self, ddl: str, **fields: Any) -> None:
        """Log a schema change and fsync immediately (DDL is rare and
        auto-commits in this engine). Its page effects — a dropped
        table's rows — reach the pages through the checkpoint's replay."""
        self._check_live()
        try:
            record = {"type": "wal", "op": "ddl", "ddl": ddl, "txid": 0}
            record.update(fields)
            self.wal.sync_for(self.wal.append(record))
        except SimulatedCrashError:
            self.crash()
            raise

    # -- checkpoint --------------------------------------------------------

    def checkpoint(self) -> CheckpointReport:
        """Replay the WAL onto the pages, flush them, then replace the
        WAL with a checkpoint record.

        Caller must hold the database's exclusive statement latch (no
        statement is mid-flight). A crash before the WAL rewrite leaves
        the old log in place, and replaying it again is harmless.
        """
        self._check_live()
        written = self.disk.pages_written
        try:
            self.wal.sync()
            records = self.wal.records()
            replayed = _replay(self.heap, records, _committed(records))
        except SimulatedCrashError:
            self.crash()
            raise
        return self._write_checkpoint(replayed, written)

    def _write_checkpoint(self, replayed: int,
                          written: int) -> CheckpointReport:
        """Flush and fsync the (already replayed) pages, then rewrite the
        WAL to one ``checkpoint`` record — the checkpoint's one atomic
        step. ``written`` is the page-write count before the replay."""
        db = self._db
        if db is None:
            raise EngineError("durability manager is not bound to a database")
        ckpt = {
            "type": "wal", "op": "checkpoint", "txid": 0,
            "next_txid": db.txn.next_txid,
            "tables": [
                {"name": t.name,
                 "columns": [[c.name, c.type.value] for c in t.columns],
                 "analyzed": t.stats.analyzed}
                for t in db.catalog.tables()
            ],
            "indexes": [index_record(e) for e in db.catalog.indexes()],
        }
        try:
            self.heap.flush()
            self.disk.sync()
            lsn = self.wal.append(ckpt)
            self.wal.rewrite([ckpt])
        except SimulatedCrashError:
            self.crash()
            raise
        self.last_checkpoint_lsn = lsn
        self.checkpoints_total += 1
        return CheckpointReport(
            lsn, self.disk.pages_written - written, replayed,
            self.wal.size_bytes(),
        )

    # -- attach-time mirroring ---------------------------------------------

    def mirror_existing_rows(self) -> int:
        """Write every committed in-memory row to the heap pages (used
        when storage is attached to a database that already holds data,
        e.g. a loaded benchmark dataset); returns the row count. The
        rows of a transaction still open are left to its commit."""
        self._check_live()
        if self._db is None:
            raise EngineError("durability manager is not bound to a database")
        snapshot = self._db.txn.read_snapshot()
        count = 0
        for table in self._db.catalog.tables():
            for rid, row in table.scan(snapshot):
                self.heap.insert(
                    table.name, rid, [encode_value(v) for v in row]
                )
                count += 1
        return count

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        heap = self.heap
        touched = heap.hits + heap.misses
        return {
            "wal_records": self.wal.records_total,
            "wal_bytes": self.wal.size_bytes(),
            "wal_syncs": self.wal.syncs_total,
            "durable_lsn": self.wal.durable_lsn,
            "pages_on_disk": self.disk.page_count,
            "pages_read": self.disk.pages_read,
            "pages_written": self.disk.pages_written,
            "buffer_hits": heap.hits,
            "buffer_misses": heap.misses,
            "buffer_evictions": heap.evictions,
            "buffer_hit_ratio": heap.hits / touched if touched else 1.0,
            "checkpoints": self.checkpoints_total,
            "checkpoint_lsn": self.last_checkpoint_lsn,
            "crashed": self.crashed,
        }

    def close(self) -> None:
        self.wal.close()
        self.disk.close()


class Checkpointer:
    """Background checkpoint loop for durable workload rounds.

    Fires every ``interval`` seconds between :meth:`start` and
    :meth:`stop`, and does nothing when the interval is 0. A checkpoint
    that fails (an injected fault, a simulated crash mid-round, or a
    database without storage) is not counted and never kills the round
    — the crash-recovery experiments rely on the workload continuing so
    the WAL keeps growing past the failed checkpoint.
    """

    def __init__(self, database: "Database", interval: float) -> None:
        self._db = database
        self._interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.taken = 0

    def start(self) -> None:
        if not self._interval:
            return
        self._thread = threading.Thread(
            target=self._loop, name="jackpine-checkpointer", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._db.checkpoint()
                self.taken += 1
            except ReproError:
                pass

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None


def index_record(entry) -> Dict[str, Any]:
    """One index definition as the checkpoint record and the
    ``create_index`` DDL record carry it: a key index names its columns,
    a spatial index its column."""
    record: Dict[str, Any] = {
        "name": entry.name, "table": entry.table_name,
        "kind": entry.index.kind,
    }
    if entry.is_key:
        record["columns"] = list(entry.columns)
    else:
        record["column"] = entry.column_name
    return record


# -- replay (checkpoint and recovery) -----------------------------------------


def _committed(records: List[Dict[str, Any]]) -> Set[int]:
    """The transactions with a commit record."""
    return {r["txid"] for r in records if r.get("op") == "commit"}


def _replay(heap: HeapStore, records: List[Dict[str, Any]],
            committed: Set[int]) -> int:
    """Apply ``records`` to the heap pages in LSN order: the row records
    of ``committed`` transactions, and ``drop_table`` DDL. Returns how
    many records were applied (DDL counted).

    Idempotent — an insert replaces, a delete of an absent row is a
    no-op, and each record fully determines its row's state — so pages
    that already hold some of these effects (a checkpoint that died
    writing them) converge to the same image.
    """
    applied = 0
    for record in records:
        op = record.get("op")
        if op == "ddl":
            if record["ddl"] == "drop_table":
                heap.drop_table(record["name"])
        elif op == "insert" and record["txid"] in committed:
            heap.insert(record["table"], record["rid"], record["values"])
        elif op == "delete" and record["txid"] in committed:
            heap.delete(record["table"], record["rid"])
        else:
            continue
        applied += 1
    return applied


def recover(
    directory: str,
    profile: Optional[str] = None,
    buffer_pages: int = 128,
) -> Tuple["Database", RecoveryReport]:
    """Restart: rebuild a :class:`Database` from a directory.

    Analysis → replay over the durable WAL, starting from the raw page
    image; then the in-memory heap, catalog, spatial and key indexes
    are rebuilt, the recovered database gets the durability manager bound,
    and a checkpoint (no second replay) truncates the log. ``profile``
    overrides the one the WAL header records.
    """
    from repro.engines.database import Database

    total_started = time.perf_counter()
    report = RecoveryReport()
    mgr = DurabilityManager(
        directory, buffer_pages=buffer_pages, profile=profile or "greenwood"
    )
    report.profile = profile or mgr.wal.profile

    mgr.heap.adopt_from_disk()
    records = mgr.wal.records()
    report.wal_records = len(records)

    # schema baseline from the first checkpoint record — the head the
    # last completed rewrite left; the log's DDL layers on top
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
    analyzed = {t["name"] for t in baseline.get("tables", ())
                if t.get("analyzed")}

    # -- analysis: who committed? -------------------------------------------
    started = time.perf_counter()
    committed = _committed(records)
    writers: Set[int] = set()
    max_txid = 0
    for record in records:
        txid = record.get("txid", 0)
        if record.get("op") in _ROW_OPS:
            writers.add(txid)
        max_txid = max(max_txid, txid, int(record.get("next_txid", 1)) - 1)
    report.winners = len(committed)
    report.losers = len(writers - committed)
    report.analysis_seconds = time.perf_counter() - started

    # -- replay: the checkpoint's function, then the schema's DDL ------------
    started = time.perf_counter()
    report.redone = _replay(mgr.heap, records, committed)
    for record in records:
        if record.get("op") != "ddl":
            continue
        ddl, name = record["ddl"], record["name"]
        if ddl == "create_table":
            tables.setdefault(name, record["columns"])
        elif ddl == "drop_table":
            tables.pop(name, None)
            analyzed.discard(name)
            for index in [n for n, e in indexes.items() if e["table"] == name]:
                del indexes[index]
        elif ddl == "create_index":
            indexes[name] = {
                key: value for key, value in record.items()
                if key in ("name", "table", "column", "columns", "kind")
            }
        elif ddl == "drop_index":
            indexes.pop(name, None)
        elif ddl == "analyze":
            analyzed.add(name)
    report.redo_seconds = time.perf_counter() - started

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
            continue  # a page image that outlived its table's schema
        slots[table_name][rid] = tuple(decode_value(v) for v in values)
    for name, rows in slots.items():
        db.catalog.table(name).restore_slots(rows)
        report.tables[name] = len(rows)
    db.txn.set_next_txid(max_txid + 1)
    report.next_txid = max_txid + 1
    for entry in indexes.values():
        if "columns" in entry:  # a key index
            db.execute(
                f"CREATE INDEX {entry['name']} ON {entry['table']} "
                f"({', '.join(entry['columns'])})"
            )
        else:
            db.execute(
                f"CREATE SPATIAL INDEX {entry['name']} ON {entry['table']} "
                f"({entry['column']}) USING {entry['kind']}"
            )
        report.indexes.append(entry["name"])
    for name in analyzed & tables.keys():
        db.catalog.table(name).analyze()
    mgr.bind(db)
    db.durability = mgr
    mgr._write_checkpoint(report.redone, mgr.disk.pages_written)
    report.rebuild_seconds = time.perf_counter() - started
    report.total_seconds = time.perf_counter() - total_started
    db.recovery_report = report
    return db, report
