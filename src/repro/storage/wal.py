"""The write-ahead log: LSN-stamped redo records, group fsync.

An append-only text file of checksummed JSON-line records
(:mod:`repro.storage.records`), preceded by one unchecksummed header
line naming the format, its version and the engine profile. Record
types:

========== ==========================================================
``insert``  row created: table, rid, values
``delete``  row removed: table, rid
``commit``  transaction durable once this record is fsynced; its row
            records precede it, all appended at COMMIT
``ddl``     schema change (create/drop table/index); always replayed
``checkpoint`` pages hold every effect before this point; the log was
            rewritten to this record, which carries the table and
            index definitions at that point
========== ==========================================================

The log is redo-only: a transaction's records are written only when it
commits, so a rolled-back one leaves no trace, and row records without
a commit record (a crash between the append and the fsync) are ignored.

Durability protocol:

* :meth:`append` buffers a record in memory and assigns its LSN — no
  I/O, so ordinary row logging costs a dict dump and a list append;
* :meth:`sync` drains the buffer to the file and fsyncs it — COMMIT
  calls :meth:`sync_for`, which piggybacks on any in-flight fsync
  (group commit: one fsync can make many committers durable). A sync
  that fails truncates the file back to the durable offset, so a
  commit record whose fsync raised can never become durable later;
* :attr:`durable_lsn` / the durable byte offset advance only after a
  successful fsync. :meth:`freeze` — the kill -9 simulation — truncates
  the file back to the durable offset, so everything an fsync never
  confirmed is lost exactly as it would be on a real crash;
* on open, the tail is scanned with the torn-tail helper and the file
  is truncated after the last valid record. A header of another format
  version is refused: version 1 logs kept their schema in a separate
  snapshot file, version 2 page files may hold uncommitted rows that
  only the undo pass of that format could remove, and version 3 pages
  start with a page LSN that the version 4 page header dropped.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List

from repro.errors import EngineError, SimulatedCrashError
from repro.faults import FAULTS
from repro.obs.waits import IO_WAL_FSYNC, IO_WAL_WRITE, WAITS
from repro.storage.records import encode_line, scan_tail

__all__ = ["WAL_FORMAT", "WriteAheadLog"]

WAL_FORMAT = "jackpine-wal"
WAL_VERSION = 4


class WriteAheadLog:
    """One log file; thread-safe; see the module docstring for protocol."""

    def __init__(self, path: str, profile: str = "greenwood"):
        self.path = path
        self.profile = profile
        self._lock = threading.Lock()  # buffer + LSN counter
        self._io_lock = threading.Lock()  # file writes + fsync ordering
        self._buffer: List[str] = []
        self._buffered_lsns: List[int] = []
        self.frozen = False
        self.records_total = 0
        self.syncs_total = 0
        if os.path.exists(path):
            self._open_existing()
        else:
            self._create()

    # -- open/create -------------------------------------------------------

    def _create(self) -> None:
        header = {
            "type": "header", "format": WAL_FORMAT,
            "version": WAL_VERSION, "profile": self.profile,
        }
        self._file = open(self.path, "a+b")
        self._file.write((json.dumps(header) + "\n").encode("utf-8"))
        self._file.flush()
        os.fsync(self._file.fileno())
        self._next_lsn = 1
        self._written_lsn = 0
        self.durable_lsn = 0
        self._durable_offset = self._file.tell()

    def _open_existing(self) -> None:
        """Validate the header, scan for the last complete record, and
        truncate any torn tail before appending resumes."""
        last_lsn = 0
        with open(self.path, "rb") as stream:
            header_line = stream.readline()
            try:
                header = json.loads(header_line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                raise EngineError(f"{self.path}: not a jackpine WAL")
            if (
                not isinstance(header, dict)
                or header.get("format") != WAL_FORMAT
            ):
                raise EngineError(f"{self.path}: not a jackpine WAL")
            if header.get("version") != WAL_VERSION:
                raise EngineError(
                    f"{self.path}: unsupported WAL version "
                    f"{header.get('version')!r} (this engine reads "
                    f"version {WAL_VERSION})"
                )
            self.profile = header.get("profile", self.profile)
            end = stream.tell()
            for record, _line_no, offset in scan_tail(stream):
                last_lsn = max(last_lsn, record.get("lsn", 0))
                self.records_total += 1
                end = offset
        self._file = open(self.path, "a+b")
        self._file.truncate(end)
        self._file.seek(end)
        self._next_lsn = last_lsn + 1
        self._written_lsn = last_lsn
        self.durable_lsn = last_lsn
        self._durable_offset = end

    # -- append/flush/sync -------------------------------------------------

    def append(self, record: Dict[str, Any]) -> int:
        """Assign the next LSN and buffer the record; no file I/O."""
        if FAULTS.active:
            # before the record is buffered: a fired fault means the
            # operation was never logged at all
            FAULTS.hit("wal.append")
        if self.frozen:
            raise SimulatedCrashError(
                "write-ahead log is frozen (simulated crash)"
            )
        with self._lock:
            lsn = self._next_lsn
            self._next_lsn += 1
            record["lsn"] = lsn
            self._buffer.append(encode_line(record))
            self._buffered_lsns.append(lsn)
            self.records_total += 1
            return lsn

    def _drain(self) -> int:
        """Write all buffered records to the file (no fsync); returns the
        highest LSN now in the OS page cache."""
        with self._lock:
            lines, self._buffer = self._buffer, []
            lsns, self._buffered_lsns = self._buffered_lsns, []
        if lines:
            WAITS.timed(IO_WAL_WRITE, self._file.write, len(lines))(
                "".join(lines).encode("utf-8")
            )
            self._written_lsn = max(self._written_lsn, lsns[-1])
        return self._written_lsn

    def sync(self) -> None:
        """Drain the buffer and fsync the file; advances the durable
        horizon. The ``wal.fsync`` fault fires after the write but
        before the fsync, so a simulated crash there loses exactly the
        records an interrupted fsync would lose — and so does any other
        failure there: the file is truncated back to the durable
        offset."""
        with self._io_lock:
            if self.frozen:
                raise SimulatedCrashError(
                    "write-ahead log is frozen (simulated crash)"
                )
            written = self._drain()
            if written <= self.durable_lsn:
                return
            try:
                self._file.flush()
                if FAULTS.active:
                    FAULTS.hit("wal.fsync")
                WAITS.timed(IO_WAL_FSYNC, os.fsync)(self._file.fileno())
            except BaseException:
                self._truncate_to_durable()
                raise
            self.syncs_total += 1
            self.durable_lsn = written
            self._durable_offset = self._file.tell()

    def sync_for(self, lsn: int) -> None:
        """Group commit: return as soon as ``lsn`` is durable — an fsync
        issued by a concurrent committer counts, one that failed after
        draining ``lsn`` does not."""
        if self.durable_lsn >= lsn:
            return
        self.sync()
        if self.durable_lsn < lsn:
            raise EngineError(f"WAL record {lsn} was lost by a failed fsync")

    def _truncate_to_durable(self) -> None:
        self._file.truncate(self._durable_offset)
        self._file.seek(self._durable_offset)
        self._written_lsn = self.durable_lsn

    # -- crash simulation --------------------------------------------------

    def freeze(self) -> None:
        """Simulate kill -9 at this instant: discard the in-memory buffer
        and truncate the file back to the last fsynced offset. Every
        later append/sync raises :class:`SimulatedCrashError`."""
        with self._lock:
            self.frozen = True
            self._buffer.clear()
            self._buffered_lsns.clear()
        try:
            self._truncate_to_durable()
        except ValueError:  # file already closed
            pass

    # -- recovery / checkpoint ---------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """Every durable record, in LSN order (re-read from the file)."""
        out: List[Dict[str, Any]] = []
        self._file.flush()
        with open(self.path, "rb") as stream:
            stream.readline()  # header
            for record, _line_no, offset in scan_tail(stream):
                if offset > self._durable_offset:
                    break
                out.append(record)
        out.sort(key=lambda r: r.get("lsn", 0))
        return out

    def rewrite(self, keep: List[Dict[str, Any]]) -> None:
        """Checkpoint truncation: atomically replace the log with only
        ``keep`` (the new checkpoint record), preserving the LSN
        counter."""
        with self._io_lock:
            if self.frozen:
                raise SimulatedCrashError(
                    "write-ahead log is frozen (simulated crash)"
                )
            self._drain()
            header = {
                "type": "header", "format": WAL_FORMAT,
                "version": WAL_VERSION, "profile": self.profile,
            }
            tmp_path = f"{self.path}.tmp.{os.getpid()}"
            try:
                with open(tmp_path, "w", encoding="utf-8") as tmp:
                    tmp.write(json.dumps(header) + "\n")
                    for record in keep:
                        tmp.write(encode_line(record))
                    tmp.flush()
                    os.fsync(tmp.fileno())
                self._file.close()
                os.replace(tmp_path, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                self._file = open(self.path, "a+b")
                raise
            self._file = open(self.path, "a+b")
            self._file.seek(0, os.SEEK_END)
            self._durable_offset = self._file.tell()
            self.durable_lsn = self._written_lsn = self._next_lsn - 1
            self.records_total = len(keep)

    # -- introspection -----------------------------------------------------

    @property
    def next_lsn(self) -> int:
        with self._lock:
            return self._next_lsn

    def size_bytes(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def close(self) -> None:
        if not self.frozen:
            try:
                self.sync()
            except Exception:
                pass
        self._file.close()
