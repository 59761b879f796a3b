"""Slotted heap pages, the disk manager, and the LRU buffer pool.

The checkpointed image of the in-memory heap (see
``docs/DURABILITY.md``): pages change only when a checkpoint or
recovery replays committed WAL records onto them (or when storage is
attached to a populated database). Rows live in fixed-size slotted
pages inside one page file per database
directory; a :class:`DiskManager` owns the file, a :class:`BufferManager`
caches frames with LRU eviction / pin counts / dirty tracking, and a
:class:`HeapStore` maps ``(table, row_id)`` to a page slot so the
write-ahead log can address rows logically.

Page layout (``PAGE_SIZE`` bytes)::

    +--------------------+------------------------+-----+-------------+
    | header (12 bytes)  | record payloads  --->  | ... | <--- slots  |
    +--------------------+------------------------+-----+-------------+
    header = <u64 page LSN> <u16 slot count> <u16 free-space offset>
    slot   = <u16 payload offset> <u16 payload length>, offset 0 = dead

Payloads are self-describing UTF-8 JSON (``{"t": table, "r": rid,
"v": [values]}`` with geometries as WKB hex), so crash recovery can
rebuild every table by scanning the page file without consulting any
other structure. The page LSN enforces the WAL-before-data rule: the
buffer pool refuses to write a dirty page until the log is durable up to
that LSN (the ``wal_barrier`` callback).

Faults and waits follow the engine-wide hot-path contract: the
``page.write`` fault site and the ``IO:PageRead`` / ``IO:PageWrite``
wait events each cost one attribute read when disarmed/disabled.
"""

from __future__ import annotations

import json
import os
import struct
import threading
from collections import OrderedDict
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.errors import DumpCorruptionError, EngineError
from repro.faults import FAULTS
from repro.obs.waits import IO_PAGE_READ, IO_PAGE_WRITE, WAITS

__all__ = ["PAGE_SIZE", "Page", "DiskManager", "BufferManager", "HeapStore"]

#: default page size, bytes
PAGE_SIZE = 4096

_HEADER = struct.Struct("<QHH")  # page LSN, slot count, free-space offset
_SLOT = struct.Struct("<HH")  # payload offset, payload length


class Page:
    """One slotted page over a mutable bytearray."""

    __slots__ = ("page_id", "data", "page_size")

    def __init__(self, page_id: int, data: Optional[bytes] = None,
                 page_size: int = PAGE_SIZE):
        self.page_id = page_id
        self.page_size = page_size
        if data is None:
            self.data = bytearray(page_size)
            self._write_header(0, 0, _HEADER.size)
        else:
            if len(data) != page_size:
                raise EngineError(
                    f"page {page_id}: expected {page_size} bytes, "
                    f"got {len(data)}"
                )
            self.data = bytearray(data)
            lsn, count, free_end = self._read_header()
            if lsn == 0 and count == 0 and free_end == 0:
                # allocated but never written back (e.g. a crash before
                # the first flush): an empty page, not a corrupt one
                self._write_header(0, 0, _HEADER.size)
            elif free_end < _HEADER.size or free_end > page_size:
                raise DumpCorruptionError(
                    f"page {page_id}: corrupt header "
                    f"(free_end={free_end})"
                )

    # -- header ------------------------------------------------------------

    def _read_header(self) -> Tuple[int, int, int]:
        return _HEADER.unpack_from(self.data, 0)

    def _write_header(self, lsn: int, count: int, free_end: int) -> None:
        _HEADER.pack_into(self.data, 0, lsn, count, free_end)

    @property
    def lsn(self) -> int:
        return self._read_header()[0]

    @lsn.setter
    def lsn(self, value: int) -> None:
        _lsn, count, free_end = self._read_header()
        self._write_header(max(_lsn, value), count, free_end)

    @property
    def slot_count(self) -> int:
        return self._read_header()[1]

    @property
    def free_space(self) -> int:
        """Bytes available for one more payload *plus* its slot entry."""
        _lsn, count, free_end = self._read_header()
        return (self.page_size - count * _SLOT.size) - free_end

    # -- slots -------------------------------------------------------------

    def _slot_at(self, slot: int) -> Tuple[int, int]:
        return _SLOT.unpack_from(
            self.data, self.page_size - (slot + 1) * _SLOT.size
        )

    def _set_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(
            self.data, self.page_size - (slot + 1) * _SLOT.size,
            offset, length,
        )

    def insert(self, payload: bytes) -> Optional[int]:
        """Store one payload; returns its slot, or ``None`` if it cannot
        fit (the caller moves on to a fresher page)."""
        lsn, count, free_end = self._read_header()
        if len(payload) + _SLOT.size > (
            (self.page_size - count * _SLOT.size) - free_end
        ):
            return None
        self.data[free_end:free_end + len(payload)] = payload
        self._set_slot(count, free_end, len(payload))
        self._write_header(lsn, count + 1, free_end + len(payload))
        return count

    def delete(self, slot: int) -> None:
        """Mark a slot dead (space is not compacted)."""
        self._set_slot(slot, 0, 0)

    def read(self, slot: int) -> Optional[bytes]:
        offset, length = self._slot_at(slot)
        if offset == 0:
            return None
        return bytes(self.data[offset:offset + length])

    def replace(self, slot: int, payload: bytes) -> bool:
        """Rewrite a slot's payload in place when it fits in the old
        extent, else into fresh free space; returns False when neither
        fits (the caller relocates the record to another page)."""
        offset, length = self._slot_at(slot)
        if offset and len(payload) <= length:
            self.data[offset:offset + len(payload)] = payload
            self._set_slot(slot, offset, len(payload))
            return True
        lsn, count, free_end = self._read_header()
        if len(payload) > (self.page_size - count * _SLOT.size) - free_end:
            return False
        self.data[free_end:free_end + len(payload)] = payload
        self._set_slot(slot, free_end, len(payload))
        self._write_header(lsn, count, free_end + len(payload))
        return True

    def records(self) -> Iterator[Tuple[int, bytes]]:
        """Live ``(slot, payload)`` pairs."""
        for slot in range(self.slot_count):
            payload = self.read(slot)
            if payload is not None:
                yield slot, payload


class DiskManager:
    """Page-granular file I/O with read/write counters."""

    def __init__(self, path: str, page_size: int = PAGE_SIZE):
        self.path = path
        self.page_size = page_size
        mode = "r+b" if os.path.exists(path) else "w+b"
        self._file = open(path, mode)
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if size % page_size:
            # a torn final page write: drop the partial page (its rows,
            # if any were committed, are replayed from the WAL)
            size -= size % page_size
            self._file.truncate(size)
        self._page_count = size // page_size
        self._lock = threading.Lock()
        self.pages_read = 0
        self.pages_written = 0
        self.syncs = 0

    @property
    def page_count(self) -> int:
        return self._page_count

    def allocate(self) -> int:
        """Extend the file by one zeroed page; returns its id."""
        with self._lock:
            page_id = self._page_count
            self._page_count += 1
            self._file.seek(page_id * self.page_size)
            self._file.write(bytes(self.page_size))
            return page_id

    def read_page(self, page_id: int) -> bytes:
        return WAITS.timed(IO_PAGE_READ, self._read, page_id)(page_id)

    def _read(self, page_id: int) -> bytes:
        if not 0 <= page_id < self._page_count:
            raise EngineError(f"page {page_id} out of range")
        with self._lock:
            self._file.seek(page_id * self.page_size)
            data = self._file.read(self.page_size)
            self.pages_read += 1
        return data

    def write_page(self, page_id: int, data: bytes) -> None:
        if FAULTS.active:
            # fires before any byte reaches the file: a fired fault
            # leaves the on-disk page exactly as it was
            FAULTS.hit("page.write")
        WAITS.timed(IO_PAGE_WRITE, self._write, page_id)(page_id, data)

    def _write(self, page_id: int, data: bytes) -> None:
        with self._lock:
            self._file.seek(page_id * self.page_size)
            self._file.write(data)
            self.pages_written += 1

    def sync(self) -> None:
        with self._lock:
            self._file.flush()
            os.fsync(self._file.fileno())
            self.syncs += 1

    def close(self) -> None:
        self._file.close()


class _Frame:
    __slots__ = ("page", "dirty", "pins")

    def __init__(self, page: Page):
        self.page = page
        self.dirty = False
        self.pins = 0


class BufferManager:
    """A fixed-capacity LRU pool of page frames.

    ``wal_barrier(lsn)`` is invoked before any dirty page is written —
    the WAL-before-data rule: the log must be durable up to the page's
    LSN before the page may reach disk. Pages only receive records
    replayed from the durable log, so the barrier never has to wait; it
    keeps the rule checked where pages are written.
    """

    def __init__(self, disk: DiskManager, capacity: int = 128,
                 wal_barrier: Optional[Callable[[int], None]] = None):
        if capacity < 1:
            raise EngineError("buffer pool needs at least one frame")
        self.disk = disk
        self.capacity = capacity
        self._wal_barrier = wal_barrier
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- fetch/pin ---------------------------------------------------------

    def fetch(self, page_id: int) -> Page:
        """Pin a page into the pool (reading it if absent)."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is not None:
                self.hits += 1
                self._frames.move_to_end(page_id)
                frame.pins += 1
                return frame.page
            self.misses += 1
            self._make_room()
            page = Page(page_id, self.disk.read_page(page_id),
                        self.disk.page_size)
            frame = _Frame(page)
            frame.pins = 1
            self._frames[page_id] = frame
            return page

    def new_page(self) -> Page:
        """Allocate a fresh page, pinned and dirty."""
        with self._lock:
            self._make_room()
            page = Page(self.disk.allocate(), page_size=self.disk.page_size)
            frame = _Frame(page)
            frame.pins = 1
            frame.dirty = True
            self._frames[page.page_id] = frame
            return page

    def unpin(self, page_id: int, dirty: bool = False) -> None:
        with self._lock:
            frame = self._frames[page_id]
            if frame.pins <= 0:
                raise EngineError(f"page {page_id} is not pinned")
            frame.pins -= 1
            if dirty:
                frame.dirty = True

    # -- write-back --------------------------------------------------------

    def _write_frame(self, frame: _Frame) -> None:
        if self._wal_barrier is not None:
            self._wal_barrier(frame.page.lsn)
        self.disk.write_page(frame.page.page_id, bytes(frame.page.data))
        frame.dirty = False

    def _make_room(self) -> None:
        """Evict the least-recently-used unpinned frame if at capacity."""
        if len(self._frames) < self.capacity:
            return
        for page_id, frame in self._frames.items():
            if frame.pins == 0:
                if frame.dirty:
                    self._write_frame(frame)
                del self._frames[page_id]
                self.evictions += 1
                return
        raise EngineError(
            f"buffer pool exhausted: all {self.capacity} frames pinned"
        )

    def flush_all(self) -> int:
        """Write every dirty frame; returns how many were written."""
        with self._lock:
            written = 0
            for frame in self._frames.values():
                if frame.dirty:
                    self._write_frame(frame)
                    written += 1
            return written

    @property
    def dirty_count(self) -> int:
        with self._lock:
            return sum(1 for f in self._frames.values() if f.dirty)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 1.0


class HeapStore:
    """Logical row storage over the buffer pool.

    Addresses rows as ``(table, row_id)`` — the same ids the in-memory
    heap and the WAL use — and keeps the page location map. Every
    mutator is *idempotent* (insert replaces, delete of an absent row is
    a no-op), which is what lets checkpoints and recovery replay the
    log without tracking which effects already reached disk.
    """

    def __init__(self, buffer: BufferManager):
        self.buffer = buffer
        #: table -> {rid: page_id << 16 | slot}; one int per row, since
        #: the map holds every row of the database
        self._loc: Dict[str, Dict[int, int]] = {}
        self._fill_page: Optional[int] = None
        self._lock = threading.RLock()

    @staticmethod
    def encode_payload(table: str, rid: int, values: list) -> bytes:
        return json.dumps({"t": table, "r": rid, "v": values}).encode("utf-8")

    # -- mutators (values arrive JSON-encoded, see records.encode_value) ---

    def insert(self, table: str, rid: int, values: list, lsn: int) -> None:
        with self._lock:
            rows = self._loc.setdefault(table, {})
            payload = self.encode_payload(table, rid, values)
            if rid in rows:
                self._replace(table, rid, payload, lsn)
                return
            page = None
            if self._fill_page is not None:
                page = self.buffer.fetch(self._fill_page)
                slot = page.insert(payload)
                if slot is None:
                    self.buffer.unpin(page.page_id)
                    page = None
            if page is None:
                page = self.buffer.new_page()
                self._fill_page = page.page_id
                slot = page.insert(payload)
                if slot is None:
                    self.buffer.unpin(page.page_id)
                    raise EngineError(
                        f"row {table}:{rid} larger than a page "
                        f"({len(payload)} bytes)"
                    )
            page.lsn = lsn
            self.buffer.unpin(page.page_id, dirty=True)
            rows[rid] = _location(page.page_id, slot)

    def _replace(self, table: str, rid: int, payload: bytes,
                 lsn: int) -> None:
        page_id, slot = _page_slot(self._loc[table][rid])
        page = self.buffer.fetch(page_id)
        try:
            if page.replace(slot, payload):
                page.lsn = lsn
                return
            # no room in place: relocate to a fresh page
            page.delete(slot)
            page.lsn = lsn
        finally:
            self.buffer.unpin(page_id, dirty=True)
        del self._loc[table][rid]
        self.insert(table, rid, json.loads(payload)["v"], lsn)

    def delete(self, table: str, rid: int, lsn: int) -> None:
        with self._lock:
            location = self._loc.get(table, {}).pop(rid, None)
            if location is None:
                return
            page_id, slot = _page_slot(location)
            page = self.buffer.fetch(page_id)
            page.delete(slot)
            page.lsn = lsn
            self.buffer.unpin(page_id, dirty=True)

    def drop_table(self, table: str, lsn: int) -> None:
        with self._lock:
            for rid in sorted(self._loc.get(table, ())):
                self.delete(table, rid, lsn)
            self._loc.pop(table, None)

    # -- readers -----------------------------------------------------------

    def has(self, table: str, rid: int) -> bool:
        with self._lock:
            return rid in self._loc.get(table, ())

    def row_count(self, table: Optional[str] = None) -> int:
        with self._lock:
            if table is not None:
                return len(self._loc.get(table, ()))
            return sum(len(rows) for rows in self._loc.values())

    def read(self, table: str, rid: int) -> Optional[list]:
        with self._lock:
            location = self._loc.get(table, {}).get(rid)
            if location is None:
                return None
            page_id, slot = _page_slot(location)
            page = self.buffer.fetch(page_id)
            try:
                payload = page.read(slot)
            finally:
                self.buffer.unpin(page_id)
            return json.loads(payload.decode("utf-8"))["v"]

    def rows(self) -> Iterator[Tuple[str, int, list]]:
        """Every stored ``(table, rid, encoded values)``, via the map."""
        with self._lock:
            keys = sorted(
                (table, rid) for table, rows in self._loc.items()
                for rid in rows
            )
        for table, rid in keys:
            values = self.read(table, rid)
            if values is not None:
                yield table, rid, values

    # -- recovery ----------------------------------------------------------

    def adopt_from_disk(self) -> Dict[str, Dict[int, list]]:
        """Rebuild the location map by scanning every page on disk.

        Returns ``{table: {rid: encoded values}}`` — the raw page image
        recovery starts from before replaying the WAL. Duplicate rids
        (possible only if a crash interrupted a relocation) keep the
        later page's copy.
        """
        with self._lock:
            self._loc.clear()
            image: Dict[str, Dict[int, list]] = {}
            for page_id in range(self.buffer.disk.page_count):
                page = self.buffer.fetch(page_id)
                try:
                    for slot, payload in page.records():
                        try:
                            record = json.loads(payload.decode("utf-8"))
                            table, rid = record["t"], record["r"]
                            values = record["v"]
                        except (ValueError, KeyError, UnicodeDecodeError):
                            continue  # torn slot: the WAL replay re-adds it
                        rows = self._loc.setdefault(table, {})
                        stale = rows.get(rid)
                        if stale is not None:
                            stale_page, stale_slot = _page_slot(stale)
                            old = self.buffer.fetch(stale_page)
                            old.delete(stale_slot)
                            self.buffer.unpin(stale_page, dirty=True)
                        rows[rid] = _location(page_id, slot)
                        image.setdefault(table, {})[rid] = values
                finally:
                    self.buffer.unpin(page_id)
            return image


def _location(page_id: int, slot: int) -> int:
    """A row's place as one int: slot numbers are 16-bit (``_SLOT``)."""
    return page_id << 16 | slot


def _page_slot(location: int) -> Tuple[int, int]:
    return location >> 16, location & 0xFFFF
