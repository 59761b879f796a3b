"""Slotted heap pages, the disk manager, and the heap's page cache.

The checkpointed image of the in-memory heap (see
``docs/DURABILITY.md``): pages change only when a checkpoint or
recovery replays committed WAL records onto them (or when storage is
attached to a populated database). Rows live in fixed-size slotted
pages inside one page file per database directory; a
:class:`DiskManager` owns the file, and a :class:`HeapStore` maps
``(table, row_id)`` to a page slot, so the write-ahead log can address
rows logically, and keeps a bounded cache of the pages it works on.

Page layout (``PAGE_SIZE`` bytes)::

    +--------------------+------------------------+-----+-------------+
    | header (4 bytes)   | record payloads  --->  | ... | <--- slots  |
    +--------------------+------------------------+-----+-------------+
    header = <u16 slot count> <u16 free-space offset>
    slot   = <u16 payload offset> <u16 payload length>, offset 0 = dead

Payloads are self-describing UTF-8 JSON (``{"t": table, "r": rid,
"v": [values]}`` with geometries as WKB hex), so crash recovery can
rebuild every table by scanning the page file without consulting any
other structure. Every page image holds committed rows only, so a page
may be written back at any time: there is no write ordering to keep
between the pages and the log.

Faults and waits follow the engine-wide hot-path contract: the
``page.write`` fault site and the ``IO:PageRead`` / ``IO:PageWrite``
wait events each cost one attribute read when disarmed/disabled.
"""

from __future__ import annotations

import json
import os
import struct
import threading
from array import array
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import DumpCorruptionError, EngineError
from repro.faults import FAULTS
from repro.obs.waits import IO_PAGE_READ, IO_PAGE_WRITE, WAITS

__all__ = ["PAGE_SIZE", "Page", "DiskManager", "HeapStore"]

#: page size, bytes
PAGE_SIZE = 4096

_HEADER = struct.Struct("<HH")  # slot count, free-space offset
_SLOT = struct.Struct("<HH")  # payload offset, payload length


class Page:
    """One slotted page over a mutable bytearray."""

    __slots__ = ("page_id", "data")

    def __init__(self, page_id: int, data: Optional[bytes] = None):
        self.page_id = page_id
        if data is None:
            self.data = bytearray(PAGE_SIZE)
            self._write_header(0, _HEADER.size)
        else:
            if len(data) != PAGE_SIZE:
                raise EngineError(
                    f"page {page_id}: expected {PAGE_SIZE} bytes, "
                    f"got {len(data)}"
                )
            self.data = bytearray(data)
            count, free_end = self._read_header()
            if count == 0 and free_end == 0:
                # allocated but never written back (e.g. a crash before
                # the first flush): an empty page, not a corrupt one
                self._write_header(0, _HEADER.size)
            elif free_end < _HEADER.size or free_end > PAGE_SIZE:
                raise DumpCorruptionError(
                    f"page {page_id}: corrupt header "
                    f"(free_end={free_end})"
                )

    # -- header ------------------------------------------------------------

    def _read_header(self) -> Tuple[int, int]:
        return _HEADER.unpack_from(self.data, 0)

    def _write_header(self, count: int, free_end: int) -> None:
        _HEADER.pack_into(self.data, 0, count, free_end)

    @property
    def slot_count(self) -> int:
        return self._read_header()[0]

    @property
    def free_space(self) -> int:
        """Bytes available for one more payload *plus* its slot entry."""
        count, free_end = self._read_header()
        return (PAGE_SIZE - count * _SLOT.size) - free_end

    # -- slots -------------------------------------------------------------

    def _slot_at(self, slot: int) -> Tuple[int, int]:
        return _SLOT.unpack_from(
            self.data, PAGE_SIZE - (slot + 1) * _SLOT.size
        )

    def _set_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(
            self.data, PAGE_SIZE - (slot + 1) * _SLOT.size, offset, length
        )

    def insert(self, payload: bytes) -> Optional[int]:
        """Store one payload; returns its slot, or ``None`` if it cannot
        fit (the caller moves on to a fresher page)."""
        count, free_end = self._read_header()
        if len(payload) + _SLOT.size > (
            (PAGE_SIZE - count * _SLOT.size) - free_end
        ):
            return None
        self.data[free_end:free_end + len(payload)] = payload
        self._set_slot(count, free_end, len(payload))
        self._write_header(count + 1, free_end + len(payload))
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
        count, free_end = self._read_header()
        if len(payload) > (PAGE_SIZE - count * _SLOT.size) - free_end:
            return False
        self.data[free_end:free_end + len(payload)] = payload
        self._set_slot(slot, free_end, len(payload))
        self._write_header(count, free_end + len(payload))
        return True

    def records(self) -> Iterator[Tuple[int, bytes]]:
        """Live ``(slot, payload)`` pairs."""
        for slot in range(self.slot_count):
            payload = self.read(slot)
            if payload is not None:
                yield slot, payload


class DiskManager:
    """Page-granular file I/O with read/write counters."""

    def __init__(self, path: str):
        self.path = path
        mode = "r+b" if os.path.exists(path) else "w+b"
        self._file = open(path, mode)
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if size % PAGE_SIZE:
            # a torn final page write: drop the partial page (its rows,
            # if any were committed, are replayed from the WAL)
            size -= size % PAGE_SIZE
            self._file.truncate(size)
        self._page_count = size // PAGE_SIZE
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
            self._file.seek(page_id * PAGE_SIZE)
            self._file.write(bytes(PAGE_SIZE))
            return page_id

    def read_page(self, page_id: int) -> bytes:
        return WAITS.timed(IO_PAGE_READ, self._read, page_id)(page_id)

    def _read(self, page_id: int) -> bytes:
        if not 0 <= page_id < self._page_count:
            raise EngineError(f"page {page_id} out of range")
        with self._lock:
            self._file.seek(page_id * PAGE_SIZE)
            data = self._file.read(PAGE_SIZE)
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
            self._file.seek(page_id * PAGE_SIZE)
            self._file.write(data)
            self.pages_written += 1

    def sync(self) -> None:
        with self._lock:
            self._file.flush()
            os.fsync(self._file.fileno())
            self.syncs += 1

    def close(self) -> None:
        self._file.close()


class HeapStore:
    """Logical row storage over the page file.

    Addresses rows as ``(table, row_id)`` — the same ids the in-memory
    heap and the WAL use — and keeps the page location map. Every
    mutator is *idempotent* (insert replaces, delete of an absent row is
    a no-op), which is what lets checkpoints and recovery replay the
    log without tracking which effects already reached disk.

    Pages are worked on in a cache of at most ``capacity`` pages plus
    the set of those it has modified: a page is read on a miss, and a
    modified one is written back when it leaves the cache (least
    recently used first) or at :meth:`flush`. Pages leave only between
    row operations, never while one is in use, so nothing is pinned.
    """

    def __init__(self, disk: DiskManager, capacity: int = 128):
        if capacity < 1:
            raise EngineError("the page cache needs at least one page")
        self.disk = disk
        self.capacity = capacity
        #: page id -> page, least recently used first
        self._pages: Dict[int, Page] = {}
        self._modified: Set[int] = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: table -> its rows' locations, one machine int per row id,
        #: since the map holds every row of the database
        self._loc: Dict[str, _RowMap] = {}
        self._fill_page: Optional[int] = None
        self._lock = threading.RLock()

    @staticmethod
    def encode_payload(table: str, rid: int, values: list) -> bytes:
        return json.dumps({"t": table, "r": rid, "v": values}).encode("utf-8")

    # -- the page cache ----------------------------------------------------

    def _page(self, page_id: int) -> Page:
        """The page, read from disk on a miss; now the most recent."""
        page = self._pages.pop(page_id, None)
        if page is None:
            self.misses += 1
            page = Page(page_id, self.disk.read_page(page_id))
        else:
            self.hits += 1
        self._pages[page_id] = page
        return page

    def _trim(self) -> None:
        """Evict down to the capacity, writing modified pages back. A
        write that fails leaves its page cached and modified."""
        pages = self._pages
        while len(pages) > self.capacity:
            page_id = next(iter(pages))
            if page_id in self._modified:
                self.disk.write_page(page_id, bytes(pages[page_id].data))
                self._modified.discard(page_id)
            del pages[page_id]
            self.evictions += 1

    def flush(self) -> None:
        """Write every modified cached page back."""
        with self._lock:
            for page_id in sorted(self._modified):
                page = self._pages[page_id]
                self.disk.write_page(page_id, bytes(page.data))
                self._modified.discard(page_id)

    # -- mutators (values arrive JSON-encoded, see records.encode_value) ---

    def insert(self, table: str, rid: int, values: list) -> None:
        payload = self.encode_payload(table, rid, values)
        with self._lock:
            rows = self._loc.get(table)
            if rows is None:
                rows = self._loc[table] = _RowMap()
            location = rows.pop(rid)
            if location >= 0:
                page_id, slot = _page_slot(location)
                page = self._page(page_id)
                self._modified.add(page_id)
                if page.replace(slot, payload):
                    rows.put(rid, location)
                    self._trim()
                    return
                page.delete(slot)  # no room in place: relocate
            slot = None
            if self._fill_page is not None:
                page = self._page(self._fill_page)
                slot = page.insert(payload)
            if slot is None:
                page = Page(self.disk.allocate())
                self._pages[page.page_id] = page
                self._fill_page = page.page_id
                slot = page.insert(payload)
                if slot is None:
                    raise EngineError(
                        f"row {table}:{rid} larger than a page "
                        f"({len(payload)} bytes)"
                    )
            self._modified.add(page.page_id)
            rows.put(rid, _location(page.page_id, slot))
            self._trim()

    def delete(self, table: str, rid: int) -> None:
        with self._lock:
            rows = self._loc.get(table)
            location = rows.pop(rid) if rows is not None else -1
            if location < 0:
                return
            page_id, slot = _page_slot(location)
            self._page(page_id).delete(slot)
            self._modified.add(page_id)
            self._trim()

    def drop_table(self, table: str) -> None:
        with self._lock:
            rows = self._loc.get(table)
            for rid in rows.rids() if rows is not None else ():
                self.delete(table, rid)
            self._loc.pop(table, None)

    # -- readers -----------------------------------------------------------

    def row_count(self, table: Optional[str] = None) -> int:
        with self._lock:
            if table is not None:
                rows = self._loc.get(table)
                return rows.live if rows is not None else 0
            return sum(rows.live for rows in self._loc.values())

    def read(self, table: str, rid: int) -> Optional[list]:
        with self._lock:
            rows = self._loc.get(table)
            location = rows.get(rid) if rows is not None else -1
            if location < 0:
                return None
            page_id, slot = _page_slot(location)
            payload = self._page(page_id).read(slot)
            self._trim()
        return json.loads(payload.decode("utf-8"))["v"]

    def rows(self) -> Iterator[Tuple[str, int, list]]:
        """Every stored ``(table, rid, encoded values)``, via the map."""
        with self._lock:
            keys = [
                (table, rid) for table in sorted(self._loc)
                for rid in self._loc[table].rids()
            ]
        for table, rid in keys:
            values = self.read(table, rid)
            if values is not None:
                yield table, rid, values

    # -- recovery ----------------------------------------------------------

    def adopt_from_disk(self) -> None:
        """Rebuild the location map by scanning every page on disk.

        Duplicate rids (possible only if a crash interrupted a
        relocation) keep the later page's copy.
        """
        with self._lock:
            self._loc.clear()
            for page_id in range(self.disk.page_count):
                for slot, payload in self._page(page_id).records():
                    try:
                        record = json.loads(payload.decode("utf-8"))
                        table, rid, _ = record["t"], record["r"], record["v"]
                    except (ValueError, KeyError, UnicodeDecodeError):
                        continue  # torn slot: the WAL replay re-adds it
                    rows = self._loc.get(table)
                    if rows is None:
                        rows = self._loc[table] = _RowMap()
                    stale = rows.pop(rid)
                    if stale >= 0:
                        stale_page, stale_slot = _page_slot(stale)
                        self._page(stale_page).delete(stale_slot)
                        self._modified.add(stale_page)
                    rows.put(rid, _location(page_id, slot))
                self._trim()


class _RowMap:
    """One table's row locations: an ``array('q')`` indexed by row id
    (the heap's dense positional ids), -1 where no row is stored, and
    the count of stored rows."""

    __slots__ = ("slots", "live")

    def __init__(self) -> None:
        self.slots = array("q")
        self.live = 0

    def get(self, rid: int) -> int:
        slots = self.slots
        return slots[rid] if rid < len(slots) else -1

    def put(self, rid: int, location: int) -> None:
        slots = self.slots
        missing = rid + 1 - len(slots)
        if missing > 0:
            slots.extend(array("q", (-1,)) * missing)
        if slots[rid] < 0:
            self.live += 1
        slots[rid] = location

    def pop(self, rid: int) -> int:
        """The row's location (-1 if absent), now absent."""
        location = self.get(rid)
        if location >= 0:
            self.slots[rid] = -1
            self.live -= 1
        return location

    def rids(self) -> List[int]:
        return [rid for rid, location in enumerate(self.slots)
                if location >= 0]


def _location(page_id: int, slot: int) -> int:
    """A row's place as one int: slot numbers are 16-bit (``_SLOT``)."""
    return page_id << 16 | slot


def _page_slot(location: int) -> Tuple[int, int]:
    return location >> 16, location & 0xFFFF
