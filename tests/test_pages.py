"""Slotted pages, the disk manager, and the heap store's page cache."""

from __future__ import annotations

import json

import pytest

from repro.engines import Database
from repro.errors import DumpCorruptionError, EngineError, SimulatedCrashError
from repro.obs.waits import IO_PAGE_READ, IO_PAGE_WRITE, WAITS
from repro.storage.crash import kill_at
from repro.storage.pages import PAGE_SIZE, DiskManager, HeapStore, Page


class TestPage:
    def test_insert_read_roundtrip(self):
        page = Page(0)
        slots = [page.insert(f"payload-{i}".encode()) for i in range(5)]
        assert slots == [0, 1, 2, 3, 4]
        for i, slot in enumerate(slots):
            assert page.read(slot) == f"payload-{i}".encode()
        assert page.slot_count == 5

    def test_delete_marks_dead_and_records_skips(self):
        page = Page(0)
        a = page.insert(b"alpha")
        b = page.insert(b"beta")
        page.delete(a)
        assert page.read(a) is None
        assert page.read(b) == b"beta"
        assert [(s, p) for s, p in page.records()] == [(b, b"beta")]

    def test_insert_returns_none_when_full(self):
        page = Page(0)
        inserted = 0
        while page.insert(b"x" * 40) is not None:
            inserted += 1
        assert inserted == (PAGE_SIZE - 4) // 44  # header 4, slot 4
        assert page.insert(b"x" * 40) is None
        # existing payloads are untouched
        assert page.read(0) == b"x" * 40

    def test_replace_in_place_and_relocated(self):
        page = Page(0)
        slot = page.insert(b"a" * 32)
        assert page.replace(slot, b"b" * 16)  # fits in old extent
        assert page.read(slot) == b"b" * 16
        assert page.replace(slot, b"c" * 64)  # goes to fresh free space
        assert page.read(slot) == b"c" * 64

    def test_replace_reports_no_room(self):
        page = Page(0)
        slot = page.insert(b"tiny")
        page.insert(b"f" * (page.free_space - 8))  # leaves 4 bytes free
        assert page.replace(slot, b"z" * 5) is False
        assert page.read(slot) == b"tiny"

    def test_all_zero_bytes_is_an_empty_page(self):
        # allocated (zero-filled) but never flushed: not corruption
        page = Page(7, bytes(PAGE_SIZE))
        assert page.slot_count == 0
        assert page.insert(b"works") == 0

    def test_corrupt_header_rejected(self):
        data = bytearray(bytes(PAGE_SIZE))
        # plausible-looking header with free_end pointing into the header
        import struct

        struct.pack_into("<HH", data, 0, 1, 2)
        with pytest.raises(DumpCorruptionError, match="corrupt header"):
            Page(0, bytes(data))

    def test_wrong_size_rejected(self):
        with pytest.raises(EngineError, match="expected"):
            Page(0, b"short")


class TestDiskManager:
    def test_allocate_write_read_roundtrip(self, tmp_path):
        disk = DiskManager(str(tmp_path / "pages.db"))
        pid = disk.allocate()
        page = Page(pid)
        page.insert(b"hello")
        disk.write_page(pid, bytes(page.data))
        again = Page(pid, disk.read_page(pid))
        assert again.read(0) == b"hello"
        assert disk.pages_written == 1
        assert disk.pages_read == 1
        disk.close()

    def test_torn_final_page_truncated_on_open(self, tmp_path):
        path = str(tmp_path / "pages.db")
        disk = DiskManager(path)
        pid = disk.allocate()
        page = Page(pid)
        page.insert(b"whole")
        disk.write_page(pid, bytes(page.data))
        disk.close()
        with open(path, "ab") as f:
            f.write(b"torn-half-page")  # crash mid page write
        disk = DiskManager(path)
        assert disk.page_count == 1
        assert Page(pid, disk.read_page(pid)).read(0) == b"whole"
        disk.close()

    def test_out_of_range_read_rejected(self, tmp_path):
        disk = DiskManager(str(tmp_path / "pages.db"))
        with pytest.raises(EngineError, match="out of range"):
            disk.read_page(0)
        disk.close()


def _heap(tmp_path, capacity=3):
    disk = DiskManager(str(tmp_path / "pages.db"))
    return HeapStore(disk, capacity=capacity), disk


def _on_disk(disk, page_id, slot=0):
    """The values a page slot holds in the file, bypassing any cache."""
    payload = Page(page_id, disk.read_page(page_id)).read(slot)
    return json.loads(payload)["v"]


#: a value so large that a page holds one row of it
HALF_PAGE = "x" * (PAGE_SIZE // 2)


class TestPageCache:
    """``HeapStore`` keeps at most ``capacity`` pages between row
    operations; a modified page is written back when it leaves."""

    def test_hits_misses_and_evictions(self, tmp_path):
        heap, disk = _heap(tmp_path, capacity=1)
        heap.insert("t", 1, [HALF_PAGE])  # a fresh page: no hit, no miss
        heap.read("t", 1)
        assert (heap.hits, heap.misses, heap.evictions) == (1, 0, 0)
        heap.insert("t", 2, [HALF_PAGE])  # a second page pushes page 0 out
        assert heap.evictions == 1 and disk.pages_written == 1
        heap.read("t", 1)
        assert (heap.hits, heap.misses, heap.evictions) == (2, 1, 2)
        disk.close()

    def test_modified_page_reads_back_after_eviction(self, tmp_path):
        heap, disk = _heap(tmp_path, capacity=2)
        for rid in range(3):  # three pages through a two-page cache
            heap.insert("t", rid, [rid, HALF_PAGE])
        assert heap.evictions == 1
        assert _on_disk(disk, 0) == [0, HALF_PAGE]
        heap.insert("t", 0, [0, "changed"])  # page 0 read back, modified
        heap.read("t", 1)
        heap.read("t", 2)  # page 0 leaves again, written back
        assert 0 not in heap._pages
        assert _on_disk(disk, 0) == [0, "changed"]
        misses = heap.misses
        assert heap.read("t", 0) == [0, "changed"]
        assert heap.misses == misses + 1
        disk.close()

    def test_page_io_wait_events_recorded(self, tmp_path):
        heap, disk = _heap(tmp_path, capacity=1)
        WAITS.enable()
        WAITS.reset()
        try:
            heap.insert("t", 1, [HALF_PAGE])
            heap.insert("t", 2, [HALF_PAGE])  # evicts page 0: a write
            heap.read("t", 1)  # a real disk read
            summary = WAITS.summary()
        finally:
            WAITS.disable()
            WAITS.reset()
        assert IO_PAGE_WRITE in summary
        assert IO_PAGE_READ in summary
        disk.close()

    def test_buffer_pages_bounds_residency(self, tmp_path, monkeypatch):
        """Through attach (which writes every row), its checkpoint, and
        a reopen: no more than ``buffer_pages`` pages after any heap
        call, nor before any page fetch (recovery's page scan is a
        single call)."""
        peak = [0]

        def watch(method, before):
            def watched(self, *args):
                if before:
                    peak[0] = max(peak[0], len(self._pages))
                result = method(self, *args)
                if not before:
                    peak[0] = max(peak[0], len(self._pages))
                return result
            return watched

        for name in ("_page", "insert", "delete", "drop_table", "read",
                     "flush", "adopt_from_disk"):
            method = getattr(HeapStore, name)
            monkeypatch.setattr(HeapStore, name,
                                watch(method, before=name == "_page"))
        db = Database("greenwood")
        db.execute("CREATE TABLE t (id INTEGER, name TEXT)")
        db.insert_rows("t", [(i, "n" * 200) for i in range(500)])
        directory = str(tmp_path / "storage")
        db.attach_storage(directory, buffer_pages=4)
        stats = db.durability.stats()
        assert stats["pages_on_disk"] >= 20
        assert stats["buffer_evictions"] > 0
        db.close()
        again = Database.open(directory, buffer_pages=4)
        assert again.execute("SELECT COUNT(*) FROM t").scalar() == 500
        again.close()
        assert 0 < peak[0] <= 4

    def test_crash_in_an_eviction_mid_checkpoint_recovers(self, tmp_path):
        db = Database("greenwood")
        db.execute("CREATE TABLE pts (id INTEGER, name TEXT, g GEOMETRY)")
        db.execute("CREATE SPATIAL INDEX pts_g ON pts (g)")
        directory = str(tmp_path / "storage")
        db.attach_storage(directory, buffer_pages=2)
        db.insert_rows("pts", [
            (i, "n" * 300, f"POINT({i} {i % 7})") for i in range(80)
        ])
        heap = db.durability.heap
        with kill_at("page.write"):
            with pytest.raises(SimulatedCrashError):
                db.checkpoint()
        # the write that died was an eviction: the replay had not finished
        assert heap.row_count("pts") < 80
        recovered = Database.open(directory)
        assert recovered.durability.stats()["pages_on_disk"] >= 6
        ids = {r[0] for r in recovered.execute("SELECT id FROM pts").rows}
        assert ids == set(range(80))
        assert recovered.execute(
            "SELECT COUNT(*) FROM pts WHERE ST_Intersects(g, "
            "ST_MakeEnvelope(-1000, -1000, 1000, 1000))"
        ).scalar() == 80
        recovered.close()


class TestHeapStore:
    def test_roundtrip_update_delete(self, tmp_path):
        heap, disk = _heap(tmp_path, capacity=8)
        heap.insert("t", 1, [1, "one"])
        heap.insert("t", 2, [2, "two"])
        assert heap.read("t", 1) == [1, "one"]
        assert heap.row_count("t") == 2
        heap.insert("t", 1, [1, "uno"])
        assert heap.read("t", 1) == [1, "uno"]
        heap.delete("t", 2)
        assert heap.read("t", 2) is None
        assert heap.row_count() == 1
        disk.close()

    def test_insert_is_idempotent_replace(self, tmp_path):
        heap, disk = _heap(tmp_path, capacity=8)
        heap.insert("t", 5, ["old"])
        heap.insert("t", 5, ["new"])  # replay of the same rid
        assert heap.read("t", 5) == ["new"]
        assert heap.row_count("t") == 1
        disk.close()

    def test_grown_row_relocates_across_pages(self, tmp_path):
        heap, disk = _heap(tmp_path, capacity=8)
        heap.insert("t", 1, ["small"])
        # rewrite larger than a whole page's free space minus the rest
        big = "y" * (PAGE_SIZE // 2)
        for rid in range(2, 8):
            heap.insert("t", rid, [big])
        assert heap.read("t", 1) == ["small"]
        huge = "z" * (PAGE_SIZE // 2)
        heap.insert("t", 1, [huge])
        assert heap.read("t", 1) == [huge]
        assert heap.row_count("t") == 7
        disk.close()

    def test_drop_table_removes_only_that_table(self, tmp_path):
        heap, disk = _heap(tmp_path, capacity=8)
        heap.insert("a", 1, ["a1"])
        heap.insert("b", 1, ["b1"])
        heap.drop_table("a")
        assert heap.row_count("a") == 0
        assert heap.read("b", 1) == ["b1"]
        disk.close()

    def test_adopt_from_disk_rebuilds_location_map(self, tmp_path):
        heap, disk = _heap(tmp_path, capacity=8)
        for rid in range(20):
            heap.insert("t", rid, [rid, f"row-{rid}"])
        heap.delete("t", 3)
        heap.flush()
        disk.sync()
        disk.close()

        fresh, disk = _heap(tmp_path, capacity=8)
        fresh.adopt_from_disk()
        assert fresh.row_count() == 19
        assert [rid for _t, rid, _v in fresh.rows()] == (
            [rid for rid in range(20) if rid != 3]
        )
        assert fresh.read("t", 7) == [7, "row-7"]
        disk.close()

    def test_oversized_row_rejected(self, tmp_path):
        heap, disk = _heap(tmp_path, capacity=4)
        with pytest.raises(EngineError, match="larger than a page"):
            heap.insert("t", 1, ["x" * (2 * PAGE_SIZE)])
        disk.close()
