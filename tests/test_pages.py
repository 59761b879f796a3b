"""Slotted pages, the disk manager, and the LRU buffer pool."""

from __future__ import annotations

import os

import pytest

from repro.errors import DumpCorruptionError, EngineError
from repro.obs.waits import IO_PAGE_READ, IO_PAGE_WRITE, WAITS
from repro.storage.pages import (
    PAGE_SIZE,
    BufferManager,
    DiskManager,
    HeapStore,
    Page,
)


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
        page = Page(0, page_size=256)
        inserted = 0
        while page.insert(b"x" * 40) is not None:
            inserted += 1
        assert inserted > 0
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
        page = Page(0, page_size=128)
        slot = page.insert(b"tiny")
        assert page.replace(slot, b"z" * 200) is False
        assert page.read(slot) == b"tiny"

    def test_lsn_setter_is_monotonic(self):
        page = Page(0)
        page.lsn = 10
        page.lsn = 3
        assert page.lsn == 10
        page.lsn = 42
        assert page.lsn == 42

    def test_all_zero_bytes_is_an_empty_page(self):
        # allocated (zero-filled) but never flushed: not corruption
        page = Page(7, bytes(PAGE_SIZE))
        assert page.slot_count == 0
        assert page.insert(b"works") == 0

    def test_corrupt_header_rejected(self):
        data = bytearray(bytes(PAGE_SIZE))
        # plausible-looking header with free_end pointing into the header
        import struct

        struct.pack_into("<QHH", data, 0, 5, 1, 4)
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


def _pool(tmp_path, capacity=3):
    disk = DiskManager(str(tmp_path / "pages.db"))
    return disk, BufferManager(disk, capacity=capacity)


class TestBufferManager:
    def test_hits_misses_and_ratio(self, tmp_path):
        disk, pool = _pool(tmp_path)
        page = pool.new_page()
        pool.unpin(page.page_id, dirty=True)
        pool.fetch(page.page_id)
        pool.unpin(page.page_id)
        assert pool.hits == 1
        assert pool.misses == 0
        assert pool.hit_ratio == 1.0
        disk.close()

    def test_lru_eviction_writes_dirty_pages_back(self, tmp_path):
        disk, pool = _pool(tmp_path, capacity=2)
        first = pool.new_page()
        first.insert(b"persisted-by-eviction")
        pool.unpin(first.page_id, dirty=True)
        for _ in range(2):  # force first out of the 2-frame pool
            page = pool.new_page()
            pool.unpin(page.page_id, dirty=True)
        assert pool.evictions >= 1
        # the evicted dirty frame reached disk and reads back
        refetched = pool.fetch(first.page_id)
        assert refetched.read(0) == b"persisted-by-eviction"
        pool.unpin(first.page_id)
        assert pool.misses >= 1
        disk.close()

    def test_all_pinned_pool_is_an_error(self, tmp_path):
        disk, pool = _pool(tmp_path, capacity=2)
        pool.new_page()
        pool.new_page()  # both stay pinned
        with pytest.raises(EngineError, match="exhausted"):
            pool.new_page()
        disk.close()

    def test_unpin_of_unpinned_frame_rejected(self, tmp_path):
        disk, pool = _pool(tmp_path)
        page = pool.new_page()
        pool.unpin(page.page_id)
        with pytest.raises(EngineError, match="not pinned"):
            pool.unpin(page.page_id)
        disk.close()

    def test_wal_barrier_runs_before_every_dirty_write(self, tmp_path):
        barrier_lsns = []
        disk = DiskManager(str(tmp_path / "pages.db"))
        pool = BufferManager(disk, capacity=4,
                             wal_barrier=barrier_lsns.append)
        page = pool.new_page()
        page.insert(b"row")
        page.lsn = 17
        pool.unpin(page.page_id, dirty=True)
        assert pool.flush_all() == 1
        assert barrier_lsns == [17]
        assert pool.dirty_count == 0
        disk.close()

    def test_page_io_wait_events_recorded(self, tmp_path):
        disk, pool = _pool(tmp_path, capacity=2)
        page = pool.new_page()
        page.insert(b"x")
        pool.unpin(page.page_id, dirty=True)
        WAITS.enable()
        WAITS.reset()
        try:
            pool.flush_all()
            # evict so the next fetch is a real disk read
            for _ in range(2):
                extra = pool.new_page()
                pool.unpin(extra.page_id, dirty=True)
            pool.fetch(page.page_id)
            pool.unpin(page.page_id)
            summary = WAITS.summary()
        finally:
            WAITS.disable()
            WAITS.reset()
        assert IO_PAGE_WRITE in summary
        assert IO_PAGE_READ in summary
        disk.close()


class TestHeapStore:
    def test_roundtrip_update_delete(self, tmp_path):
        disk, pool = _pool(tmp_path, capacity=8)
        heap = HeapStore(pool)
        heap.insert("t", 1, [1, "one"], lsn=1)
        heap.insert("t", 2, [2, "two"], lsn=2)
        assert heap.read("t", 1) == [1, "one"]
        assert heap.row_count("t") == 2
        heap.insert("t", 1, [1, "uno"], lsn=3)
        assert heap.read("t", 1) == [1, "uno"]
        heap.delete("t", 2, lsn=4)
        assert heap.read("t", 2) is None
        assert not heap.has("t", 2)
        assert heap.row_count() == 1
        disk.close()

    def test_insert_is_idempotent_replace(self, tmp_path):
        disk, pool = _pool(tmp_path, capacity=8)
        heap = HeapStore(pool)
        heap.insert("t", 5, ["old"], lsn=1)
        heap.insert("t", 5, ["new"], lsn=2)  # replay of the same rid
        assert heap.read("t", 5) == ["new"]
        assert heap.row_count("t") == 1
        disk.close()

    def test_grown_row_relocates_across_pages(self, tmp_path):
        disk, pool = _pool(tmp_path, capacity=8)
        heap = HeapStore(pool)
        heap.insert("t", 1, ["small"], lsn=1)
        # rewrite larger than a whole page's free space minus the rest
        big = "y" * (PAGE_SIZE // 2)
        for rid in range(2, 8):
            heap.insert("t", rid, [big], lsn=rid)
        assert heap.read("t", 1) == ["small"]
        huge = "z" * (PAGE_SIZE // 2)
        heap.insert("t", 1, [huge], lsn=10)
        assert heap.read("t", 1) == [huge]
        assert heap.row_count("t") == 7
        disk.close()

    def test_drop_table_removes_only_that_table(self, tmp_path):
        disk, pool = _pool(tmp_path, capacity=8)
        heap = HeapStore(pool)
        heap.insert("a", 1, ["a1"], lsn=1)
        heap.insert("b", 1, ["b1"], lsn=2)
        heap.drop_table("a", lsn=3)
        assert heap.row_count("a") == 0
        assert heap.read("b", 1) == ["b1"]
        disk.close()

    def test_adopt_from_disk_rebuilds_location_map(self, tmp_path):
        path = tmp_path / "pages.db"
        disk = DiskManager(str(path))
        pool = BufferManager(disk, capacity=8)
        heap = HeapStore(pool)
        for rid in range(20):
            heap.insert("t", rid, [rid, f"row-{rid}"], lsn=rid + 1)
        heap.delete("t", 3, lsn=30)
        pool.flush_all()
        disk.sync()
        disk.close()

        disk = DiskManager(str(path))
        pool = BufferManager(disk, capacity=8)
        fresh = HeapStore(pool)
        image = fresh.adopt_from_disk()
        assert set(image) == {"t"}
        assert set(image["t"]) == set(range(20)) - {3}
        assert image["t"][7] == [7, "row-7"]
        assert fresh.read("t", 7) == [7, "row-7"]
        disk.close()

    def test_oversized_row_rejected(self, tmp_path):
        disk, pool = _pool(tmp_path, capacity=4)
        heap = HeapStore(pool)
        with pytest.raises(EngineError, match="larger than a page"):
            heap.insert("t", 1, ["x" * (2 * PAGE_SIZE)], lsn=1)
        disk.close()
