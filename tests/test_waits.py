"""Wait-event taxonomy: every member is emitted by its site, the disabled
path records nothing, and the row-lock histogram is fed from the same
measurement as the ``LockManager:RowLock`` totals (single recording
point)."""

from __future__ import annotations

import random
import threading

import pytest

from repro.datagen import generate
from repro.engines import Database
from repro.errors import SerializationError
from repro.guard import ExecutionGuard
from repro.obs.waits import (
    CLIENT_BACKOFF,
    CLIENT_RETRY,
    CPU_INDEX_PROBE,
    CPU_REFINE,
    CPU_SORT,
    GUARD_TICK,
    IO_PAGE_READ,
    IO_PAGE_WRITE,
    IO_WAL_FSYNC,
    IO_WAL_WRITE,
    LATCH_EXCLUSIVE,
    LATCH_SHARED,
    LOCK_ROW,
    WAIT_CLASSES,
    WAIT_EVENTS,
    WAITS,
)
from repro.txn.locks import RowLockTable, SharedExclusiveLock
from repro.workload.driver import ClientReport, WorkloadConfig, _run_operation
from repro.workload.mixes import Operation


@pytest.fixture
def waits():
    WAITS.enable()
    WAITS.reset()
    yield WAITS
    WAITS.disable()
    WAITS.reset()


def _events_recorded(monitor) -> set:
    return set(monitor.summary())


# -- the taxonomy itself ----------------------------------------------------


def test_taxonomy_is_closed_and_classful():
    from repro.obs.waits import NET_RECV, NET_SEND, SERVICE_QUEUE

    expected = {
        LOCK_ROW, LATCH_SHARED, LATCH_EXCLUSIVE, IO_WAL_WRITE,
        IO_WAL_FSYNC, IO_PAGE_READ, IO_PAGE_WRITE, CPU_REFINE,
        CPU_INDEX_PROBE, CPU_SORT,
        CLIENT_RETRY, CLIENT_BACKOFF, GUARD_TICK,
        NET_RECV, NET_SEND, SERVICE_QUEUE,
    }
    assert set(WAIT_EVENTS) == expected
    for event in WAIT_EVENTS:
        assert event.split(":", 1)[0] in WAIT_CLASSES


def test_unknown_event_rejected(waits):
    with pytest.raises(KeyError):
        waits.record("Bogus:Event", 0.001)


# -- disabled path ----------------------------------------------------------


def test_disabled_sites_record_nothing():
    WAITS.disable()
    WAITS.reset()
    locks = RowLockTable()
    locks.acquire(("t", 1), 1, timeout=0.1)
    locks.release_all(1)
    latch = SharedExclusiveLock()
    latch.acquire_shared()
    latch.release_shared()
    guard = ExecutionGuard(timeout=10.0)
    guard.tick()
    WAITS.record(GUARD_TICK, 0.001)
    assert WAITS.summary() == {}


def test_timed_is_the_callable_itself_while_disabled():
    WAITS.disable()
    assert WAITS.timed(CPU_SORT, sorted) is sorted


def test_timed_records_also_when_the_call_raises(waits):
    seen = []

    def fsync(fd):
        seen.append(waits.state().current_wait)
        raise OSError(fd)

    with pytest.raises(OSError):
        waits.timed(IO_WAL_FSYNC, fsync)(3)
    assert waits.timed(CPU_SORT, sorted)([2, 1]) == [1, 2]
    assert seen == [IO_WAL_FSYNC]  # an off-CPU wait is visible to ASH
    assert waits.state().current_wait is None
    summary = waits.summary()
    assert summary[IO_WAL_FSYNC]["count"] == 1
    assert summary[CPU_SORT]["count"] == 1


# -- lock and latch sites ---------------------------------------------------


def test_row_lock_conflict_emits_lock_row_and_hottest(waits):
    locks = RowLockTable()
    key = ("pointlm", 7)
    locks.acquire(key, 1, timeout=0.5)
    blocked = threading.Event()

    def contender():
        blocked.set()
        locks.acquire(key, 2, timeout=2.0)
        locks.release_all(2)

    thread = threading.Thread(target=contender)
    thread.start()
    blocked.wait()
    # hold long enough for the contender to actually block
    import time
    time.sleep(0.05)
    locks.release_all(1)
    thread.join()
    summary = waits.summary()
    assert LOCK_ROW in summary
    hottest = waits.hottest_rows()
    assert hottest and hottest[0]["table"] == "pointlm"
    assert hottest[0]["row_id"] == 7


def test_row_lock_timeout_still_recorded(waits):
    locks = RowLockTable()
    key = ("t", 1)
    locks.acquire(key, 1, timeout=0.1)

    def loser():
        with pytest.raises(SerializationError):
            locks.acquire(key, 2, timeout=0.05)

    thread = threading.Thread(target=loser)
    thread.start()
    thread.join()
    locks.release_all(1)
    summary = waits.summary()
    assert summary[LOCK_ROW]["count"] >= 1
    assert summary[LOCK_ROW]["seconds"] >= 0.04


def test_latch_shared_and_exclusive_waits(waits):
    latch = SharedExclusiveLock()
    latch.acquire_exclusive()
    entered = threading.Event()

    def reader():
        entered.set()
        latch.acquire_shared()
        latch.release_shared()

    thread = threading.Thread(target=reader)
    thread.start()
    entered.wait()
    import time
    time.sleep(0.03)
    latch.release_exclusive()
    thread.join()
    assert LATCH_SHARED in waits.summary()

    latch2 = SharedExclusiveLock()
    latch2.acquire_shared()
    entered2 = threading.Event()

    def writer():
        entered2.set()
        latch2.acquire_exclusive()
        latch2.release_exclusive()

    thread2 = threading.Thread(target=writer)
    thread2.start()
    entered2.wait()
    time.sleep(0.03)
    latch2.release_shared()
    thread2.join()
    assert LATCH_EXCLUSIVE in waits.summary()


def test_histogram_fed_from_wait_records(waits):
    """Single recording point: every blocking ``acquire`` feeds both the
    transaction manager's lock-wait histogram and the
    ``LockManager:RowLock`` totals — the counts cannot drift.
    (Uncontended writes go through ``try_acquire`` and touch neither.)"""
    db = Database("greenwood")
    hist = db.txn.lock_wait_histogram()
    before_hist = hist.count
    locks = db.txn.locks
    for row_id in (1, 2, 3):
        locks.acquire(("t", row_id), 99, timeout=0.1)
    locks.release_all(99)
    grew_hist = hist.count - before_hist
    grew_waits = waits.summary().get(LOCK_ROW, {"count": 0})["count"]
    assert grew_hist == 3
    assert grew_hist == grew_waits


# -- engine CPU and IO sites ------------------------------------------------


@pytest.fixture(scope="module")
def waits_db():
    db = Database("greenwood")
    generate(seed=7, scale=0.1).load_into(db, create_indexes=True)
    return db


def test_cpu_sites_emitted_by_query(waits, waits_db):
    waits_db.execute(
        "SELECT COUNT(*) FROM edges WHERE ST_Intersects(geom, "
        "ST_MakeEnvelope(0, 0, 50000, 50000))"
    )
    waits_db.execute(
        "SELECT COUNT(*) FROM arealm a, areawater w "
        "WHERE ST_Overlaps(a.geom, w.geom)"
    )
    waits_db.execute(
        "SELECT gid FROM pointlm ORDER BY gid LIMIT 5"
    )
    events = _events_recorded(waits)
    assert CPU_REFINE in events
    assert CPU_INDEX_PROBE in events
    assert CPU_SORT in events


def test_guard_tick_emitted(waits):
    guard = ExecutionGuard(timeout=10.0)
    guard.tick()  # the first tick always runs the full check
    assert GUARD_TICK in _events_recorded(waits)


# -- client-side sites ------------------------------------------------------


class _AbortingCursor:
    """Raises SerializationError on the first COMMIT-bound statement."""

    def __init__(self, failures: int = 1):
        self.failures = failures

    def execute(self, sql, params=()):
        if sql != "BEGIN" and self.failures > 0:
            self.failures -= 1
            raise SerializationError("synthetic conflict")

    def fetchall(self):
        return []


class _StubConnection:
    def __init__(self):
        self.rollbacks = 0

    def commit(self):
        pass

    def rollback(self):
        self.rollbacks += 1


def test_client_retry_and_backoff_events(waits):
    op = Operation(
        kind="write", label="stub", statements=(("UPDATE t", ()),)
    )
    config = WorkloadConfig(max_retries=2)
    report = ClientReport(client_id=0)
    connection = _StubConnection()
    _run_operation(
        _AbortingCursor(failures=1), connection, op, report, config,
        random.Random(1),
    )
    events = _events_recorded(waits)
    assert CLIENT_RETRY in events
    assert CLIENT_BACKOFF in events
    assert connection.rollbacks == 1
    assert report.aborts == 1
    assert report.retries == 1
    assert report.commits == 1


def test_client_sites_silent_when_disabled():
    WAITS.disable()
    WAITS.reset()
    op = Operation(
        kind="write", label="stub", statements=(("UPDATE t", ()),)
    )
    report = ClientReport(client_id=0)
    _run_operation(
        _AbortingCursor(failures=1), _StubConnection(), op, report,
        WorkloadConfig(max_retries=2), random.Random(1),
    )
    assert WAITS.summary() == {}
    assert report.commits == 1
