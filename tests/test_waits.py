"""Wait-event taxonomy: every member is emitted by its site, the disabled
path records nothing, and the row-lock histogram is fed from the same
measurement as the ``LockManager:RowLock`` totals (single recording
point). A statement's waits are exactly those recorded while it was
open. The attribution decomposition must account for busy time: wait
classes plus on-CPU buckets sum to ``busy_seconds`` (any overlap is
surfaced as ``overcount_seconds``, never silently lost)."""

from __future__ import annotations

import random
import threading

import pytest

from repro.cli import render_sessions
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
    WaitAttribution,
    WaitMonitor,
)
from repro.txn.locks import RowLockTable, SharedExclusiveLock
from repro.workload.driver import (
    ClientReport,
    WorkloadConfig,
    drive_connection,
    operation_steps,
    run_workload,
)
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
    assert seen == [IO_WAL_FSYNC]  # an off-CPU wait is the current one
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


def test_latch_admits_a_waiting_reader_before_the_writer_reenters(waits):
    """A writer that releases the latch and takes it again at once — a
    client committing statement after statement — must not starve a
    reader that was already waiting when it released: the reader goes
    first."""
    latch = SharedExclusiveLock()
    latch.acquire_exclusive()
    order = []

    def reader():
        latch.acquire_shared()
        order.append("reader")
        latch.release_shared()

    thread = threading.Thread(target=reader)
    thread.start()
    while thread.is_alive() and not any(
        session["wait_event"] == LATCH_SHARED
        for session in waits.active_sessions()
    ):
        thread.join(timeout=0.001)
    latch.release_exclusive()
    latch.acquire_exclusive()
    order.append("writer")
    latch.release_exclusive()
    thread.join(timeout=5)
    assert order == ["reader", "writer"]


class _Interrupt(BaseException):
    pass


@pytest.mark.parametrize("admitted", [False, True])
def test_latch_reader_interrupted_while_waiting_leaves_no_count(admitted):
    """A waiting reader interrupted before or after a writer's release
    admitted it takes its count back, so the next writer gets in."""
    latch = SharedExclusiveLock()
    latch.acquire_exclusive()

    def interrupted_wait(timeout=None):
        if admitted:  # the release lands, then the interrupt
            latch._readers += latch._waiting_readers
            latch._waiting_readers = 0
            latch._admissions += 1
        raise _Interrupt

    latch._cond.wait = interrupted_wait
    caught = []

    def reader():
        try:
            latch.acquire_shared()
        except _Interrupt:
            caught.append(True)

    thread = threading.Thread(target=reader)
    thread.start()
    thread.join(timeout=5)
    assert caught == [True]
    del latch._cond.wait
    latch.release_exclusive()
    writer = threading.Thread(target=latch.acquire_exclusive, daemon=True)
    writer.start()
    writer.join(timeout=5)
    assert not writer.is_alive()


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
    def __init__(self, cursor):
        self.rollbacks = 0
        self._cursor = cursor

    def cursor(self):
        return self._cursor

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
    connection = _StubConnection(_AbortingCursor(failures=1))
    drive_connection(
        operation_steps(op, config, report, random.Random(1)), connection
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
    drive_connection(
        operation_steps(op, WorkloadConfig(max_retries=2), report,
                        random.Random(1)),
        _StubConnection(_AbortingCursor(failures=1)),
    )
    assert WAITS.summary() == {}
    assert report.commits == 1


# -- per-statement waits ----------------------------------------------------


def test_wait_between_statements_is_in_neither_trace(waits):
    """A statement's ``trace.waits`` holds what its thread recorded while
    it was open, and nothing the thread recorded before or after it."""
    db = Database("greenwood")
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("INSERT INTO t VALUES (2), (1)")
    traces = []
    db.obs.on_query_end(traces.append)
    db.execute("SELECT a FROM t ORDER BY a")
    waits.record(CLIENT_BACKOFF, 0.01)
    db.execute("SELECT a FROM t ORDER BY a")
    assert len(traces) == 2
    for trace in traces:
        assert trace.waits[CPU_SORT]["count"] == 1
        assert CLIENT_BACKOFF not in trace.waits
    assert waits.summary()[CLIENT_BACKOFF]["count"] == 1


# -- the jackpine top frame -------------------------------------------------


def test_render_sessions_frame():
    monitor = WaitMonitor().enable()
    monitor.begin_statement(
        "SELECT COUNT(*) FROM edges WHERE ST_Intersects(geom, x) AND "
        "more_predicates_to_force_truncation(geom)",
        engine="greenwood", txid=5, session_id=2,
    )
    frame = render_sessions(monitor.active_sessions(), now_label="1.0s")
    monitor.end_statement()
    assert "jackpine top" in frame
    assert "1 active session(s)" in frame
    assert "on CPU" in frame
    assert "..." in frame  # long SQL truncated


def test_render_sessions_empty_explains_why():
    """Zero sessions renders an explicit line, never a bare header —
    and the line says whether the monitor was even on."""
    was_enabled = WAITS.enabled
    try:
        WAITS.disable()
        frame = render_sessions([], now_label="0.0s")
        assert "0 active session(s)" in frame
        assert "no active sessions — wait monitor disabled" in frame
        WAITS.enable()
        frame = render_sessions([], now_label="0.0s")
        assert "no active sessions — no activity" in frame
    finally:
        WAITS.disable()
        if was_enabled:
            WAITS.enable()


# -- attribution arithmetic -------------------------------------------------


def test_attribution_sums_to_busy():
    summary = {
        LOCK_ROW: {"count": 2, "seconds": 0.3},
        "CPU:Refine": {"count": 10, "seconds": 0.2},
        GUARD_TICK: {"count": 5, "seconds": 0.1},
    }
    attribution = WaitAttribution(summary, busy_seconds=1.0)
    assert attribution.off_cpu_seconds == pytest.approx(0.4)
    assert attribution.attributed_cpu_seconds == pytest.approx(0.2)
    assert attribution.other_cpu_seconds == pytest.approx(0.4)
    assert attribution.overcount_seconds == 0.0
    total = (
        attribution.off_cpu_seconds
        + attribution.attributed_cpu_seconds
        + attribution.other_cpu_seconds
    )
    assert total == pytest.approx(attribution.busy_seconds)


def test_attribution_surfaces_overcount():
    summary = {
        LOCK_ROW: {"count": 1, "seconds": 0.9},
        "CPU:Refine": {"count": 1, "seconds": 0.4},
    }
    attribution = WaitAttribution(summary, busy_seconds=1.0)
    assert attribution.other_cpu_seconds == 0.0
    assert attribution.overcount_seconds == pytest.approx(0.3)


def test_attribution_render_mentions_every_event():
    summary = {
        LOCK_ROW: {"count": 1, "seconds": 0.1, "p50": 0.1, "p95": 0.1,
                   "p99": 0.1},
    }
    attribution = WaitAttribution(
        summary, busy_seconds=1.0,
        hottest=[{"table": "t", "row_id": 9, "waits": 1, "seconds": 0.1}],
    )
    text = attribution.render()
    assert LOCK_ROW in text
    assert "on-CPU (other)" in text
    assert "hottest rows" in text
    assert " 9" in text


# -- end to end through the workload driver ---------------------------------


def test_workload_attribution_accounts_for_wall_time():
    """The J-X4 acceptance check: with waits on, the recorded wait
    classes fit inside the busy time (wall x clients) and the
    decomposition reproduces it, with negligible overlap overcount."""
    config = WorkloadConfig(
        clients=4, duration=1.0, scale=0.1, waits=True, lock_timeout=0.1,
        seed=11,
    )
    report = run_workload(config)
    attribution = report.attribution
    assert attribution is not None
    busy = attribution.busy_seconds
    assert busy == pytest.approx(report.wall_seconds * 4)
    total = (
        attribution.off_cpu_seconds
        + attribution.attributed_cpu_seconds
        + attribution.other_cpu_seconds
    )
    # identity up to overcount; the overlap itself must stay under 10%
    assert total == pytest.approx(busy + attribution.overcount_seconds,
                                  rel=1e-6)
    assert attribution.overcount_seconds <= 0.1 * busy
    # the monitor is switched back off afterwards
    assert WAITS.enabled is False
    # telemetry stays additive: the section is present and JSON-able
    import json

    document = report.telemetry_document()
    json.dumps(document)
    assert "waits" in document


def test_workload_without_waits_has_no_sections():
    config = WorkloadConfig(clients=2, duration=0.3, scale=0.1, seed=11)
    report = run_workload(config)
    assert report.attribution is None
    assert "waits" not in report.telemetry_document()
