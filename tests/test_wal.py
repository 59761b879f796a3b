"""The write-ahead log: LSNs, group fsync, torn tails, freeze."""

from __future__ import annotations

import os

import pytest

from repro.errors import EngineError, InjectedFaultError, SimulatedCrashError
from repro.faults import injected
from repro.obs.waits import IO_WAL_FSYNC, IO_WAL_WRITE, WAITS
from repro.storage.wal import WriteAheadLog


def _wal(tmp_path, name="wal.log"):
    return WriteAheadLog(str(tmp_path / name))


def test_append_assigns_increasing_lsns_without_io(tmp_path):
    wal = _wal(tmp_path)
    size_after_header = wal.size_bytes()
    lsns = [wal.append({"type": "wal", "op": "insert", "n": i})
            for i in range(5)]
    assert lsns == [1, 2, 3, 4, 5]
    # append buffers in memory: the file has not grown yet
    assert wal.size_bytes() == size_after_header
    assert wal.durable_lsn == 0
    wal.close()


def test_sync_advances_durable_horizon(tmp_path):
    wal = _wal(tmp_path)
    wal.append({"type": "wal", "op": "insert", "n": 1})
    wal.append({"type": "wal", "op": "commit"})
    wal.sync()
    assert wal.durable_lsn == 2
    assert wal.syncs_total == 1
    assert [r["lsn"] for r in wal.records()] == [1, 2]
    wal.close()


def test_group_commit_piggybacks_on_covering_fsync(tmp_path):
    wal = _wal(tmp_path)
    a = wal.append({"type": "wal", "op": "commit", "txid": 1})
    b = wal.append({"type": "wal", "op": "commit", "txid": 2})
    wal.sync_for(b)  # one fsync covers both
    before = wal.syncs_total
    wal.sync_for(a)  # already durable: no second fsync
    assert wal.syncs_total == before
    wal.close()


def test_reopen_resumes_lsn_counter(tmp_path):
    wal = _wal(tmp_path)
    for i in range(3):
        wal.append({"type": "wal", "op": "insert", "n": i})
    wal.close()  # clean close syncs
    wal = _wal(tmp_path)
    assert wal.durable_lsn == 3
    assert wal.append({"type": "wal", "op": "insert", "n": 99}) == 4
    wal.sync()
    assert [r["lsn"] for r in wal.records()] == [1, 2, 3, 4]
    wal.close()


def test_torn_tail_truncated_on_open(tmp_path):
    wal = _wal(tmp_path)
    wal.append({"type": "wal", "op": "insert", "n": 1})
    wal.sync()
    wal.close()
    path = str(tmp_path / "wal.log")
    with open(path, "ab") as f:
        f.write(b'00abcdef {"type": "wal", "op": "ins')  # torn mid-record
    wal = WriteAheadLog(path)
    assert wal.durable_lsn == 1
    assert len(wal.records()) == 1
    # the torn bytes are gone: appending resumes on a clean boundary
    wal.append({"type": "wal", "op": "insert", "n": 2})
    wal.sync()
    assert [r["lsn"] for r in wal.records()] == [1, 2]
    wal.close()


def test_corrupt_record_checksum_stops_the_scan(tmp_path):
    wal = _wal(tmp_path)
    wal.append({"type": "wal", "op": "insert", "n": 1})
    wal.sync()
    wal.close()
    path = str(tmp_path / "wal.log")
    with open(path, "ab") as f:
        f.write(b'deadbeef {"type": "wal", "op": "insert", "n": 2}\n')
    wal = WriteAheadLog(path)
    assert len(wal.records()) == 1  # bad-CRC line and beyond dropped
    wal.close()


def test_not_a_wal_rejected(tmp_path):
    path = tmp_path / "wal.log"
    path.write_text("just some text\n")
    with pytest.raises(EngineError, match="not a jackpine WAL"):
        WriteAheadLog(str(path))


def test_freeze_loses_exactly_the_unsynced_suffix(tmp_path):
    wal = _wal(tmp_path)
    wal.append({"type": "wal", "op": "insert", "n": 1})
    wal.sync()
    wal.append({"type": "wal", "op": "insert", "n": 2})  # never synced
    wal.freeze()
    with pytest.raises(SimulatedCrashError):
        wal.append({"type": "wal", "op": "insert", "n": 3})
    with pytest.raises(SimulatedCrashError):
        wal.sync()
    # reopen sees only the fsynced prefix — the kill -9 contract
    recovered = WriteAheadLog(str(tmp_path / "wal.log"))
    assert [r["n"] for r in recovered.records()] == [1]
    recovered.close()


def test_failed_fsync_discards_what_it_drained(tmp_path):
    wal = _wal(tmp_path)
    wal.append({"type": "wal", "op": "insert", "n": 1})
    wal.sync()
    lsn = wal.append({"type": "wal", "op": "commit", "n": 2})
    with injected("wal.fsync", on_call=1):
        with pytest.raises(InjectedFaultError):
            wal.sync_for(lsn)
    assert wal.durable_lsn == 1
    with pytest.raises(EngineError, match="lost by a failed fsync"):
        wal.sync_for(lsn)
    # a commit record whose fsync raised must not ride the next fsync
    wal.append({"type": "wal", "op": "insert", "n": 3})
    wal.sync()
    assert [r["n"] for r in wal.records()] == [1, 3]
    wal.close()


def test_rewrite_truncates_but_preserves_lsn_counter(tmp_path):
    wal = _wal(tmp_path)
    for i in range(10):
        wal.append({"type": "wal", "op": "insert", "n": i})
    wal.sync()
    keep = [r for r in wal.records() if r["n"] >= 8]
    next_before = wal.next_lsn
    wal.rewrite(keep)
    assert wal.next_lsn == next_before
    assert [r["n"] for r in wal.records()] == [8, 9]
    # new appends continue past every pre-rewrite LSN
    assert wal.append({"type": "wal", "op": "insert", "n": 10}) == next_before
    wal.close()


def test_wal_wait_events_recorded(tmp_path):
    wal = _wal(tmp_path)
    WAITS.enable()
    WAITS.reset()
    try:
        wal.append({"type": "wal", "op": "insert", "n": 1})
        wal.sync()
        summary = WAITS.summary()
    finally:
        WAITS.disable()
        WAITS.reset()
    assert IO_WAL_WRITE in summary
    assert IO_WAL_FSYNC in summary
    wal.close()


def test_records_survive_value_roundtrip(tmp_path):
    wal = _wal(tmp_path)
    record = {"type": "wal", "op": "insert", "txid": 4, "table": "t",
              "rid": 3, "values": [1, "text", None, 2.5]}
    wal.append(dict(record))
    wal.sync()
    stored = wal.records()[0]
    for key, value in record.items():
        assert stored[key] == value
    wal.close()
