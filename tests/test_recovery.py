"""Crash recovery: redo-only analysis + replay over the WAL + pages.

The acceptance property: a kill-9-style crash injected mid-workload at
every armed WAL/page fault site recovers with zero committed-transaction
loss and zero uncommitted-row leakage, with the spatial indexes agreeing
with the heap.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.engines import Database
from repro.geometry import Point
from repro.errors import (
    DumpCorruptionError,
    EngineError,
    InjectedFaultError,
    SimulatedCrashError,
    SqlProgrammingError,
)
from repro.faults import FAULTS, injected
from repro.storage.crash import (
    CRASH_SITES,
    kill_at,
    run_crash_workload,
    verify_recovery,
)
from repro.storage.durability import PAGES_FILE, WAL_FILE, recover
from repro.storage.records import encode_value, parse_line
from repro.txn import Session


@pytest.fixture(autouse=True)
def clean_registry():
    FAULTS.disarm_all()
    yield
    FAULTS.disarm_all()


def _durable(tmp_path, rows=20):
    db = Database("greenwood")
    db.execute("CREATE TABLE pts (id INTEGER, g GEOMETRY)")
    db.execute("CREATE SPATIAL INDEX pts_g ON pts (g)")
    db.insert_rows(
        "pts", [(i, f"POINT({i} {i % 7})") for i in range(rows)]
    )
    db.attach_storage(str(tmp_path / "storage"))
    return db


def _count(db, table="pts"):
    return db.execute(f"SELECT COUNT(*) FROM {table}").scalar()


def _index_count(db, table="pts", column="g"):
    return db.execute(
        f"SELECT COUNT(*) FROM {table} WHERE ST_Intersects({column}, "
        "ST_MakeEnvelope(-10000, -10000, 10000, 10000))"
    ).scalar()


class TestCleanReopen:
    def test_close_and_open_preserves_everything(self, tmp_path):
        db = _durable(tmp_path)
        db.execute("INSERT INTO pts VALUES (100, ST_GeomFromText("
                   "'POINT(50 50)'))")
        db.execute("UPDATE pts SET id = 999 WHERE id = 0")
        db.execute("DELETE FROM pts WHERE id = 1")
        db.close()

        again = Database.open(str(tmp_path / "storage"))
        assert _count(again) == 20  # 20 + 1 - 1
        assert _index_count(again) == 20
        ids = {r[0] for r in again.execute("SELECT id FROM pts").rows}
        assert 100 in ids and 999 in ids
        assert 0 not in ids and 1 not in ids
        again.close()

    def test_open_fresh_directory_attaches_empty_storage(self, tmp_path):
        db = Database.open(str(tmp_path / "fresh"))
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.close()
        again = Database.open(str(tmp_path / "fresh"))
        assert _count(again, "t") == 1
        again.close()

    def test_double_attach_rejected(self, tmp_path):
        db = _durable(tmp_path)
        with pytest.raises(SqlProgrammingError):
            db.attach_storage(str(tmp_path / "other"))
        db.close()


def _saved(tmp_path, profile="greenwood", kind="rtree"):
    """A small database with NULL, REAL, TEXT and geometry values and a
    spatial index, saved the one way a database is saved: attach
    storage, delete a row through the WAL, close."""
    db = Database(profile)
    db.execute(
        "CREATE TABLE features (id INTEGER, name TEXT, score REAL, "
        "geom GEOMETRY)"
    )
    db.execute(
        "INSERT INTO features VALUES "
        "(1, 'alpha', 0.5, ST_Point(1, 2)), "
        "(2, NULL, NULL, ST_GeomFromText("
        "'POLYGON((0 0, 4 0, 4 4, 0 4, 0 0))')), "
        "(3, 'gamma', -1.25, NULL), "
        "(4, 'doomed', 9.0, ST_Point(3, 3))"
    )
    db.execute(f"CREATE SPATIAL INDEX fidx ON features (geom) USING {kind}")
    directory = str(tmp_path / "saved")
    db.attach_storage(directory)
    db.execute("DELETE FROM features WHERE id = 4")
    db.close()
    return db, directory


class TestSaveAndReopen:
    """A saved database is its WAL + pages: ``attach_storage`` + ``close``
    saves it, ``Database.open(dir, profile=...)`` loads it into any
    profile with its indexes rebuilt by kind."""

    def test_rows_survive(self, tmp_path):
        _db, directory = _saved(tmp_path)
        again = Database.open(directory)
        got = again.execute("SELECT id, name, score FROM features ORDER BY id")
        assert got.rows == [(1, "alpha", 0.5), (2, None, None),
                            (3, "gamma", -1.25)]
        again.close()

    def test_geometries_survive_exactly(self, tmp_path):
        db, directory = _saved(tmp_path)
        sql = "SELECT ST_AsText(geom) FROM features WHERE id < 3 ORDER BY id"
        original = db.execute(sql).rows
        again = Database.open(directory)
        assert again.execute(sql).rows == original
        again.close()

    @pytest.mark.parametrize("kind", ["rtree", "quadtree", "grid"])
    def test_indexes_rebuilt(self, tmp_path, kind):
        _db, directory = _saved(tmp_path, kind=kind)
        again = Database.open(directory)
        entry = again.catalog.index_for("features", "geom")
        assert entry is not None and entry.index.kind == kind
        got = again.execute(
            "SELECT id FROM features "
            "WHERE ST_Intersects(geom, ST_MakeEnvelope(0.5, 1.5, 1.5, 2.5)) "
            "ORDER BY id"
        )
        assert got.rows == [(1,), (2,)]  # the point and the 4x4 polygon
        again.close()

    @pytest.mark.parametrize("profile", ["greenwood", "bluestem", "ironbark"])
    def test_profile_preserved_and_overridable(self, tmp_path, profile):
        _db, directory = _saved(tmp_path, profile=profile)
        for _ in range(2):  # a reopen's closing checkpoint keeps it too
            again = Database.open(directory)
            assert again.profile.name == profile
            again.close()
        assert f"recovered {profile} database" in (
            again.recovery_report.describe()
        )
        other = "ironbark" if profile != "ironbark" else "greenwood"
        overridden = Database.open(directory, profile=other)
        assert overridden.profile.name == other
        assert _count(overridden, "features") == 3
        overridden.close()
        # the WAL header records the profile of the last checkpoint
        final = Database.open(directory)
        assert final.profile.name == other
        final.close()

    def test_directory_roundtrip(self, tmp_path):
        _db, directory = _saved(tmp_path)
        assert sorted(os.listdir(directory)) == sorted([PAGES_FILE, WAL_FILE])
        again = Database.open(directory)
        assert _count(again, "features") == 3
        again.close()

    def test_deleted_rows_absent(self, tmp_path):
        _db, directory = _saved(tmp_path)
        again = Database.open(directory)
        ids = {r[0] for r in again.execute("SELECT id FROM features").rows}
        assert ids == {1, 2, 3}
        again.close()

    def test_dataset_roundtrip(self, tmp_path, tiny_dataset):
        db = Database("greenwood")
        tiny_dataset.load_into(db)
        directory = str(tmp_path / "saved")
        db.attach_storage(directory)
        db.close()
        again = Database.open(directory)
        for name in tiny_dataset.layers:
            assert _count(again, name) == _count(db, name)
        again.close()

    def test_version_1_wal_refused(self, tmp_path):
        _db, directory = _saved(tmp_path)
        path = os.path.join(directory, WAL_FILE)
        with open(path, "rb") as stream:
            header, rest = stream.readline(), stream.read()
        old = json.loads(header)
        old["version"] = 1
        with open(path, "wb") as stream:
            stream.write(json.dumps(old).encode("utf-8") + b"\n" + rest)
        # a version-1 directory kept its schema beside the log; opening
        # it as an empty database would silently drop every row
        with pytest.raises(EngineError, match="unsupported WAL version 1"):
            Database.open(directory)

    def test_version_2_wal_refused(self, tmp_path):
        _db, directory = _saved(tmp_path)
        path = os.path.join(directory, WAL_FILE)
        with open(path, "rb") as stream:
            header, rest = stream.readline(), stream.read()
        old = json.loads(header)
        old["version"] = 2
        with open(path, "wb") as stream:
            stream.write(json.dumps(old).encode("utf-8") + b"\n" + rest)
        # a version-2 page file may hold stolen uncommitted rows that
        # only that format's undo pass could remove
        with pytest.raises(EngineError, match="unsupported WAL version 2"):
            Database.open(directory)

    def test_version_3_wal_refused(self, tmp_path):
        _db, directory = _saved(tmp_path)
        path = os.path.join(directory, WAL_FILE)
        with open(path, "rb") as stream:
            header, rest = stream.readline(), stream.read()
        old = json.loads(header)
        old["version"] = 3
        with open(path, "wb") as stream:
            stream.write(json.dumps(old).encode("utf-8") + b"\n" + rest)
        # version-3 pages start with a page LSN: read with this engine's
        # header they would look like corrupt or empty pages
        with pytest.raises(EngineError, match="unsupported WAL version 3"):
            Database.open(directory)

    def test_foreign_wal_header_refused(self, tmp_path):
        _db, directory = _saved(tmp_path)
        path = os.path.join(directory, WAL_FILE)
        with open(path, "rb") as stream:
            stream.readline()
            rest = stream.read()
        with open(path, "wb") as stream:
            stream.write(b'{"type": "header", "format": "pg_dump"}\n' + rest)
        with pytest.raises(EngineError, match="not a jackpine WAL"):
            Database.open(directory)

    def test_bitflipped_wal_record_detected_strictly(self, tmp_path):
        db = _durable(tmp_path, rows=3)
        db.execute("INSERT INTO pts VALUES (40, ST_Point(4, 0))")
        db.durability.crash()
        path = tmp_path / "storage" / WAL_FILE
        lines = path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if '"op": "insert"' in line)
        prefix, _, payload = lines[at].partition(" ")
        flipped = payload.replace('"values": [40', '"values": [41', 1)
        assert flipped != payload
        lines[at] = f"{prefix} {flipped}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DumpCorruptionError, match="checksum mismatch"):
            parse_line(lines[at], at + 1)
        # the flipped record and everything after it (its commit) are
        # dropped: neither the original nor the corrupted row is replayed
        again = Database.open(str(tmp_path / "storage"))
        ids = {r[0] for r in again.execute("SELECT id FROM pts").rows}
        assert ids == {0, 1, 2}
        again.close()

    def test_torn_wal_tail_keeps_preceding_commits(self, tmp_path):
        db = _durable(tmp_path, rows=3)
        db.execute("INSERT INTO pts VALUES (40, ST_Point(4, 0))")
        db.durability.crash()
        path = tmp_path / "storage" / WAL_FILE
        with open(path, "ab") as stream:
            stream.write(b'0badf00d {"type": "wal", "op": "ins')
        again = Database.open(str(tmp_path / "storage"))
        ids = {r[0] for r in again.execute("SELECT id FROM pts").rows}
        assert ids == {0, 1, 2, 40}
        again.close()

    def test_ddl_survives_crash_in_next_checkpoint(self, tmp_path):
        # the DDL lands after the last completed checkpoint; the next
        # checkpoint dies writing pages, before its WAL rewrite
        db = _durable(tmp_path)
        db.execute("CREATE TABLE extra (id INTEGER, g GEOMETRY)")
        db.execute("INSERT INTO extra VALUES (1, ST_Point(1, 1))")
        db.execute("CREATE SPATIAL INDEX extra_g ON extra (g) USING grid")
        with kill_at("page.write"):
            with pytest.raises(SimulatedCrashError):
                db.checkpoint()
        recovered, report = recover(str(tmp_path / "storage"))
        assert {t.name for t in recovered.catalog.tables()} == {"pts", "extra"}
        assert {e.name: e.index.kind for e in recovered.catalog.indexes()} == {
            "pts_g": "rtree", "extra_g": "grid",
        }
        assert _count(recovered) == _index_count(recovered) == 20
        assert _count(recovered, "extra") == 1
        assert _index_count(recovered, "extra") == 1
        assert report.tables == {"pts": 20, "extra": 1}
        recovered.close()


class TestCrashAndRecover:
    def test_committed_survive_uncommitted_vanish(self, tmp_path):
        db = _durable(tmp_path)
        db.execute("INSERT INTO pts VALUES (500, ST_GeomFromText("
                   "'POINT(5 5)'))")  # auto-commit: durable
        logged = db.durability.wal.records_total
        db.execute("BEGIN")
        db.execute("INSERT INTO pts VALUES (600, ST_GeomFromText("
                   "'POINT(6 6)'))")
        # redo-only: an open transaction has written nothing durable,
        # so even a sync cannot put a loser in the log
        db.durability.wal.sync()
        assert db.durability.wal.records_total == logged
        db.durability.crash()  # kill -9 with the transaction open
        with pytest.raises(SimulatedCrashError):
            db.execute("COMMIT")

        recovered, report = recover(str(tmp_path / "storage"))
        ids = {r[0] for r in recovered.execute("SELECT id FROM pts").rows}
        assert 500 in ids
        assert 600 not in ids
        assert _count(recovered) == _index_count(recovered) == 21
        assert report.losers == 0 and report.undo_seconds == 0.0
        recovered.close()

    def test_update_and_delete_replay(self, tmp_path):
        db = _durable(tmp_path)
        db.execute("UPDATE pts SET id = 777 WHERE id = 3")
        db.execute("DELETE FROM pts WHERE id = 4")
        db.durability.crash()

        recovered, _report = recover(str(tmp_path / "storage"))
        ids = {r[0] for r in recovered.execute("SELECT id FROM pts").rows}
        assert 777 in ids and 3 not in ids and 4 not in ids
        assert _count(recovered) == 19
        recovered.close()

    def test_rolled_back_transaction_stays_rolled_back(self, tmp_path):
        db = _durable(tmp_path)
        db.execute("BEGIN")
        db.execute("INSERT INTO pts VALUES (800, ST_GeomFromText("
                   "'POINT(8 8)'))")
        db.execute("ROLLBACK")
        db.durability.crash()
        recovered, _report = recover(str(tmp_path / "storage"))
        ids = {r[0] for r in recovered.execute("SELECT id FROM pts").rows}
        assert 800 not in ids
        recovered.close()

    def test_ddl_replayed(self, tmp_path):
        db = _durable(tmp_path)
        db.execute("CREATE TABLE extra (id INTEGER, g GEOMETRY)")
        db.execute("INSERT INTO extra VALUES (1, ST_GeomFromText("
                   "'POINT(1 1)'))")
        db.execute("CREATE SPATIAL INDEX extra_g ON extra (g)")
        db.execute("DROP INDEX pts_g")
        db.durability.crash()

        recovered, report = recover(str(tmp_path / "storage"))
        assert _count(recovered, "extra") == 1
        assert _index_count(recovered, "extra") == 1
        names = {e.name for e in recovered.catalog.indexes()}
        assert "extra_g" in names and "pts_g" not in names
        assert report.tables["extra"] == 1
        recovered.close()

    def test_dropped_table_stays_dropped(self, tmp_path):
        db = _durable(tmp_path)
        db.execute("CREATE TABLE doomed (id INTEGER)")
        db.execute("INSERT INTO doomed VALUES (1)")
        db.execute("DROP TABLE doomed")
        db.durability.crash()
        recovered, _report = recover(str(tmp_path / "storage"))
        names = {t.name for t in recovered.catalog.tables()}
        assert "doomed" not in names
        recovered.close()

    def test_recovery_is_idempotent(self, tmp_path):
        db = _durable(tmp_path)
        db.execute("INSERT INTO pts VALUES (900, ST_GeomFromText("
                   "'POINT(9 9)'))")
        db.durability.crash()
        first, _ = recover(str(tmp_path / "storage"))
        count = _count(first)
        first.durability.crash()  # crash again immediately
        second, _ = recover(str(tmp_path / "storage"))
        assert _count(second) == count
        second.close()


class TestCheckpoint:
    def test_checkpoint_truncates_wal_and_recovery_still_correct(
            self, tmp_path):
        db = _durable(tmp_path)
        for i in range(30):
            db.execute(
                "INSERT INTO pts VALUES (?, ?)",
                (1000 + i, f"POINT({i} {i})"),
            )
        assert db.durability.wal.records_total == 61  # ckpt + 30 x 2
        report = db.checkpoint()
        assert report.records_replayed == 30
        assert report.pages_flushed >= 1
        assert db.durability.wal.records_total == 1  # the new checkpoint
        # post-checkpoint writes land in the (short) WAL
        db.execute("INSERT INTO pts VALUES (2000, ST_GeomFromText("
                   "'POINT(2 2)'))")
        db.durability.crash()

        recovered, rec = recover(str(tmp_path / "storage"))
        ids = {r[0] for r in recovered.execute("SELECT id FROM pts").rows}
        assert 2000 in ids and 1029 in ids
        assert _count(recovered) == 51
        assert rec.checkpoint_lsn > 0
        recovered.close()

    def test_checkpoint_with_open_transaction_keeps_its_records(
            self, tmp_path):
        # the open transaction's records live in its undo log until
        # COMMIT: a checkpoint neither writes its row to the pages nor
        # needs to carry anything of it over
        db = _durable(tmp_path)
        db.execute("BEGIN")
        db.execute("INSERT INTO pts VALUES (3000, ST_GeomFromText("
                   "'POINT(3 3)'))")
        report = db.checkpoint()
        assert report.records_replayed == 0
        assert db.durability.heap.row_count("pts") == 20
        db.execute("COMMIT")  # logged now, after the checkpoint
        db.durability.crash()
        recovered, _rec = recover(str(tmp_path / "storage"))
        ids = {r[0] for r in recovered.execute("SELECT id FROM pts").rows}
        assert 3000 in ids
        assert _count(recovered) == _index_count(recovered) == 21
        recovered.close()


class TestCrashMatrix:
    """The acceptance criterion: kill -9 at every armed durable fault
    site, mid concurrent commit workload, with and without a background
    checkpointer — recovery must lose nothing committed and leak
    nothing uncommitted."""

    @pytest.mark.parametrize("site", CRASH_SITES)
    def test_kill_at_site_recovers_consistently(self, site, tmp_path):
        outcome = run_crash_workload(
            str(tmp_path / "storage"),
            clients=3,
            site=site,
            on_call=40,
            deadline=5.0,
            # page.write is only reachable through write-back: run the
            # checkpointer aggressively so the site actually fires
            checkpoint_interval=0.02,
        )
        assert outcome.fired, f"site {site} never fired"
        # a site that silently stops being reachable (page.write now
        # fires only inside checkpoints) must fail, not be forced
        assert not outcome.forced, f"site {site} had to be forced"
        recovered, report = recover(str(tmp_path / "storage"))
        violations = verify_recovery(outcome, recovered)
        assert not violations, violations
        assert report.total_seconds > 0
        recovered.close()

    def test_kill_without_checkpointer(self, tmp_path):
        outcome = run_crash_workload(
            str(tmp_path / "storage"),
            clients=2,
            site="wal.append",
            on_call=60,
            deadline=5.0,
        )
        assert outcome.fired and not outcome.forced
        recovered, _report = recover(str(tmp_path / "storage"))
        assert not verify_recovery(outcome, recovered)
        recovered.close()

    def test_client_that_dies_of_a_foreign_error_fails_the_run(
        self, tmp_path
    ):
        # commit #1 is the seed insert; the client's first COMMIT raises
        # an error that is not the engine's
        FAULTS.arm("txn.commit", on_call=2, error=RuntimeError)
        with pytest.raises(RuntimeError):
            run_crash_workload(
                str(tmp_path / "storage"),
                clients=1,
                site="wal.fsync",
                on_call=10**9,
                deadline=0.5,
                seed_rows=5,
            )


class TestRecoveryReport:
    def test_report_counts_and_describe(self, tmp_path):
        db = _durable(tmp_path, rows=10)
        db.execute("INSERT INTO pts VALUES (50, ST_GeomFromText("
                   "'POINT(4 4)'))")
        db.durability.crash()
        recovered, report = recover(str(tmp_path / "storage"))
        assert report.tables == {"pts": 11}
        assert report.indexes == ["pts_g"]
        assert report.winners >= 1
        assert report.total_seconds >= (
            report.analysis_seconds + report.redo_seconds
            + report.undo_seconds
        )
        text = report.describe()
        assert "pts" not in text or True  # describe is free-form
        assert "recovered" in text
        assert recovered.recovery_report is report
        recovered.close()

    def test_post_recovery_database_accepts_durable_writes(self, tmp_path):
        db = _durable(tmp_path, rows=5)
        db.durability.crash()
        recovered, _report = recover(str(tmp_path / "storage"))
        recovered.execute("INSERT INTO pts VALUES (60, ST_GeomFromText("
                          "'POINT(6 1)'))")
        recovered.close()
        final = Database.open(str(tmp_path / "storage"))
        assert _count(final) == 6
        final.close()


def test_kill_at_context_manager_disarms(tmp_path):
    db = _durable(tmp_path, rows=2)
    with kill_at("wal.append", on_call=1):
        with pytest.raises(SimulatedCrashError):
            db.execute("INSERT INTO pts VALUES (9, ST_GeomFromText("
                       "'POINT(9 9)'))")
    assert not FAULTS.active
    assert db.durability.crashed


def test_checkpoint_cli_recovers_then_checkpoints(tmp_path, capsys):
    from repro.cli import main

    db = _durable(tmp_path, rows=8)
    db.execute("INSERT INTO pts VALUES (70, ST_GeomFromText("
               "'POINT(7 7)'))")
    db.durability.crash()
    assert main(["checkpoint", str(tmp_path / "storage")]) == 0
    out = capsys.readouterr().out
    assert "recovered" in out
    assert "checkpoint at lsn" in out
    final = Database.open(str(tmp_path / "storage"))
    assert _count(final) == 9
    final.close()


def test_checkpoint_cli_keeps_the_saved_profile(tmp_path, capsys):
    from repro.cli import main

    directory = str(tmp_path / "storage")
    db = Database("bluestem")
    db.attach_storage(directory)
    db.close()
    assert main(["checkpoint", directory]) == 0
    assert "recovered bluestem database" in capsys.readouterr().out
    assert Database.open(directory).profile.name == "bluestem"


class TestRedoOnly:
    """No-steal, redo-only: a transaction touches the WAL once, at
    COMMIT, and the pages only at checkpoint."""

    def test_commits_leave_the_pages_alone_until_checkpoint(self, tmp_path):
        db = Database("greenwood")
        db.execute("CREATE TABLE pts (id INTEGER, g GEOMETRY)")
        db.insert_rows(
            "pts", [(i, f"POINT({i} {i % 7})") for i in range(200)]
        )
        directory = str(tmp_path / "storage")
        db.attach_storage(directory, buffer_pages=4)
        stats = db.durability.stats

        def touched():
            now = stats()
            return now["buffer_hits"] + now["buffer_misses"]

        before, written = touched(), stats()["pages_written"]
        for i in range(50):
            db.execute("UPDATE pts SET id = ? WHERE id = ?", (1000 + i, i))
        assert touched() == before
        assert stats()["pages_written"] == written
        db.checkpoint()
        assert touched() > before
        assert stats()["pages_written"] > written
        db.durability.crash()
        again = Database.open(directory)
        ids = {r[0] for r in again.execute("SELECT id FROM pts").rows}
        assert ids == set(range(1000, 1050)) | set(range(50, 200))
        again.close()

    def test_rollback_and_open_transactions_log_nothing(self, tmp_path):
        db = _durable(tmp_path)
        wal = db.durability.wal
        logged = wal.records_total
        db.execute("BEGIN")
        db.execute("INSERT INTO pts VALUES (5, ST_Point(5, 5))")
        db.execute("ROLLBACK")
        assert wal.records_total == logged
        db.execute("BEGIN")
        db.execute("DELETE FROM pts WHERE id = 3")
        db.durability.crash()
        assert wal.records_total == logged

    def test_delete_records_carry_only_the_row_id(self, tmp_path):
        db = _durable(tmp_path)
        db.execute("DELETE FROM pts WHERE id = 3")
        db.execute("UPDATE pts SET id = 77 WHERE id = 4")
        deletes = [
            r for r in db.durability.wal.records() if r["op"] == "delete"
        ]
        assert len(deletes) == 2
        for record in deletes:
            assert set(record) == {"type", "op", "txid", "table", "rid",
                                   "lsn"}
        db.close()

    def test_row_records_without_commit_are_discarded(self, tmp_path):
        db = _durable(tmp_path)
        wal = db.durability.wal
        wal.append({
            "type": "wal", "op": "insert", "txid": 999, "table": "pts",
            "rid": 500, "values": [4242, encode_value(Point(1, 1))],
        })
        wal.sync()
        db.durability.crash()
        recovered, report = recover(str(tmp_path / "storage"))
        assert report.losers == 1
        ids = {r[0] for r in recovered.execute("SELECT id FROM pts").rows}
        assert 4242 not in ids and len(ids) == 20
        recovered.close()

    def test_drop_and_recreate_under_an_open_transaction(self, tmp_path):
        db = Database("greenwood")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.attach_storage(str(tmp_path / "storage"))
        writer = Session()
        db.execute("BEGIN", session=writer)
        db.execute("INSERT INTO t VALUES (1)", session=writer)
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (2)")
        # the writer's undo log names the dropped table: its COMMIT must
        # not replay row 1 into the new t
        db.execute("COMMIT", session=writer)
        db.durability.crash()
        recovered, _report = recover(str(tmp_path / "storage"))
        assert recovered.execute("SELECT id FROM t").rows == [(2,)]
        recovered.close()

    def test_commit_whose_fsync_failed_stays_rolled_back(self, tmp_path):
        db = _durable(tmp_path)
        with injected("wal.fsync", on_call=1):
            with pytest.raises(InjectedFaultError):
                db.execute("INSERT INTO pts VALUES (600, ST_Point(6, 6))")
        db.execute("INSERT INTO pts VALUES (700, ST_Point(7, 7))")
        db.durability.crash()
        recovered, _report = recover(str(tmp_path / "storage"))
        ids = {r[0] for r in recovered.execute("SELECT id FROM pts").rows}
        assert 600 not in ids and 700 in ids
        recovered.close()

    @pytest.mark.parametrize("finish", ["COMMIT", "ROLLBACK"])
    def test_attach_beside_an_open_transaction(self, tmp_path, finish):
        db = Database("greenwood")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        writer = Session()
        db.execute("BEGIN", session=writer)
        db.execute("INSERT INTO t VALUES (2)", session=writer)
        db.execute("DELETE FROM t WHERE id = 1", session=writer)
        directory = str(tmp_path / "storage")
        db.attach_storage(directory)  # mirrors committed rows only
        db.execute(finish, session=writer)
        db.close()
        again = Database.open(directory)
        want = [(2,)] if finish == "COMMIT" else [(1,)]
        assert again.execute("SELECT id FROM t").rows == want
        again.close()
