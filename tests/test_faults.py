"""Fault injection: deterministic triggers, and the consistency property.

The property at the heart of the robustness work: *one injected fault at
any site, on any engine profile, leaves the database consistent* — the
catalog answers ``COUNT(*)``, and index probes agree with the heap.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import Database
from repro.errors import InjectedFaultError, ReproError, TransientError
from repro.faults import FAULT_POINTS, FAULTS, FaultRegistry, injected

PROFILES = ("greenwood", "bluestem", "ironbark")


@pytest.fixture(autouse=True)
def clean_registry():
    FAULTS.disarm_all()
    yield
    FAULTS.disarm_all()


def _fresh(profile: str, rows: int = 30, directory=None) -> Database:
    """A populated database; with ``directory``, durable storage is
    attached so the WAL/page fault sites are reachable."""
    db = Database(profile)
    db.execute("CREATE TABLE pts (id INTEGER, g GEOMETRY)")
    db.execute("CREATE SPATIAL INDEX idx_pts ON pts (g)")
    db.insert_rows(
        "pts", [(i, f"POINT({i} {i % 7})") for i in range(rows)]
    )
    if directory is not None:
        db.attach_storage(str(directory))
    return db


def _exercise_every_site(db: Database) -> int:
    """A workload that visits every fault point; returns faults caught.

    On a durable database the DML statements visit ``wal.append`` and
    ``wal.fsync`` (every auto-commit write logs and group-fsyncs), and
    the closing checkpoint visits ``page.write``.
    """
    caught = 0
    statements = (
        ("INSERT INTO pts VALUES (?, ?)", (1000, "POINT(3 3)")),
        ("INSERT INTO pts VALUES (?, ?)", (1001, "POINT(4 4)")),
        ("SELECT COUNT(*) FROM pts "
         "WHERE ST_Intersects(g, ST_MakeEnvelope(0, 0, 10, 10))", ()),
        ("SELECT COUNT(*) FROM pts "
         "WHERE ST_Contains(ST_MakeEnvelope(-1, -1, 50, 50), g)", ()),
    )
    for sql, params in statements:
        try:
            db.execute(sql, params)
        except ReproError:
            caught += 1
    # an explicit transaction visits the txn.commit site; a commit fault
    # aborts the whole transaction, leaving nothing behind
    try:
        db.execute("BEGIN")
        db.execute("INSERT INTO pts VALUES (?, ?)", (2000, "POINT(5 5)"))
        db.execute("COMMIT")
    except ReproError:
        db.execute("ROLLBACK")
        caught += 1
    if db.durability.attached:
        # dirty-page write-back: the page.write site fires here
        try:
            db.checkpoint()
        except ReproError:
            caught += 1
    return caught


class TestTriggers:
    def test_on_call_fires_exactly_nth(self):
        db = _fresh("greenwood")
        FAULTS.arm("storage.insert", on_call=2, max_fires=1)
        db.execute("INSERT INTO pts VALUES (?, ?)", (100, "POINT(1 1)"))
        with pytest.raises(InjectedFaultError, match="storage.insert"):
            db.execute("INSERT INTO pts VALUES (?, ?)", (101, "POINT(2 2)"))
        db.execute("INSERT INTO pts VALUES (?, ?)", (102, "POINT(3 3)"))
        assert FAULTS.fire_counts()["storage.insert"] == 1

    def test_probability_stream_is_seed_deterministic(self):
        def pattern(seed: int):
            registry = FaultRegistry()
            registry.arm("storage.insert", probability=0.3, seed=seed)
            fires = []
            for _ in range(64):
                try:
                    registry.hit("storage.insert")
                    fires.append(False)
                except InjectedFaultError:
                    fires.append(True)
            return fires

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)

    def test_max_fires_caps_total_firings(self):
        registry = FaultRegistry()
        registry.arm("index.probe", probability=1.0, max_fires=2)
        fired = 0
        for _ in range(10):
            try:
                registry.hit("index.probe")
            except InjectedFaultError:
                fired += 1
        assert fired == 2

    def test_unknown_site_rejected(self):
        with pytest.raises(KeyError, match="unknown fault point"):
            FAULTS.arm("reactor.core", on_call=1)

    def test_exactly_one_trigger_required(self):
        with pytest.raises(ValueError):
            FAULTS.arm("index.probe")
        with pytest.raises(ValueError):
            FAULTS.arm("index.probe", probability=0.5, on_call=1)

    def test_injected_context_manager_disarms(self):
        with injected("storage.insert", on_call=1):
            assert FAULTS.active
        assert not FAULTS.active

    def test_custom_error_class(self):
        class Boom(TransientError):
            pass

        db = _fresh("greenwood")
        with injected("index.probe", on_call=1, error=Boom):
            with pytest.raises(Boom):
                db.execute(
                    "SELECT COUNT(*) FROM pts "
                    "WHERE ST_Intersects(g, ST_MakeEnvelope(0, 0, 9, 9))"
                )

    def test_disarmed_registry_is_inert(self):
        assert not FAULTS.active
        FAULTS.hit("storage.insert")  # no-op, must not raise

    def test_injected_fault_is_transient(self):
        assert issubclass(InjectedFaultError, TransientError)


class TestConsistencyProperty:
    """One fault at every site, fired once -> consistent catalog."""

    @pytest.mark.parametrize("site", sorted(FAULT_POINTS))
    @pytest.mark.parametrize("profile", PROFILES)
    def test_single_fault_leaves_consistent_state(self, profile, site,
                                                  tmp_path):
        db = _fresh(profile, directory=tmp_path / "storage")
        FAULTS.arm(site, on_call=1, max_fires=1)
        try:
            caught = _exercise_every_site(db)
            fired = FAULTS.fire_counts()[site]
        finally:
            FAULTS.disarm_all()
        assert fired == 1, f"site {site} never fired under {profile}"
        assert caught == 1, "exactly one statement should have failed"
        # the catalog still answers, and the index agrees with the heap
        count = db.execute("SELECT COUNT(*) FROM pts").scalar()
        via_index = db.execute(
            "SELECT COUNT(*) FROM pts "
            "WHERE ST_Intersects(g, ST_MakeEnvelope(-1000, -1000, "
            "1000, 1000))"
        ).scalar()
        assert via_index == count
        # and fresh writes land cleanly after the fault
        db.execute("INSERT INTO pts VALUES (?, ?)", (9999, "POINT(8 8)"))
        assert db.execute("SELECT COUNT(*) FROM pts").scalar() == count + 1

    @given(call=st.integers(min_value=1, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_heap_index_rollback_at_any_insert_position(self, call):
        """index.insert failing on the Nth insert rolls back that heap row."""
        db = Database("greenwood")
        db.execute("CREATE TABLE t (id INTEGER, g GEOMETRY)")
        db.execute("CREATE SPATIAL INDEX tix ON t (g)")
        FAULTS.arm("index.insert", on_call=call, max_fires=1)
        inserted = 0
        try:
            for i in range(20):
                try:
                    db.execute(
                        "INSERT INTO t VALUES (?, ?)",
                        (i, f"POINT({i} {i})"),
                    )
                    inserted += 1
                except InjectedFaultError:
                    pass
        finally:
            FAULTS.disarm_all()
        assert inserted == 19
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 19
        via_index = db.execute(
            "SELECT COUNT(*) FROM t "
            "WHERE ST_Intersects(g, ST_MakeEnvelope(-1, -1, 30, 30))"
        ).scalar()
        assert via_index == 19
