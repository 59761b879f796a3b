"""One write path: every INSERT/UPDATE/DELETE and every ``insert_rows``
batch is a transaction, so what a statement does cannot depend on who
else happens to be connected or on whether storage is attached.

The differential property replays one generated script four ways —
auto-commit on an idle database, auto-commit beside a bystander session
holding an open snapshot, every statement wrapped in ``BEGIN…COMMIT``,
and on attached storage followed by ``close`` + ``Database.open`` — and
requires the same rowcounts, the same final rows, index ≡ heap, an
all-frozen heap once every session has committed, and a watermark that
moved iff the statement wrote something. (A first slice of ROADMAP item
2's lattice: the {embedded, crash-reopened} column for writes.)
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.engines import Database
from repro.errors import InjectedFaultError
from repro.txn import Session

WORLD = "ST_MakeEnvelope(-1000, -1000, 1000, 1000)"

_row = st.tuples(
    st.integers(0, 9), st.integers(0, 9),
    st.builds("POINT({} {})".format, st.integers(0, 20), st.integers(0, 20)),
)
_op = st.one_of(
    st.tuples(st.just("insert"), st.lists(_row, min_size=1, max_size=3)),
    st.tuples(st.just("insert_rows"), st.lists(_row, max_size=4)),
    st.tuples(st.just("update_attr"), st.integers(0, 10)),
    st.tuples(st.just("update_geom"), _row),
    st.tuples(st.just("delete"), st.integers(0, 10)),
)
_script = st.lists(_op, min_size=1, max_size=8)


def _fresh() -> Database:
    db = Database("greenwood")
    db.execute("CREATE TABLE t (id INTEGER, a INTEGER, g GEOMETRY)")
    db.execute("CREATE SPATIAL INDEX t_g ON t (g)")
    db.insert_rows("t", [(i, i, f"POINT({i} {i})") for i in range(5)])
    return db


def _apply(db: Database, op, session: Session) -> int:
    kind, arg = op
    if kind == "insert_rows":  # always its own transaction
        return db.insert_rows("t", arg)
    if kind == "insert":
        values = ", ".join("(?, ?, ?)" for _ in arg)
        sql, params = f"INSERT INTO t VALUES {values}", sum(arg, ())
    elif kind == "update_attr":
        sql, params = "UPDATE t SET a = a + 1 WHERE a >= ?", (arg,)
    elif kind == "update_geom":
        sql, params = (
            "UPDATE t SET g = ST_GeomFromText(?) WHERE id = ?",
            (arg[2], arg[0]),
        )
    else:
        sql, params = "DELETE FROM t WHERE a < ?", (arg,)
    return db.execute(sql, params, session=session).rowcount


def _replay(script, leg: str, directory: str = None):
    """Run ``script`` one of four ways; returns (rowcounts, final rows)."""
    db = _fresh()
    session = Session()
    bystander = Session()
    if leg == "durable":
        db.attach_storage(directory)
    if leg == "bystander":
        db.execute("BEGIN", session=bystander)
        assert db.execute(
            "SELECT COUNT(*) FROM t", session=bystander
        ).scalar() == 5
    rowcounts = []
    for op in script:
        mark = db.write_marks["t"]
        wrap = leg == "explicit" and op[0] != "insert_rows"
        if wrap:
            db.execute("BEGIN", session=session)
        rowcounts.append(_apply(db, op, session))
        if wrap:
            db.execute("COMMIT", session=session)
        moved = db.write_marks["t"] != mark
        assert moved == (rowcounts[-1] > 0), (op, rowcounts[-1])
    if leg == "bystander":
        # its snapshot predates every write above
        assert db.execute(
            "SELECT COUNT(*) FROM t", session=bystander
        ).scalar() == 5
        db.execute("COMMIT", session=bystander)
    if leg == "durable":
        db.close()
        db = Database.open(directory)
    table = db.catalog.table("t")
    assert db.txn.active_count == 0 and db.txn.read_snapshot() is None
    assert table.mvcc_versions == 0 and db.txn.pending_garbage == 0
    rows = sorted(db.execute("SELECT id, a, ST_AsText(g) FROM t").rows)
    assert len(rows) == len(table) == db.execute(
        f"SELECT COUNT(*) FROM t WHERE ST_Intersects(g, {WORLD})"
    ).scalar(), "index contents must equal the heap"
    if leg == "durable":
        db.close()
    return rowcounts, rows


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_script)
def test_in_memory_legs_agree(script):
    idle = _replay(script, "idle")
    assert _replay(script, "bystander") == idle
    assert _replay(script, "explicit") == idle


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_script)
def test_durable_reopened_leg_agrees(script):
    with tempfile.TemporaryDirectory() as directory:
        assert _replay(script, "durable", directory) == _replay(script, "idle")


# -- the two defects the second path hid -------------------------------------


def test_bystander_snapshot_does_not_see_a_concurrent_insert_rows():
    db = _fresh()
    reader = Session()
    db.execute("BEGIN", session=reader)
    count = "SELECT COUNT(*) FROM t"
    assert db.execute(count, session=reader).scalar() == 5
    db.insert_rows("t", [(9, 9, "POINT(9 9)")])
    assert db.execute(count, session=reader).scalar() == 5
    db.execute("COMMIT", session=reader)
    assert db.execute(count, session=reader).scalar() == 6


@pytest.mark.parametrize("bystander", [False, True])
@pytest.mark.parametrize("bulk", [False, True])
def test_fault_on_row_k_leaves_table_and_index_untouched(bulk, bystander):
    db = _fresh()
    other = Session()
    if bystander:
        db.execute("BEGIN", session=other)
    mark = db.write_marks["t"]
    rows = [(20 + i, 20 + i, f"POINT({i} 1)") for i in range(3)]
    with faults.injected("storage.insert", on_call=2):
        with pytest.raises(InjectedFaultError):
            if bulk:
                db.insert_rows("t", rows)
            else:
                db.execute(
                    "INSERT INTO t VALUES (?, ?, ?), (?, ?, ?), (?, ?, ?)",
                    sum(rows, ()),
                )
    if bystander:
        db.execute("COMMIT", session=other)
    table = db.catalog.table("t")
    assert len(table) == len(table.rows) == 5
    assert db.execute(
        f"SELECT COUNT(*) FROM t WHERE ST_Intersects(g, {WORLD})"
    ).scalar() == 5
    assert db.write_marks["t"] == mark
    assert table.mvcc_versions == 0 and db.txn.pending_garbage == 0
