"""The load path: one heap run append for loads, INSERT, UPDATE and
recovery.

``Table.insert_rows`` checks a run column by column and keeps the
caller's tuples when every column already holds its storage type; the
R-tree's STR packing and ``ANALYZE`` compute on the envelopes' floats.
These tests pin that the loaded state is the one the row-at-a-time path
built, that the load does no per-value work, that a failing run leaves
nothing behind, and that the planner's statistics survive a crash.
"""

from __future__ import annotations

import hashlib
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.micro.topology import topology_queries
from repro.datagen import generate
from repro.engines import Database
from repro.errors import EngineError, InjectedFaultError, ReproError
from repro.faults import FAULTS, injected
from repro.geometry import Envelope, Geometry, Point
from repro.storage import Column, ColumnType
from repro.storage import table as table_module


@pytest.fixture(autouse=True)
def clean_registry():
    FAULTS.disarm_all()
    yield
    FAULTS.disarm_all()


# ---------------------------------------------------------------------------
# the loaded state, pinned by digest
# ---------------------------------------------------------------------------


def _value(value):
    return value.wkb().hex() if isinstance(value, Geometry) else repr(value)


def _box(env):
    return "-" if env is None else ",".join(map(repr, env.as_tuple()))


def _shape(node, out):
    out.append(f"B{_box(node.box)}")
    if node.children is None:
        out.append("L" + ",".join(str(i) for i, _env in node.entries))
    else:
        out.append(f"N{len(node.children)}")
        for child in node.children:
            _shape(child, out)
    return out


def _stats_lines(table, analyzed):
    """Every ColumnStats float by ``repr``. After ``ANALYZE`` the sums are
    left out of the digest and checked against the row-at-a-time formula
    here instead: ``sum`` folds floats differently from Python 3.12 on."""
    lines = []
    for name, stats in sorted(table.stats.geometry.items()):
        lines.append(f"{name} {stats.count} {_box(stats.bounds)}")
        if not analyzed:
            lines.append(f"{stats.sum_width!r} {stats.sum_height!r}")
            continue
        live = [e for e in table.envelopes(name) if e is not None]
        assert stats.sum_width == sum(e.width for e in live)
        assert stats.sum_height == sum(e.height for e in live)
        histogram = stats.histogram
        lines.append(
            "H-" if histogram is None
            else f"H{histogram.counts!r} {histogram.total!r}"
        )
    if analyzed:
        lines.append(repr(sorted(table.stats.distinct.items())))
    return lines


def _heap_lines(db):
    lines = []
    for table in sorted(db.catalog.tables(), key=lambda t: t.name):
        lines.append(f"T{table.name} {len(table)} {table.mvcc_versions}")
        for row in table.rows:
            lines.append("-" if row is None else "|".join(map(_value, row)))
        xmin, xmax = table.version_arrays()
        lines.append(repr(xmin))
        lines.append(repr(xmax))
        for name in table.geometry_columns():
            lines.append(" ".join(map(_box, table.envelopes(name))))
        lines.extend(_stats_lines(table, analyzed=False))
    return lines


def _analyzed_lines(db):
    db.execute("ANALYZE")
    lines = []
    for table in sorted(db.catalog.tables(), key=lambda t: t.name):
        lines.extend(_stats_lines(table, analyzed=True))
    for entry in sorted(db.catalog.indexes(), key=lambda e: e.name):
        index = entry.index
        lines.append(f"I{entry.name} {index.kind} {len(index)}")
        if entry.is_key:
            lines.append(repr(sorted(index._map.items())))
        else:
            lines.extend(_shape(index.root, []))
    for query in topology_queries():
        lines.append(db.explain(query.sql))
    return lines


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _recovered_with_gaps(directory):
    """Greenwood at scale 0.5 with a third of every layer deleted, closed
    and reopened: the recovered heap has deleted-slot gaps."""
    db = Database("greenwood")
    generate(seed=42, scale=0.5).load_into(db)
    db.attach_storage(directory)
    for table in db.catalog.tables():
        db.execute(f"DELETE FROM {table.name} WHERE gid % 3 = 1")
    db.close()
    return Database.open(directory)


#: recorded by running the test body on the row-at-a-time implementation
#: (``Table.insert_row`` coercing every value, ``restore_slots`` its own
#: loop, STR sorting on ``.center``, ``ANALYZE`` reading properties)
LOADED_DIGESTS = {
    "greenwood": (
        "092475088c428107c0ea96d50179d0f42fda7e509e2d97ed257bb52666d101bb",
        "e5af70daa0e177593e2016a4ba27a2ad9612a95e0d402ea6438deea9a7db6b55",
    ),
    "bluestem": (
        "092475088c428107c0ea96d50179d0f42fda7e509e2d97ed257bb52666d101bb",
        "e5af70daa0e177593e2016a4ba27a2ad9612a95e0d402ea6438deea9a7db6b55",
    ),
    "ironbark": (
        "092475088c428107c0ea96d50179d0f42fda7e509e2d97ed257bb52666d101bb",
        "01fc659abadb6eaf7ca39a62826b41968fc64c927f1725271cba654e2d9fd073",
    ),
    "recovered": (
        "95a3042d3edd3b5651c70b552acfb36963c1d11b8970c2847f464551ffe1d02e",
        "52de2789f023819826ab6e1debf6489bcf00b615087dd17242c7e93fc74c1634",
    ),
}


@pytest.mark.parametrize("case", sorted(LOADED_DIGESTS))
def test_loaded_state_is_pinned(case, tmp_path):
    """``generate(42, 0.5)`` loaded on each profile, and a recovered
    database with gaps: every heap row, version stamp, envelope and
    ColumnStats float, then after ``ANALYZE`` the histograms, distinct
    counts, every index node for node and the EXPLAIN of every J-T1
    statement. The digests were recorded on the row-at-a-time code."""
    if case == "recovered":
        db = _recovered_with_gaps(str(tmp_path))
    else:
        db = Database(case)
        generate(seed=42, scale=0.5).load_into(db)
    try:
        got = (_digest(_heap_lines(db)), _digest(_analyzed_lines(db)))
    finally:
        db.close()
    assert got == LOADED_DIGESTS[case]


# ---------------------------------------------------------------------------
# the work a load does
# ---------------------------------------------------------------------------


def test_a_load_coerces_nothing_and_keeps_the_callers_tuples(monkeypatch):
    """``generate(42, 0.1).load_into`` (509 rows) made 3 243 ``_coerce``
    calls when every value was coerced one by one; every column of the
    generated rows holds its storage type, so now it makes none, and the
    heap holds the generator's own tuples."""
    calls = [0]
    real = table_module._coerce

    def counted(value, col):
        calls[0] += 1
        return real(value, col)

    monkeypatch.setattr(table_module, "_coerce", counted)
    dataset = generate(seed=42, scale=0.1)
    db = Database("greenwood")
    dataset.load_into(db)
    assert dataset.total_rows() == 509
    assert calls[0] == 0
    for layer in dataset.layers.values():
        rows = db.catalog.table(layer.name).rows
        assert len(rows) == len(layer.rows)
        assert all(a is b for a, b in zip(rows, layer.rows))


def test_a_run_that_needs_coercion_is_coerced_row_by_row():
    """One value outside its storage type sends the whole run through the
    per-row coercion; lists become tuples either way."""
    db = Database("greenwood")
    db.execute("CREATE TABLE t (id INTEGER, score REAL, g GEOMETRY)")
    db.insert_rows("t", [[1, 2.5, Point(0, 0)], [True, 3, "POINT(1 2)"]])
    rows = db.catalog.table("t").rows
    assert rows == [(1, 2.5, Point(0, 0)), (1, 3.0, Point(1, 2))]
    assert all(row.__class__ is tuple for row in rows)
    assert rows[1][0].__class__ is int and rows[1][1].__class__ is float


# ---------------------------------------------------------------------------
# failure semantics: a failing run leaves nothing behind
# ---------------------------------------------------------------------------

SCHEMA = "CREATE TABLE t (id INTEGER, score REAL, name TEXT, g GEOMETRY)"
COLUMNS = [Column("id", ColumnType.INTEGER), Column("score", ColumnType.REAL),
           Column("name", ColumnType.TEXT), Column("g", ColumnType.GEOMETRY)]
_FAULTS = ("text_in_integer", "bool_in_integer", "int_in_real",
           "bool_in_real", "bad_wkt", "wrong_width",
           "storage.insert", "index.insert")


def _good_row(i, as_text):
    point = Point(i % 17, i % 13)
    return (i, i / 4.0, f"n{i}", point.wkt() if as_text else point)


def _bad_row(row, fault):
    row = list(row)
    if fault == "text_in_integer":
        row[0] = "seven"
    elif fault == "bool_in_integer":
        row[0] = True
    elif fault == "int_in_real":
        row[1] = 3
    elif fault == "bool_in_real":
        row[1] = False
    elif fault == "bad_wkt":
        row[3] = "POINT(1"
    elif fault == "wrong_width":
        row.pop()
    return row


def _expected(rows, fault, k):
    """What the row-at-a-time path did: each row's width checked and its
    values coerced in order (or the armed fault firing on row k)."""
    if fault in ("storage.insert", "index.insert"):
        message = f"injected fault at {fault} (call #{k + 1})"
        return None, InjectedFaultError, message
    coerced = []
    for values in rows:
        if len(values) != len(COLUMNS):
            return None, EngineError, (
                f"table t: expected {len(COLUMNS)} values, got {len(values)}"
            )
        try:
            coerced.append(tuple(
                table_module._coerce(v, c) for v, c in zip(values, COLUMNS)
            ))
        except ReproError as exc:
            return None, type(exc), str(exc)
    return coerced, None, None


def _state(db):
    table = db.catalog.table("t")
    stats = table.stats.geometry["g"]
    world = Envelope(-100, -100, 100, 100)
    return (
        len(table.rows), list(table.rows), list(table.envelopes("g")),
        (stats.count, repr(stats.sum_width), repr(stats.sum_height),
         _box(stats.bounds)),
        [sorted(e.index.search(world)) for e in db.catalog.indexes()
         if not e.is_key],
        [e.index.lookup(range(-5, 60)) for e in db.catalog.indexes()
         if e.is_key],
        dict(db.write_marks),
        db.durability.wal.size_bytes() if db.durability.attached else 0,
    )


def _table(indexed, directory):
    db = Database("greenwood")
    db.execute(SCHEMA)
    if indexed:
        db.execute("CREATE SPATIAL INDEX t_g ON t (g)")
        db.execute("CREATE INDEX t_id ON t (id)")
    db.insert_rows("t", [_good_row(-i, False) for i in range(1, 6)])
    if directory is not None:
        db.attach_storage(directory)
    return db


@given(
    n=st.integers(1, 40), data=st.data(), fault=st.sampled_from(_FAULTS),
    as_text=st.booleans(), indexed=st.booleans(), durable=st.booleans(),
)
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_a_failing_run_leaves_nothing_behind(n, data, fault, as_text,
                                             indexed, durable):
    """Runs of 1–40 rows with one fault at row k, on tables with and
    without a spatial and a key index, in memory and durable: the error
    is the one the row-at-a-time path raised for the first bad row, and
    a failed run leaves the heap, envelopes, statistics, index answers,
    write marks and WAL as they were; a run that succeeds stores exactly
    the coerced rows."""
    k = data.draw(st.integers(0, n - 1), label="k")
    rows = [_good_row(i, as_text) for i in range(n)]
    if fault not in ("storage.insert", "index.insert"):
        rows[k] = _bad_row(rows[k], fault)
    expected, error, message = _expected(rows, fault, k)
    with tempfile.TemporaryDirectory() as directory:
        db = _table(indexed, directory if durable else None)
        try:
            before = _state(db)
            if error is None:
                assert db.insert_rows("t", rows) == n
                table = db.catalog.table("t")
                assert table.rows[5:] == expected
                assert all(row.__class__ is tuple for row in table.rows)
            else:
                if fault in ("storage.insert", "index.insert"):
                    FAULTS.arm(fault, on_call=k + 1, max_fires=1)
                with pytest.raises(error) as caught:
                    db.insert_rows("t", rows)
                FAULTS.disarm_all()
                assert str(caught.value) == message
                assert _state(db) == before
        finally:
            FAULTS.disarm_all()
            db.close()


@pytest.mark.parametrize("site", ["storage.insert", "index.insert"])
def test_a_failing_update_run_leaves_nothing_behind(site):
    """UPDATE's new versions are one run too: a fault on the third leaves
    every old version live and the indexes as they were."""
    db = _table(True, None)
    before = _state(db)
    with injected(site, on_call=3):
        with pytest.raises(InjectedFaultError):
            db.execute("UPDATE t SET score = score + 1 WHERE id < 0")
    assert _state(db) == before
    assert db.execute("SELECT COUNT(*) FROM t WHERE score < 0").scalar() == 5


# ---------------------------------------------------------------------------
# planner statistics survive a crash
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("when", ["before_attach", "after_attach"])
def test_analyze_survives_a_crash(when, tmp_path):
    """``ANALYZE`` before attach rides in the checkpoint record's
    ``tables``; after attach it is a DDL record in the WAL. Either way the
    recovered database is analyzed, with the same distinct counts and
    the same plans (J-T1 ``Line Touches Line`` stays a hash join)."""
    directory = str(tmp_path / "db")
    db = Database("greenwood")
    generate(seed=42, scale=0.5).load_into(db)
    if when == "before_attach":
        db.execute("ANALYZE")
        db.attach_storage(directory)
    else:
        db.attach_storage(directory)
        records = db.durability.stats()["wal_records"]
        db.execute("ANALYZE jackpine_tables")  # a view: nothing to log
        assert db.durability.stats()["wal_records"] == records
        db.execute("ANALYZE")
    distinct = {t.name: dict(t.stats.distinct) for t in db.catalog.tables()}
    plans = [db.explain(q.sql) for q in topology_queries()]
    db.durability.crash()
    again = Database.open(directory)
    try:
        for table in again.catalog.tables():
            assert table.stats.analyzed
            assert table.stats.distinct == distinct[table.name]
        assert [again.explain(q.sql) for q in topology_queries()] == plans
        assert any("HashJoin" in plan for plan in plans)
    finally:
        again.close()
    # and a clean reopen keeps the flag through the recovery checkpoint
    third = Database.open(directory)
    try:
        assert all(t.stats.analyzed for t in third.catalog.tables())
    finally:
        third.close()
