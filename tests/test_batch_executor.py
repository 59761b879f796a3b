"""The batch executor at its edges.

Every operator yields batches of at most about ``BATCH_SIZE`` rows, so
the off-by-ones live at tables of 0, 1, B-1, B and B+1 rows, at deleted
slots and MVCC-invisible versions on either side of a batch edge, and at
LIMIT/OFFSET windows that end mid-batch. The J-T1 matrix at scale 0.1
must answer the same under every join strategy on every profile, and on
``bluestem`` the work counters of all 24 statements are pinned: batching
changes how rows move between operators, not how much work is done.
"""

from __future__ import annotations

import re
import types

import pytest

import repro.guard
from repro.core.micro.topology import topology_queries
from repro.datagen import generate
from repro.engines import Database
from repro.errors import MemoryBudgetError, QueryTimeoutError
from repro.sql.executor import BATCH_SIZE
from repro.txn import Session

B = BATCH_SIZE
SIZES = (0, 1, B - 1, B, B + 1)
STRATEGIES = ("inlj", "tree", "nlj")
PROFILES = ("greenwood", "bluestem", "ironbark")

#: s: three rectangles — around the first points, around a stretch past
#: the first batch edge, and far from everything
S_ROWS = (
    (0, "POLYGON((-1 -1, 10 -1, 10 10, -1 10, -1 -1))"),
    (1, f"POLYGON(({B - 3} -1, {B + 2} -1, {B + 2} 2, {B - 3} 2, {B - 3} -1))"),
    (2, "POLYGON((-500 -500, -400 -500, -400 -400, -500 -400, -500 -500))"),
)


def _point(i: int):
    return i, i % 5


def _db(n: int, profile: str = "greenwood", indexed: bool = True) -> Database:
    db = Database(profile)
    db.execute("CREATE TABLE t (id INTEGER, grp INTEGER, g GEOMETRY)")
    db.insert_rows(
        "t", [(i, i % 7, "POINT({} {})".format(*_point(i))) for i in range(n)]
    )
    db.execute("CREATE TABLE s (id INTEGER, g GEOMETRY)")
    db.insert_rows("s", S_ROWS)
    if indexed:
        db.execute("CREATE SPATIAL INDEX t_g ON t (g)")
        db.execute("CREATE SPATIAL INDEX s_g ON s (g)")
    db.execute("ANALYZE")
    return db


def _in_s(x: float, y: float) -> int:
    """How many rectangles of ``s`` contain the point (boundary included)."""
    boxes = ((-1, -1, 10, 10), (B - 3, -1, B + 2, 2), (-500, -500, -400, -400))
    return sum(x0 <= x <= x1 and y0 <= y <= y1 for x0, y0, x1, y1 in boxes)


def _ids(db: Database, sql: str, session=None):
    return [row[0] for row in db.execute(sql, session=session).rows]


#: the join with a filtered outer each way round, and the tree join's
#: index pair for it: ``t`` packed from a snapshot scan against ``s``,
#: then ``s`` packed against ``t`` read through its index, whose row ids
#: meet the MVCC visibility check
FILTERED_JOINS = (
    ("SELECT COUNT(*) FROM t JOIN s ON ST_Intersects(t.g, s.g) "
     "WHERE t.grp >= 0", "(transient, s_g)"),
    ("SELECT COUNT(*) FROM s JOIN t ON ST_Intersects(t.g, s.g) "
     "WHERE s.id >= 0", "(transient, t_g)"),
)


def _join_count(db: Database, strategy: str, session=None) -> int:
    """The join's count, checked against its :data:`FILTERED_JOINS`
    forms (each filter passes every row)."""
    db.join_strategy = strategy
    try:
        count = db.execute(
            "SELECT COUNT(*) FROM t JOIN s ON ST_Intersects(t.g, s.g)",
            session=session,
        ).scalar()
        for sql, indexes in FILTERED_JOINS:
            if strategy == "tree":
                assert f"USING {indexes}" in db.explain(sql)
            assert db.execute(sql, session=session).scalar() == count
        return count
    finally:
        db.join_strategy = "auto"


# -- tables of 0, 1, B-1, B and B+1 rows ------------------------------------


@pytest.fixture(scope="module", params=SIZES, ids=lambda n: f"n{n}")
def sized(request):
    return request.param, _db(request.param)


def test_scan_filter_aggregate_sort_at_batch_edges(sized):
    n, db = sized
    ids = list(range(n))
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == n
    assert db.execute("SELECT SUM(id) FROM t").scalar() == (sum(ids) if n else None)
    assert _ids(db, "SELECT id FROM t") == ids
    assert _ids(db, "SELECT id FROM t ORDER BY id DESC") == ids[::-1]
    assert _ids(db, "SELECT id FROM t WHERE grp = 3") == [
        i for i in ids if i % 7 == 3
    ]
    grouped = db.execute(
        "SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp"
    ).rows
    assert grouped == [
        (g, sum(1 for i in ids if i % 7 == g)) for g in range(7) if g < n
    ]
    assert _ids(db, "SELECT DISTINCT grp FROM t ORDER BY grp") == sorted(
        {i % 7 for i in ids}
    )


def test_index_scan_at_batch_edges(sized):
    n, db = sized
    got = _ids(
        db,
        "SELECT id FROM t WHERE ST_Intersects(g, "
        f"ST_MakeEnvelope(-0.5, -0.5, {n + 1}, 0.5))",
    )
    assert sorted(got) == [i for i in range(n) if i % 5 == 0]
    assert "IndexScan" in db.explain(
        "SELECT id FROM t WHERE ST_Intersects(g, ST_MakeEnvelope(0, 0, 1, 1))"
    )


@pytest.mark.parametrize("strategy", STRATEGIES + ("packed",))
def test_spatial_joins_at_batch_edges(sized, strategy):
    n, db = sized
    expected = sum(_in_s(*_point(i)) for i in range(n))
    if strategy == "packed":
        # unindexed tables: the tree join packs both sides from their scans
        db = _db(n, indexed=False)
        db.join_strategy = "tree"
        sql = "SELECT COUNT(*) FROM t JOIN s ON ST_Intersects(t.g, s.g)"
        assert "USING (transient, transient)" in db.explain(sql)
        assert db.execute(sql).scalar() == expected
    else:
        assert _join_count(db, strategy) == expected


def test_hash_join_and_cross_products_at_batch_edges(sized):
    n, db = sized
    assert db.execute(
        "SELECT COUNT(*) FROM t a JOIN t b ON a.id = b.id"
    ).scalar() == n
    # inner side smaller than a batch, then at least a batch long
    assert db.execute("SELECT COUNT(*) FROM t, s").scalar() == 3 * n
    assert db.execute("SELECT COUNT(*) FROM s, t").scalar() == 3 * n
    pairs = db.execute("SELECT s.id, t.id FROM s, t").rows
    assert pairs == [(j, i) for j in range(3) for i in range(n)]


# -- deleted slots and MVCC-invisible rows straddling a batch edge ------------


def test_deleted_slots_and_open_transactions_straddling_a_batch_edge():
    n = B + 8
    db = _db(n)
    table = db.catalog.table("t")
    db.execute(f"DELETE FROM t WHERE id >= {B - 2} AND id <= {B + 1}")
    assert all(table.rows[i] is None for i in range(B - 2, B + 2))
    live = [i for i in range(n) if not B - 2 <= i <= B + 1]

    def expect(db, ids, session=None):
        assert _ids(db, "SELECT id FROM t", session) == ids
        assert db.execute(
            "SELECT COUNT(*) FROM t", session=session
        ).scalar() == len(ids)
        window = (
            "SELECT id FROM t WHERE ST_Intersects(g, "
            f"ST_MakeEnvelope({B - 10}, -1, {B + 20}, 5))"
        )
        assert sorted(_ids(db, window, session)) == [
            i for i in ids if B - 10 <= i <= B + 20
        ]
        for strategy in STRATEGIES:
            assert _join_count(db, strategy, session) == sum(
                _in_s(*_point(i)) for i in ids
            )

    expect(db, live)

    writer = Session()
    db.execute("BEGIN", session=writer)
    db.execute(f"DELETE FROM t WHERE id >= {B - 5} AND id <= {B - 3}",
               session=writer)
    db.execute(f"DELETE FROM t WHERE id = {B + 2} OR id = {B + 3}",
               session=writer)
    db.execute(f"UPDATE t SET grp = 99 WHERE id = {B - 6}", session=writer)
    db.execute("INSERT INTO t VALUES (?, ?, ?)",
               (B, 0, "POINT({} {})".format(*_point(B))), session=writer)
    assert table.mvcc_versions
    mine = sorted(
        [i for i in live if i not in (B - 5, B - 4, B - 3, B + 2, B + 3)]
        + [B]
    )
    # the writer sees its own changes; the updated row moved to the heap's
    # end, so order by id to compare
    assert sorted(_ids(db, "SELECT id FROM t", writer)) == mine
    assert _ids(db, "SELECT id FROM t WHERE grp = 99", writer) == [B - 6]
    for strategy in STRATEGIES:
        assert _join_count(db, strategy, writer) == sum(
            _in_s(*_point(i)) for i in mine
        )
    # a concurrent snapshot sees none of them
    expect(db, live)
    db.execute("COMMIT", session=writer)
    assert sorted(_ids(db, "SELECT id FROM t")) == mine
    assert _ids(db, "SELECT id FROM t WHERE grp = 99") == [B - 6]


# -- LIMIT / OFFSET ending mid-batch -----------------------------------------


@pytest.fixture(scope="module")
def long_table():
    return _db(2 * B + 100)


@pytest.mark.parametrize(
    "limit, offset",
    [(5, B - 2), (1, B - 1), (1, B), (B + 3, 1), (3, 2 * B - 1),
     (10, 2 * B + 95), (0, 7), (None, B + 1), (B, 0), (2 * B, None)],
)
def test_limit_and_offset_ending_mid_batch(long_table, limit, offset):
    ids = list(range(2 * B + 100))
    clause = ""
    if limit is not None:
        clause += f" LIMIT {limit}"
    if offset is not None:
        clause += f" OFFSET {offset}"
    start = offset or 0
    stop = None if limit is None else start + limit
    assert _ids(long_table, f"SELECT id FROM t{clause}") == ids[start:stop]
    assert _ids(long_table, f"SELECT id FROM t ORDER BY id DESC{clause}") == (
        ids[::-1][start:stop]
    )


# -- guardrails inside a long tree join --------------------------------------

#: 600 overlapping strips, each meeting about a hundred others
STRIPS = [
    (i, f"POLYGON(({i} 0, {i + 50} 0, {i + 50} 1, {i} 1, {i} 0))")
    for i in range(600)
]
STRIP_JOIN = "FROM w a JOIN w b ON ST_Intersects(a.g, b.g)"


@pytest.fixture(scope="module")
def strips():
    db = Database("bluestem")
    db.execute("CREATE TABLE w (id INTEGER, g GEOMETRY)")
    db.insert_rows("w", STRIPS)
    db.execute("CREATE SPATIAL INDEX w_g ON w (g)")
    db.join_strategy = "tree"
    before = db.stats.join_pairs_considered
    full = db.execute(f"SELECT COUNT(*) {STRIP_JOIN}").scalar()
    considered = db.stats.join_pairs_considered - before
    assert "SpatialTreeJoin" in db.explain(f"SELECT COUNT(*) {STRIP_JOIN}")
    assert full == considered > 50_000
    return db, considered


def test_row_budget_trips_inside_a_long_tree_join(strips):
    db, full = strips
    before = db.stats.join_pairs_considered
    with pytest.raises(MemoryBudgetError):
        db.execute(f"SELECT a.id, b.id {STRIP_JOIN} ORDER BY a.id",
                   max_rows=5000)
    assert 5000 <= db.stats.join_pairs_considered - before < full // 2


def test_deadline_trips_inside_a_long_tree_join(strips, monkeypatch):
    """A clock that moves one second per guard check: a 5 s deadline
    trips at the sixth check, deep inside the join."""
    db, full = strips
    clock = iter(range(10**6))
    monkeypatch.setattr(repro.guard, "time", types.SimpleNamespace(
        monotonic=lambda: float(next(clock)),
        perf_counter=repro.guard.time.perf_counter,
    ))
    before = db.stats.join_pairs_considered
    with pytest.raises(QueryTimeoutError):
        db.execute(f"SELECT COUNT(*) {STRIP_JOIN}", timeout=5.0)
    assert 0 < db.stats.join_pairs_considered - before < full // 2


# -- EXPLAIN ANALYZE counts the rows the operators emitted --------------------


def _analyzed_rows(text: str):
    return [
        (line.strip().split(" ")[0], int(rows))
        for line, rows in re.findall(r"^(.*)\(rows=(\d+)", text, re.M)
    ]


def test_explain_analyze_rows_equal_rows_emitted():
    n = B + 1
    db = _db(n)
    text = db.explain_analyze(
        "SELECT grp, COUNT(*) FROM t WHERE id % 2 = 0 GROUP BY grp ORDER BY grp"
    )
    assert _analyzed_rows(text) == [
        ("Project", 7), ("Sort", 7), ("Aggregate", 7),
        ("Filter", (n + 1) // 2), ("SeqScan", n),
    ]
    db.join_strategy = "tree"
    text = db.explain_analyze(
        "SELECT t.id FROM t JOIN s ON ST_Intersects(t.g, s.g)"
    )
    matches = sum(_in_s(*_point(i)) for i in range(n))
    assert _analyzed_rows(text) == [
        ("Project", matches), ("SpatialTreeJoin", matches),
    ]
    assert f"Total output rows: {matches}" in text


# -- the J-T1 matrix at scale 0.1 ----------------------------------------------


@pytest.fixture(scope="module")
def jt1():
    dataset = generate(seed=42, scale=0.1)
    queries = topology_queries()
    assert len(queries) == 24
    dbs = {}
    for profile in PROFILES:
        db = Database(profile)
        dataset.load_into(db, create_indexes=True)
        dbs[profile] = db
    return dbs, queries


def _answers(db: Database, queries, strategy: str):
    db.join_strategy = strategy
    try:
        return {q.query_id: db.execute(q.sql).rows for q in queries}
    finally:
        db.join_strategy = "auto"


def test_jt1_agrees_across_strategies_and_profiles(jt1):
    dbs, queries = jt1
    answers = {
        (profile, strategy): _answers(dbs[profile], queries, strategy)
        for profile in PROFILES for strategy in STRATEGIES
    }
    exact = answers[("greenwood", "inlj")]
    mbr = answers[("bluestem", "inlj")]
    for (profile, strategy), got in answers.items():
        assert got == (mbr if profile == "bluestem" else exact), (
            profile, strategy,
        )
    # MBR-only answers are supersets where the paper says they are
    for name in ("line_intersects_line", "polygon_contains_point"):
        assert mbr[f"topo.{name}"][0][0] >= exact[f"topo.{name}"][0][0]


#: (join_pairs_considered, join_pairs_emitted, rows_scanned, index_probes)
#: of each J-T1 statement on bluestem at scale 0.1, seed 42 — the counts a
#: one-row-at-a-time execution of the same plans makes
BLUESTEM_COUNTERS = {
    "polygon_equals_polygon": (25, 0, 25, 0),
    "polygon_disjoint_polygon": (100, 92, 29, 0),
    "polygon_intersects_polygon": (8, 8, 8, 0),
    "polygon_touches_polygon": (169, 11, 169, 0),
    "polygon_within_polygon": (30, 28, 30, 0),
    "polygon_contains_polygon": (30, 28, 30, 0),
    "polygon_overlaps_polygon": (0, 0, 0, 0),
    "line_intersects_polygon": (9, 9, 9, 0),
    "line_crosses_polygon": (25, 20, 25, 0),
    # the tree join packs the filtered outer: its scan, then the candidates
    "line_within_polygon": (501, 376, 852, 0),
    "polygon_contains_line": (25, 0, 25, 0),
    "line_touches_polygon": (25, 0, 25, 0),
    "line_intersects_line": (217, 217, 217, 0),
    "line_crosses_line": (217, 42, 217, 0),
    "line_overlaps_line": (317, 0, 668, 0),
    "line_touches_line": (1681, 249, 1681, 0),
    "point_within_polygon": (0, 0, 0, 0),
    "polygon_contains_point": (91, 91, 91, 0),
    "point_intersects_polygon": (0, 0, 0, 0),
    "point_intersects_line": (68, 68, 68, 0),
    "point_equals_point": (75, 0, 75, 0),
    "region_intersects_polygon": (0, 0, 2, 1),
    "region_intersects_line": (0, 0, 20, 1),
    "region_contains_point": (0, 0, 5, 1),
}


def test_bluestem_jt1_work_counters_are_pinned():
    db = Database("bluestem")
    generate(seed=42, scale=0.1).load_into(db, create_indexes=True)
    keys = ("join_pairs_considered", "join_pairs_emitted",
            "rows_scanned", "index_probes")
    got = {}
    for q in topology_queries():
        before = db.stats.snapshot()
        db.execute(q.sql)
        after = db.stats.snapshot()
        got[q.query_id[len("topo."):]] = tuple(
            after[k] - before[k] for k in keys
        )
    assert got == BLUESTEM_COUNTERS
