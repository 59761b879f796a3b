"""Spatial join engine tests.

Every join algorithm (INLJ, and the synchronized tree join over indexes
or over a side packed into a transient R-tree) must return exactly the
rows a plain nested loop produces, under every engine profile —
including ``bluestem``, whose MBR-only refinement makes the "right
answer" different from the exact profiles but still
algorithm-independent. Inputs are randomized through the same shape
factories the TIGER generator uses.
"""

import random
import re

import pytest

from repro.algorithms import de9im
from repro.core.micro.topology import topology_queries
from repro.datagen import generate, shapes
from repro.engines import Database
from repro.errors import QueryCancelledError, SqlPlanError
from repro.guard import CancelToken, ExecutionGuard
from repro.index import INDEX_KINDS, LinearScanIndex
from repro.geometry import Envelope
from repro.sql import parse
from repro.sql.executor import ExecContext, Stats
from repro.sql.planner import _COST_HASH_PAIR, _COST_HASH_ROW

PROFILES = ("greenwood", "bluestem", "ironbark")
STRATEGIES = ("inlj", "tree")
#: a conjunct every row passes that filters the outer side, so a tree
#: join packs that side instead of reading it through its index
PACK_OUTER = " AND a.id >= 0"


def _random_layer(rng: random.Random, count: int, world: float):
    """A mix of blobby polygons, wiggly lines and points."""
    geoms = []
    for i in range(count):
        cx = rng.uniform(0.0, world)
        cy = rng.uniform(0.0, world)
        pick = i % 3
        if pick == 0:
            geoms.append(
                shapes.radial_polygon(
                    rng, (cx, cy), rng.uniform(world / 40, world / 10)
                )
            )
        elif pick == 1:
            ex = min(world, cx + rng.uniform(world / 30, world / 8))
            ey = min(world, cy + rng.uniform(world / 30, world / 8))
            geoms.append(shapes.wiggly_line(rng, (cx, cy), (ex + 1.0, ey + 1.0)))
        else:
            from repro.geometry import Point

            geoms.append(Point(cx, cy))
    return geoms


def _build_db(profile: str, seed: int, n_a: int = 40, n_b: int = 50,
              indexed: bool = True) -> Database:
    rng = random.Random(seed)
    db = Database(profile)
    db.execute("CREATE TABLE a (id INTEGER, geom GEOMETRY)")
    db.execute("CREATE TABLE b (id INTEGER, geom GEOMETRY)")
    world = 100.0
    db.insert_rows(
        "a", [(i, g) for i, g in enumerate(_random_layer(rng, n_a, world))]
    )
    db.insert_rows(
        "b", [(i, g) for i, g in enumerate(_random_layer(rng, n_b, world))]
    )
    if indexed:
        db.execute("CREATE SPATIAL INDEX ia ON a (geom)")
        db.execute("CREATE SPATIAL INDEX ib ON b (geom)")
        db.execute("ANALYZE")
    return db


PREDICATES = (
    "ST_Intersects(a.geom, b.geom)",
    "a.geom && b.geom",
    "ST_Contains(a.geom, b.geom)",
    "ST_Contains(b.geom, a.geom)",  # asymmetric, column on each side
    "ST_Overlaps(a.geom, b.geom)",
    "ST_Touches(a.geom, b.geom)",
)


class TestOperatorsMatchNestedLoop:
    """Forced tree / INLJ joins reproduce the NLJ row set."""

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("seed", (3, 11))
    def test_all_strategies_agree(self, profile, seed):
        db = _build_db(profile, seed)
        for predicate in PREDICATES:
            sql = f"SELECT a.id, b.id FROM a, b WHERE {predicate}"
            db.join_strategy = "nlj"
            truth = sorted(db.execute(sql).rows)
            for strategy in STRATEGIES:
                db.join_strategy = strategy
                got = sorted(db.execute(sql).rows)
                assert got == truth, (profile, predicate, strategy)
            db.join_strategy = "tree"
            assert "USING (transient, ib)" in db.explain(sql + PACK_OUTER)
            got = sorted(db.execute(sql + PACK_OUTER).rows)
            assert got == truth, (profile, predicate, "packed")
            db.join_strategy = "auto"
            assert sorted(db.execute(sql).rows) == truth

    @pytest.mark.parametrize("profile", PROFILES)
    def test_unindexed_tree_agrees(self, profile):
        db = _build_db(profile, seed=5, indexed=False)
        sql = "SELECT a.id, b.id FROM a, b WHERE ST_Intersects(a.geom, b.geom)"
        db.join_strategy = "nlj"
        truth = sorted(db.execute(sql).rows)
        db.join_strategy = "tree"
        plan = db.explain(sql)
        assert "SpatialTreeJoin" in plan
        assert "USING (transient, transient)" in plan
        assert sorted(db.execute(sql).rows) == truth

    def test_self_join(self):
        db = _build_db("greenwood", seed=9, n_a=30, n_b=30)
        sql = (
            "SELECT x.id, y.id FROM a AS x, a AS y "
            "WHERE ST_Intersects(x.geom, y.geom)"
        )
        db.join_strategy = "nlj"
        truth = sorted(db.execute(sql).rows)
        for strategy in STRATEGIES:
            db.join_strategy = strategy
            assert sorted(db.execute(sql).rows) == truth, strategy

    def test_residual_conjunct_applies(self):
        db = _build_db("greenwood", seed=21)
        sql = (
            "SELECT a.id, b.id FROM a, b "
            "WHERE ST_Intersects(a.geom, b.geom) AND a.id < b.id"
        )
        db.join_strategy = "nlj"
        truth = sorted(db.execute(sql).rows)
        for strategy in STRATEGIES:
            db.join_strategy = strategy
            assert sorted(db.execute(sql).rows) == truth, strategy


class TestIndexJoinProperty:
    """``SpatialIndex.join`` equals the brute-force pair set for every
    index kind combination, including the generic cross-kind fallback."""

    @pytest.mark.parametrize("kind_a", sorted(INDEX_KINDS))
    @pytest.mark.parametrize("kind_b", sorted(INDEX_KINDS))
    def test_join_matches_bruteforce(self, kind_a, kind_b):
        rng = random.Random(hash((kind_a, kind_b)) & 0xFFFF)

        def envs(n):
            out = []
            for i in range(n):
                x = rng.uniform(0, 80)
                y = rng.uniform(0, 80)
                out.append(
                    (i, Envelope(x, y, x + rng.uniform(0, 15),
                                 y + rng.uniform(0, 15)))
                )
            return out

        items_a = envs(35)
        items_b = envs(45)
        index_a = INDEX_KINDS[kind_a].bulk_load(items_a)
        index_b = INDEX_KINDS[kind_b].bulk_load(items_b)
        expected = sorted(
            (ia, ib)
            for ia, ea in items_a
            for ib, eb in items_b
            if ea.intersects(eb)
        )
        got = sorted(index_a.join(index_b))
        assert got == expected

    def test_empty_sides(self):
        full = INDEX_KINDS["rtree"].bulk_load(
            [(0, Envelope(0, 0, 1, 1))]
        )
        empty = INDEX_KINDS["rtree"].bulk_load([])
        assert list(empty.join(full)) == []
        assert list(full.join(empty)) == []
        assert list(LinearScanIndex().join(full)) == []


class TestPlannerChoice:
    """The cost model picks the expected algorithm per statistics regime
    and surfaces its decision in EXPLAIN."""

    def test_tiny_outer_prefers_inlj(self):
        db = Database("greenwood")
        db.execute("CREATE TABLE small (id INTEGER, geom GEOMETRY)")
        db.execute("CREATE TABLE big (id INTEGER, geom GEOMETRY)")
        db.insert_rows("small", [(0, _poly(5, 5, 2)), (1, _poly(50, 50, 2))])
        rng = random.Random(1)
        db.insert_rows(
            "big",
            [
                (i, _poly(rng.uniform(0, 100), rng.uniform(0, 100), 1.5))
                for i in range(400)
            ],
        )
        db.execute("CREATE SPATIAL INDEX ibig ON big (geom)")
        db.execute("ANALYZE")
        plan = db.explain(
            "SELECT small.id, big.id FROM small, big "
            "WHERE ST_Intersects(small.geom, big.geom)"
        )
        assert "IndexNestedLoopJoin" in plan
        assert "-> inlj" in plan

    def test_both_indexed_prefers_tree(self):
        db = _build_db("greenwood", seed=2, n_a=120, n_b=150)
        plan = db.explain(
            "SELECT a.id, b.id FROM a, b WHERE ST_Intersects(a.geom, b.geom)"
        )
        assert "SpatialTreeJoin" in plan
        assert "-> tree" in plan
        assert "cost(" in plan

    def test_unindexed_packs_transient_trees(self):
        db = _build_db("greenwood", seed=2, n_a=120, n_b=150, indexed=False)
        plan = db.explain(
            "SELECT a.id, b.id FROM a, b WHERE ST_Intersects(a.geom, b.geom)"
        )
        assert "SpatialTreeJoin a AS a x b AS b USING (transient, transient)" \
            in plan
        assert "-> tree" in plan
        # both packed sides are the join's children
        assert plan.count("SeqScan") == 2

    def test_forced_strategy_overrides_cost(self):
        db = _build_db("greenwood", seed=2, n_a=120, n_b=150)
        sql = "SELECT a.id, b.id FROM a, b WHERE ST_Intersects(a.geom, b.geom)"
        assert "-> tree" in db.explain(sql)
        db.join_strategy = "inlj"
        plan = db.explain(sql)
        assert "IndexNestedLoopJoin" in plan
        assert "-> inlj" in plan

    def test_forced_unavailable_falls_back(self):
        # INLJ needs an index on the inner side; forcing it on bare tables
        # must still produce a working plan rather than an error
        db = _build_db("greenwood", seed=2, indexed=False)
        db.join_strategy = "inlj"
        sql = "SELECT a.id, b.id FROM a, b WHERE ST_Intersects(a.geom, b.geom)"
        plan = db.explain(sql)
        assert "IndexNestedLoopJoin" not in plan
        db.join_strategy = "nlj"
        truth = sorted(db.execute(sql).rows)
        db.join_strategy = "inlj"
        assert sorted(db.execute(sql).rows) == truth

    def test_unknown_strategy_rejected(self):
        db = Database("greenwood")
        # "pbsm" names the removed partition-based spatial-merge join
        for strategy in ("zigzag", "pbsm"):
            with pytest.raises(SqlPlanError):
                db.join_strategy = strategy
        assert db.join_strategy == "auto"

    def test_dwithin_stays_inlj(self):
        db = _build_db("greenwood", seed=4)
        plan = db.explain(
            "SELECT a.id, b.id FROM a, b WHERE ST_DWithin(a.geom, b.geom, 2.0)"
        )
        assert "IndexNestedLoopJoin" in plan


def _poly(cx, cy, r):
    from repro.geometry import Polygon

    return Polygon(
        [(cx - r, cy - r), (cx + r, cy - r), (cx + r, cy + r), (cx - r, cy + r)]
    )


class TestAnalyzeAndCounters:
    def test_analyze_statement(self):
        db = _build_db("greenwood", seed=6, indexed=False)
        result = db.execute("ANALYZE a")
        assert result.rowcount == 1
        assert db.catalog.table("a").stats.analyzed
        result = db.execute("ANALYZE")
        assert result.rowcount == 2
        assert db.catalog.table("b").stats.analyzed

    def test_stats_track_incremental_inserts(self):
        db = Database("greenwood")
        db.execute("CREATE TABLE t (id INTEGER, geom GEOMETRY)")
        db.execute("INSERT INTO t VALUES (1, ST_Point(3, 4))")
        col = db.catalog.table("t").stats.column("geom")
        assert col.count == 1
        assert col.bounds is not None and col.bounds.min_x == 3.0
        db.execute("DELETE FROM t WHERE id = 1")
        assert db.catalog.table("t").stats.column("geom").count == 0

    def test_join_counters_in_snapshot(self):
        db = _build_db("greenwood", seed=8)
        db.stats.reset()
        db.execute(
            "SELECT a.id, b.id FROM a, b WHERE ST_Intersects(a.geom, b.geom)"
        )
        snap = db.stats.snapshot()
        assert snap["join_pairs_considered"] >= snap["join_pairs_emitted"]
        assert snap["join_pairs_emitted"] > 0
        for key in ("plan_cache_hits", "plan_cache_misses"):
            assert key in snap

    def test_plan_cache_hit_miss_counters(self):
        db = _build_db("greenwood", seed=8)
        db.stats.reset()
        sql = "SELECT COUNT(*) FROM a"
        db.execute(sql)
        db.execute(sql)
        db.execute(sql)
        snap = db.stats.snapshot()
        assert snap["plan_cache_misses"] == 1
        assert snap["plan_cache_hits"] == 2

    def test_plan_cache_lru_evicts_oldest(self):
        db = Database("greenwood")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.PLAN_CACHE_SIZE = 3
        queries = [f"SELECT {i} FROM t" for i in range(3)]
        for sql in queries:
            db.execute(sql)
        db.execute(queries[0])  # refresh: now queries[1] is the LRU entry
        db.execute("SELECT 99 FROM t")
        assert queries[0] in db._plan_cache
        assert queries[1] not in db._plan_cache

    def test_explain_analyze_shows_new_operators(self):
        db = _build_db("greenwood", seed=8)
        text = db.explain_analyze(
            "SELECT a.id, b.id FROM a, b WHERE ST_Intersects(a.geom, b.geom)"
        )
        assert "SpatialTreeJoin" in text
        assert "rows=" in text


# -- equality keys costed against the spatial join ----------------------------


def _keyed_db(profile: str, seed: int, analyzed: bool) -> Database:
    """Two indexed layers carrying equality keys: ``k`` is INTEGER on one
    side and REAL on the other (1 must meet 1.0, 2.5 meets nothing),
    ``name`` is TEXT, and both keys are NULL on some rows."""
    rng = random.Random(seed)
    db = Database(profile)
    db.execute(
        "CREATE TABLE a (id INTEGER, k INTEGER, name TEXT, geom GEOMETRY)"
    )
    db.execute("CREATE TABLE b (id INTEGER, k REAL, name TEXT, geom GEOMETRY)")
    db.insert_rows("a", [
        (i, None if i % 7 == 0 else i % 5,
         None if i % 11 == 0 else f"n{i % 3}", g)
        for i, g in enumerate(_random_layer(rng, 160, 100.0))
    ])
    db.insert_rows("b", [
        (i, None if i % 6 == 0 else float(i % 5) if i % 4 else i % 5 + 0.5,
         None if i % 9 == 0 else f"n{i % 4}", g)
        for i, g in enumerate(_random_layer(rng, 180, 100.0))
    ])
    db.execute("CREATE SPATIAL INDEX ia ON a (geom)")
    db.execute("CREATE SPATIAL INDEX ib ON b (geom)")
    if analyzed:
        db.execute("ANALYZE")
    return db


KEYED_JOINS = (
    "SELECT a.id, b.id FROM a JOIN b "
    "ON ST_Intersects(a.geom, b.geom) AND a.k = b.k",
    "SELECT a.id, b.id FROM a JOIN b ON a.name = b.name "
    "WHERE ST_Intersects(b.geom, a.geom) AND b.k = a.k",
    "SELECT a.id, b.id FROM a JOIN b "
    "ON a.geom && b.geom AND a.k = b.k AND a.id < b.id",
    "SELECT a.id, b.id FROM a JOIN b "
    "ON ST_Contains(a.geom, b.geom) AND a.name = b.name",
    "SELECT a.id, b.id FROM a JOIN b "
    "ON ST_Touches(a.geom, b.geom) AND a.id = b.id",
    "SELECT a.id, b.id FROM a JOIN b "
    "ON ST_Intersects(a.geom, b.geom) AND a.id = b.id",
    # a filtered outer is packed by the tree join; forcing a spatial
    # strategy never picks the (cheaper) hash join
    "SELECT a.id, b.id FROM a JOIN b "
    "ON ST_Intersects(a.geom, b.geom) AND a.id = b.id WHERE a.k >= 0",
)


class TestEquiKeysBesideSpatial:
    """A join with equality and spatial conjuncts answers the same rows
    whichever strategy runs it, ``ANALYZE``d (the hash join is costed)
    or not (it is not)."""

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("analyzed", (False, True))
    def test_auto_equals_every_forced_strategy(self, profile, analyzed):
        db = _keyed_db(profile, seed=11, analyzed=analyzed)
        hashed = 0
        for sql in KEYED_JOINS:
            auto = sorted(db.execute(sql).rows)
            plan = db.explain(sql)
            hashed += "-> hash" in plan
            assert ("hash=" in plan) is analyzed
            for strategy in ("nlj",) + STRATEGIES:
                db.join_strategy = strategy
                try:
                    assert "-> hash" not in db.explain(sql)
                    assert sorted(db.execute(sql).rows) == auto, (
                        strategy, sql
                    )
                finally:
                    db.join_strategy = "auto"
        # the analyzed run covers the costed hash join, the other never
        assert (hashed > 0) is analyzed

    def test_auto_matches_a_brute_force_oracle(self):
        db = _keyed_db("greenwood", seed=11, analyzed=True)
        sql = KEYED_JOINS[-1]
        assert "-> hash" in db.explain(sql)
        a_rows = db.execute("SELECT id, geom FROM a").rows
        b_rows = db.execute("SELECT id, geom FROM b").rows
        expected = sorted(
            (ia, ib)
            for ia, ga in a_rows
            for ib, gb in b_rows
            if ia == ib and de9im.evaluate("intersects", ga, gb)
        )
        assert expected
        assert sorted(db.execute(sql).rows) == expected

    def test_distinct_counts_come_from_analyze_only(self):
        db = _keyed_db("greenwood", seed=11, analyzed=False)
        stats = db.catalog.table("a").stats
        assert stats.distinct == {}
        db.execute("ANALYZE a")
        # NULL is not a value; the geometry column has no count
        assert stats.distinct == {"id": 160, "k": 5, "name": 3}
        db.execute("INSERT INTO a VALUES (99, 99, 'new', NULL)")
        assert stats.distinct["k"] == 5  # not maintained incrementally

    def test_composite_key_is_one_hash_join(self):
        db = _keyed_db("bluestem", seed=11, analyzed=True)
        sql = "SELECT a.id, b.id FROM a JOIN b ON a.name = b.name AND b.k = a.k"
        plan = db.explain(sql)
        assert plan.count("Join") == 1
        assert "HashJoin a.name = b.name AND a.k = b.k" in plan
        a_rows = db.execute("SELECT id, name, k FROM a").rows
        b_rows = db.execute("SELECT id, name, k FROM b").rows
        # a NULL in either part of the key matches nothing
        expected = sorted(
            (ia, ib)
            for ia, na, ka in a_rows
            for ib, nb, kb in b_rows
            if None not in (na, ka, nb, kb) and (na, ka) == (nb, kb)
        )
        assert expected
        assert sorted(db.execute(sql).rows) == expected


class TestResidualBeforeRefine:
    #: the outer side read through its index, or packed behind a filter
    @pytest.mark.parametrize("outer", ("", " WHERE a.id >= 0"),
                             ids=("tree", "packed"))
    def test_rejected_pairs_are_never_refined(self, monkeypatch, outer):
        db = _keyed_db("greenwood", seed=11, analyzed=True)
        refined = []
        exact = de9im.evaluator

        def counting(name, *run, **options):
            test = exact(name, *run, **options)

            def counted(other):
                refined.append(name)
                return test(other)

            return counted

        monkeypatch.setattr(de9im, "evaluator", counting)
        db.join_strategy = "tree"
        base = (
            "SELECT COUNT(*) FROM a JOIN b ON ST_Intersects(a.geom, b.geom)"
            + outer
        )
        plan = db.explain(base)
        assert "-> tree" in plan
        assert ("USING (transient, ib)" in plan) is bool(outer)
        everything = db.execute(base).scalar()
        assert everything and len(refined) >= everything
        refined.clear()
        # a residual over both sides that no pair passes
        residual = " AND " if outer else " WHERE "
        assert db.execute(base + residual + "a.id > b.id + 1000").scalar() == 0
        assert refined == []


class TestHashJoinBookkeeping:
    def test_counts_and_ticks_every_probed_pair(self):
        db = Database("greenwood")
        db.execute("CREATE TABLE l (id INTEGER, k INTEGER)")
        db.execute("CREATE TABLE r (id INTEGER, k INTEGER)")
        db.insert_rows("l", [(i, i % 3) for i in range(30)])
        db.insert_rows("r", [(i, i % 2) for i in range(20)])
        # keys 0 and 1 each meet 10 rows a side: 2 * 10 * 10 pairs probed
        probed = 200
        plan, _names = db._planner.plan_select(parse(
            "SELECT l.id, r.id FROM l JOIN r ON l.k = r.k WHERE l.id < r.id"
        ))
        assert "HashJoin" in "\n".join(plan.explain())
        stats = Stats()
        guard = ExecutionGuard()
        ctx = ExecContext((), db.profile, db.registry, db.catalog, stats,
                          guard)
        emitted = sum(batch.size for batch in plan.batches(ctx))
        assert stats.join_pairs_considered >= probed
        assert stats.join_pairs_emitted == emitted > 0
        # 50 rows scanned by the two inputs, the probed pairs by the join
        assert stats.rows_scanned >= 50 + probed
        assert guard.rows_processed >= 50 + probed

    def test_cancel_fires_inside_a_wide_probe(self):
        class CancelledAfterFirstCheck(CancelToken):
            checks = 0

            @property
            def cancelled(self):
                self.checks += 1
                return self.checks > 1

        db = Database("greenwood")
        db.execute("CREATE TABLE l (id INTEGER, k INTEGER)")
        db.insert_rows("l", [(i, 0) for i in range(100)])
        plan, _names = db._planner.plan_select(parse(
            "SELECT COUNT(*) FROM l a JOIN l b ON a.k = b.k"
        ))
        # the two scans tick 200 rows, under one check interval; only the
        # 10 000 pairs probed from the one key reach the second check
        guard = ExecutionGuard(cancel=CancelledAfterFirstCheck())
        ctx = ExecContext((), db.profile, db.registry, db.catalog, Stats(),
                          guard)
        with pytest.raises(QueryCancelledError):
            for _batch in plan.batches(ctx):
                pass


# -- the frozen J-T1 matrix --------------------------------------------------

#: the J-T1 cells' join strategy after ``ANALYZE`` on bluestem at scale
#: 0.25 and greenwood at scale 0.5, the same before distinct counts
#: existed except ``line_touches_line`` (``tree`` then): its equality keys
#: on street name and county now win the cost comparison. The tree join
#: packs the filtered outer of ``line_within_polygon`` and
#: ``line_overlaps_line``
JT1_STRATEGIES = {
    "polygon_equals_polygon": "tree",
    "polygon_disjoint_polygon": "NestedLoopJoin",
    "polygon_intersects_polygon": "tree",
    "polygon_touches_polygon": "tree",
    "polygon_within_polygon": "tree",
    "polygon_contains_polygon": "tree",
    "polygon_overlaps_polygon": "tree",
    "line_intersects_polygon": "tree",
    "line_crosses_polygon": "tree",
    "line_within_polygon": "tree",
    "polygon_contains_line": "tree",
    "line_touches_polygon": "tree",
    "line_intersects_line": "tree",
    "line_crosses_line": "tree",
    "line_overlaps_line": "tree",
    "line_touches_line": "hash",
    "point_within_polygon": "tree",
    "polygon_contains_point": "tree",
    "point_intersects_polygon": "tree",
    "point_intersects_line": "tree",
    "point_equals_point": "tree",
    "region_intersects_polygon": "Filter",
    "region_intersects_line": "Filter",
    "region_contains_point": "Filter",
}


@pytest.mark.parametrize("profile, scale", [("bluestem", 0.25),
                                            ("greenwood", 0.5)])
def test_jt1_strategies_after_analyze(profile, scale):
    db = Database(profile)
    generate(seed=42, scale=scale).load_into(db)
    db.execute("ANALYZE")
    got = {}
    for query in topology_queries():
        plan = db.explain(query.sql)
        choice = re.search(r"-> (\w+)", plan)
        got[query.query_id[len("topo."):]] = (
            choice.group(1) if choice else plan.splitlines()[2].split()[0]
        )
    assert got == JT1_STRATEGIES
    line_touches_line = next(
        q.sql for q in topology_queries()
        if q.query_id == "topo.line_touches_line"
    )
    plan = db.explain(line_touches_line)
    assert "HashJoin a.fullname = b.fullname AND a.county_fips = " \
        "b.county_fips spatial cost(hash=" in plan
    # street names x counties outnumber the edges, so the key-matching
    # pairs estimate clamps at one partner per row
    edges = db.catalog.table("edges")
    stats = edges.stats.distinct
    n = len(edges)
    assert stats["fullname"] * stats["county_fips"] > n
    hash_cost = float(re.search(r"hash=(\d+)", plan).group(1))
    assert hash_cost == round(_COST_HASH_ROW * 2 * n + _COST_HASH_PAIR * n)
