"""Trace-span tests: span-tree shape, row counts and monotonic timings
for every spatial join strategy under every engine profile, hook firing
and the plan cache under observation."""

import random

import pytest

from repro.datagen import generate, shapes
from repro.engines import Database
from repro.geometry import Point

PROFILES = ("greenwood", "bluestem", "ironbark")
#: "packed" is the tree join over a filtered outer, which it packs
STRATEGIES = ("inlj", "tree", "packed", "nlj")

#: the operator each forced strategy must plan
STRATEGY_OPERATOR = {
    "inlj": "IndexNestedLoopJoin",
    "tree": "SpatialTreeJoin",
    "packed": "SpatialTreeJoin",
    "nlj": "NestedLoopJoin",
}

JOIN_SQL = (
    "SELECT COUNT(*) FROM a JOIN b ON ST_Intersects(a.geom, b.geom)"
)


def _random_layer(rng, count, world):
    geoms = []
    for i in range(count):
        cx = rng.uniform(0.0, world)
        cy = rng.uniform(0.0, world)
        if i % 2:
            geoms.append(
                shapes.radial_polygon(
                    rng, (cx, cy), rng.uniform(world / 30, world / 10)
                )
            )
        else:
            geoms.append(Point(cx, cy))
    return geoms


def _build_db(profile, seed=11, n_a=30, n_b=40):
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
    db.execute("CREATE SPATIAL INDEX a_ix ON a (geom)")
    db.execute("CREATE SPATIAL INDEX b_ix ON b (geom)")
    db.execute("ANALYZE")
    return db


def _trace_join(profile, strategy):
    db = _build_db(profile)
    packed = strategy == "packed"
    db.join_strategy = "tree" if packed else strategy
    db.obs.enable_tracing()
    result = db.execute(JOIN_SQL + (" WHERE a.id >= 0" if packed else ""))
    return db, result, db.last_trace()


class TestJoinStrategySpans:
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_span_tree_shape(self, profile, strategy):
        _db, result, trace = _trace_join(profile, strategy)
        assert trace is not None and trace.root is not None
        ops = [span.op for _depth, span in trace.root.walk()]
        assert ops[0] == "Project"
        assert "Aggregate" in ops
        assert STRATEGY_OPERATOR[strategy] in ops
        if strategy == "packed":
            # the packed side's plan is the join's child span
            join = trace.root.find("SpatialTreeJoin")
            assert [child.op for child in join.children] == ["Filter"]
        # the COUNT(*) query emits exactly one output row from the root
        assert trace.root.rows == 1
        assert trace.rows == 1
        assert result.scalar() is not None

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_row_counts_and_counters(self, profile, strategy):
        db, result, trace = _trace_join(profile, strategy)
        join_span = trace.root.find(STRATEGY_OPERATOR[strategy])
        # the join's emitted rows are what COUNT(*) aggregated
        assert join_span.rows == result.scalar()
        if strategy != "nlj":
            # statement-level counter deltas must agree with the span tree
            assert (
                trace.counters.get("join_pairs_emitted", 0)
                == join_span.counters.get("join_pairs_emitted", 0)
            )
            assert (
                join_span.counters.get("join_pairs_emitted", 0)
                == join_span.rows
            )

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_monotonic_timings(self, profile, strategy):
        _db, _result, trace = _trace_join(profile, strategy)
        for _depth, span in trace.root.walk():
            assert span.seconds >= 0.0
            assert span.exclusive_seconds >= 0.0
            # inclusive parent time covers each child's inclusive time
            for child in span.children:
                assert span.seconds >= child.seconds - 1e-9
        assert trace.seconds >= trace.root.seconds - 1e-9


class TestHooksAndSlowQueries:
    def test_query_hooks_fire(self):
        db = _build_db("greenwood")
        events = []
        db.obs.on_query_start(lambda sql, params: events.append(("start", sql)))
        db.obs.on_query_end(lambda trace: events.append(("end", trace.sql)))
        db.execute("SELECT COUNT(*) FROM a")
        assert events == [
            ("start", "SELECT COUNT(*) FROM a"),
            ("end", "SELECT COUNT(*) FROM a"),
        ]

    def test_disabled_by_default_and_fast_path(self):
        db = _build_db("greenwood")
        assert db.obs.active is False
        db.execute(JOIN_SQL)
        assert db.last_trace() is None

    def test_non_select_traced_without_spans(self):
        db = _build_db("greenwood")
        db.obs.enable_tracing()
        db.execute("INSERT INTO a VALUES (99, ST_Point(1, 1))")
        trace = db.last_trace()
        assert trace.statement == "Insert"
        assert trace.root is None
        assert trace.rows == 1


class TestObservedPlanCache:
    def test_statements_only_path_still_uses_plan_cache(self):
        db = _build_db("greenwood")
        db.obs.enable_statements()
        before = db.stats.plan_cache_hits
        db.execute("SELECT COUNT(*) FROM a")
        db.execute("SELECT COUNT(*) FROM a")
        assert db.stats.plan_cache_hits == before + 1

    def test_tracing_does_not_poison_plan_cache(self):
        db = _build_db("greenwood")
        query = "SELECT COUNT(*) FROM a"
        first = db.execute(query).scalar()
        db.obs.enable_tracing()
        db.execute(query)
        db.obs.disable_tracing()
        assert db.execute(query).scalar() == first
