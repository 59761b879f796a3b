"""The one MBR table (``repro.engines.profiles.MBR_TESTS``), property-tested.

The table is the whole verdict of the MBR-only ``bluestem`` profile, the
test its spatial joins fuse into their candidate loops, and the degraded
verdict of the exact profiles. Boxes come from a small integer grid so
the degenerate cases are common: points, zero-width and zero-height
boxes, shared edges, identical boxes, and nested boxes touching the
boundary.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engines import Database
from repro.engines.profiles import BLUESTEM, GREENWOOD, MBR_TESTS, EngineProfile
from repro.errors import TopologyError
from repro.faults import injected
from repro.geometry import wkt
from repro.geometry.base import Envelope
from repro.sql.executor import Stats
from repro.sql.functions import SPATIAL_PREDICATES

#: forced join strategies; "packed" is the tree join with its outer
#: side filtered, which it packs into a transient R-tree
STRATEGIES = ("inlj", "tree", "packed", "nlj")
#: every predicate bluestem answers, plus the '&&' operator
BLUESTEM_PREDICATES = sorted(SPATIAL_PREDICATES - BLUESTEM.unsupported) + ["&&"]
OPERATORS = {
    "inlj": "IndexNestedLoopJoin",
    "tree": "SpatialTreeJoin a AS a x b AS b",
    "packed": "SpatialTreeJoin Filter x b AS b USING (transient, b_g)",
    "nlj": "NestedLoopJoin",
}


def _forced(db: Database, strategy: str, sql: str) -> str:
    """Force ``strategy`` on ``db``; ``sql`` in the form it runs."""
    if strategy == "packed":
        db.join_strategy = "tree"
        return sql + " WHERE a.id >= 0"
    db.join_strategy = strategy
    return sql


def _shape(box) -> str:
    """A geometry whose envelope is ``box``: a point, a horizontal or
    vertical segment, or a rectangle."""
    x0, y0, x1, y1 = box
    if x0 == x1 and y0 == y1:
        return f"POINT({x0} {y0})"
    if x0 == x1 or y0 == y1:
        return f"LINESTRING({x0} {y0}, {x1} {y1})"
    return f"POLYGON(({x0} {y0}, {x1} {y0}, {x1} {y1}, {x0} {y1}, {x0} {y0}))"


boxes = st.builds(
    lambda x, y, w, h: (x, y, x + w, y + h),
    st.integers(0, 5), st.integers(0, 5), st.integers(0, 3), st.integers(0, 3),
)


def _reference(name: str, a: Envelope, b: Envelope) -> bool:
    """The box relations, restated from interval arithmetic."""
    meet = (a.min_x <= b.max_x and b.min_x <= a.max_x
            and a.min_y <= b.max_y and b.min_y <= a.max_y)
    strict = (a.min_x < b.max_x and b.min_x < a.max_x
              and a.min_y < b.max_y and b.min_y < a.max_y)
    a_in_b = (b.min_x <= a.min_x and a.max_x <= b.max_x
              and b.min_y <= a.min_y and a.max_y <= b.max_y)
    b_in_a = (a.min_x <= b.min_x and b.max_x <= a.max_x
              and a.min_y <= b.min_y and b.max_y <= a.max_y)
    return {
        "st_equals": a_in_b and b_in_a,
        "st_disjoint": not meet,
        "st_intersects": meet,
        "st_touches": meet and not strict,
        "st_within": a_in_b,
        "st_coveredby": a_in_b,
        "st_contains": b_in_a,
        "st_covers": b_in_a,
        "st_overlaps": meet and not a_in_b and not b_in_a,
        "st_crosses": meet and not a_in_b and not b_in_a,
    }[name]


CORNERS = [
    ((1, 1, 3, 3), (1, 1, 3, 3)),  # identical
    ((0, 0, 2, 2), (2, 0, 4, 2)),  # shared edge
    ((0, 0, 2, 2), (2, 2, 4, 4)),  # shared corner
    ((0, 0, 4, 4), (0, 1, 2, 3)),  # nested, touching the boundary
    ((0, 0, 4, 4), (1, 1, 2, 2)),  # strictly nested
    ((2, 2, 2, 2), (0, 0, 2, 2)),  # point on a corner
    ((2, 0, 2, 3), (0, 0, 2, 3)),  # zero-width box on an edge
    ((0, 1, 3, 1), (1, 0, 2, 4)),  # zero-height box crossing
    ((1, 1, 1, 1), (1, 1, 1, 1)),  # identical points
]


@pytest.mark.parametrize("name", sorted(MBR_TESTS))
@given(a=boxes, b=boxes)
@settings(max_examples=150, deadline=None)
def test_table_matches_the_box_relations(name, a, b):
    ea, eb = Envelope(*a), Envelope(*b)
    verdict = EngineProfile.envelope_test(name)(ea, eb)
    assert verdict == _reference(name, ea, eb)
    # swapped argument order reads the converse entry
    assert EngineProfile.envelope_test(name, swapped=True)(eb, ea) == verdict


@pytest.mark.parametrize("a, b", CORNERS)
def test_corner_cases(a, b):
    ea, eb = Envelope(*a), Envelope(*b)
    for name in MBR_TESTS:
        assert MBR_TESTS[name](ea, eb) == _reference(name, ea, eb), name
        assert MBR_TESTS[name](eb, ea) == _reference(name, eb, ea), name


def _load(profile: str, left, right, kind: str = "rtree") -> Database:
    db = Database(profile)
    for table, rows in (("a", left), ("b", right)):
        db.execute(f"CREATE TABLE {table} (id INTEGER, g GEOMETRY)")
        db.insert_rows(table, [(i, _shape(box)) for i, box in enumerate(rows)])
        db.execute(
            f"CREATE SPATIAL INDEX {table}_g ON {table} (g) USING {kind}"
        )
    return db


def _condition(name: str, first: str, second: str) -> str:
    if name == "&&":
        return f"{first}.g && {second}.g"
    return f"{name}({first}.g, {second}.g)"


@pytest.mark.parametrize("kind", ["rtree", "quadtree", "grid"])
@given(
    left=st.lists(boxes, min_size=1, max_size=6),
    right=st.lists(boxes, min_size=1, max_size=6),
)
@example(left=[a for a, _b in CORNERS], right=[b for _a, b in CORNERS])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fused_joins_answer_the_per_pair_verdict(kind, left, right):
    """Every join strategy, in both argument orders and over every index
    kind's batched join (synchronized R-tree and quadtree traversals,
    the generic probe loop, a packed R-tree meeting each kind), returns
    exactly the pairs the scalar per-pair verdict (``evaluate_predicate``)
    accepts."""
    db = _load("bluestem", left, right, kind)
    geoms_a = [wkt.loads(_shape(box)) for box in left]
    geoms_b = [wkt.loads(_shape(box)) for box in right]
    for name in BLUESTEM_PREDICATES:
        for a_first in (True, False):
            def verdict(ga, gb):
                if name == "&&":
                    return ga.envelope.intersects(gb.envelope)
                if a_first:
                    return BLUESTEM.evaluate_predicate(name, ga, gb)
                return BLUESTEM.evaluate_predicate(name, gb, ga)

            want = sorted(
                (i, j)
                for i, ga in enumerate(geoms_a)
                for j, gb in enumerate(geoms_b)
                if verdict(ga, gb)
            )
            condition = (_condition(name, "a", "b") if a_first
                         else _condition(name, "b", "a"))
            sql = f"SELECT a.id, b.id FROM a JOIN b ON {condition}"
            for strategy in STRATEGIES:
                forced = _forced(db, strategy, sql)
                if name != "st_disjoint":  # never indexable
                    assert OPERATORS[strategy] in db.explain(forced)
                got = sorted(db.execute(forced).rows)
                assert got == want, (name, a_first, strategy)


@pytest.mark.parametrize("kind", ["rtree", "quadtree", "grid"])
def test_fused_tree_joins_over_split_indexes(kind):
    """Enough boxes that the trees split (quadtrees then keep straddlers
    at inner nodes and sweep them against subtrees in both orientations)."""
    rng = random.Random(7)
    left = [
        (x, y, x + rng.randint(0, 6), y + rng.randint(0, 6))
        for x, y in ((rng.randint(0, 40), rng.randint(0, 40)) for _ in range(90))
    ]
    right = left[::3] + [
        (x, y, x + rng.randint(0, 12), y + rng.randint(0, 12))
        for x, y in ((rng.randint(0, 40), rng.randint(0, 40)) for _ in range(60))
    ]
    db = _load("bluestem", left, right, kind)
    db.join_strategy = "tree"
    envs_a = [Envelope(*box) for box in left]
    envs_b = [Envelope(*box) for box in right]
    for name in BLUESTEM_PREDICATES:
        if name == "st_disjoint":
            continue
        test = Envelope.intersects if name == "&&" else MBR_TESTS[name]
        for a_first in (True, False):
            want = sorted(
                (i, j)
                for i, ea in enumerate(envs_a)
                for j, eb in enumerate(envs_b)
                if (test(ea, eb) if a_first else test(eb, ea))
            )
            condition = (_condition(name, "a", "b") if a_first
                         else _condition(name, "b", "a"))
            sql = f"SELECT a.id, b.id FROM a JOIN b ON {condition}"
            assert "SpatialTreeJoin" in db.explain(sql)
            assert sorted(db.execute(sql).rows) == want, (name, a_first)


@given(
    left=st.lists(boxes, min_size=1, max_size=5),
    right=st.lists(boxes, min_size=1, max_size=5),
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_degraded_exact_answers_come_from_the_same_table(left, right):
    """With every exact refinement failing, greenwood answers each pair
    from the MBR table — per pair, and through every join strategy
    (where it then agrees with bluestem)."""
    geoms_a = [wkt.loads(_shape(box)) for box in left]
    geoms_b = [wkt.loads(_shape(box)) for box in right]
    exact = _load("greenwood", left, right)
    mbr = _load("bluestem", left, right)
    queries = {
        (name, strategy): (
            "SELECT a.id, b.id FROM a JOIN b ON "
            + _condition(name, "a", "b")
        )
        for name in BLUESTEM_PREDICATES for strategy in STRATEGIES
    }
    want = {}
    for (name, strategy), sql in queries.items():
        want[name, strategy] = sorted(
            mbr.execute(_forced(mbr, strategy, sql)).rows
        )
    with injected("geometry.refine", probability=1.0, error=TopologyError):
        for name in sorted(MBR_TESTS):
            stats = Stats()
            firsts = [ga for ga in geoms_a for _gb in geoms_b]
            seconds = [gb for _ga in geoms_a for gb in geoms_b]
            assert GREENWOOD.refine(name, firsts, seconds, stats) == [
                MBR_TESTS[name](ga.envelope, gb.envelope)
                for ga, gb in zip(firsts, seconds)
            ]
            assert stats.degraded_results == len(firsts)
        for (name, strategy), sql in queries.items():
            forced = _forced(exact, strategy, sql)
            assert sorted(exact.execute(forced).rows) == want[name, strategy], (
                name, strategy,
            )
