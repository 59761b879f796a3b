"""The one refinement kernel: mask-directed evaluation equals the full
matrix, the bounds filters lose nothing, and they stay in place.

The seeded cases are the degenerate configurations JedAI-spatial's
verification step is tested on (touching at a vertex, a shared collinear
edge, a nested hole, a point on a boundary).
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import predicates
from repro.algorithms.de9im import PREDICATES, evaluate, relate
from repro.algorithms.location import MIN_X, Prepared, box_pairs, prepare
from repro.core.micro.topology import topology_queries
from repro.datagen import generate
from repro.engines import Database
from repro.engines.profiles import BLUESTEM, GREENWOOD, IRONBARK
from repro.geometry import (
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
)
from tests.test_property_geometry import (
    any_polygon,
    coords,
    linestrings,
    points,
)

SQUARE = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
DONUT = Polygon(
    [(0, 0), (10, 0), (10, 10), (0, 10)], holes=[[(3, 3), (7, 3), (7, 7), (3, 7)]]
)


def _zigzag(n, y0, amplitude):
    return LineString([(float(i), y0 + amplitude * (i % 2)) for i in range(n + 1)])


#: 70 x 70 = 4 900 segment pairs, above the old all-pairs threshold
LONG_A, LONG_B = _zigzag(70, 0.0, 2.0), _zigzag(70, 1.5, -2.0)


@st.composite
def multis(draw):
    """Multi-geometries with parts 200 apart, so areal parts never overlap."""
    kind = draw(st.sampled_from(["point", "line", "polygon"]))
    if kind == "point":
        return MultiPoint(draw(st.lists(coords, min_size=1, max_size=4, unique=True)))
    first = draw(linestrings() if kind == "line" else any_polygon)
    second = draw(linestrings() if kind == "line" else any_polygon)

    def moved(ring):
        return [(x + 200.0, y) for x, y in ring]

    if kind == "line":
        return MultiLineString([first, LineString(moved(second.coords))])
    return MultiPolygon([first, Polygon(moved(second.shell))])


operands = st.one_of(points(), linestrings(), any_polygon, multis())


@given(operands, operands)
@example(SQUARE, Polygon([(10, 10), (20, 10), (20, 20), (10, 20)]))  # vertex touch
@example(SQUARE, Polygon([(10, 0), (20, 0), (20, 10), (10, 10)]))  # shared edge
@example(SQUARE, Polygon([(0, 0), (5, 0), (5, 5), (0, 5)]))  # shared edges, inside
@example(DONUT, Polygon([(4, 4), (6, 4), (6, 6), (4, 6)]))  # nested in the hole
@example(DONUT, Polygon([(3, 3), (7, 3), (7, 7), (3, 7)]))  # filling the hole
@example(Point(5, 0), SQUARE)  # point on boundary
@example(Point(3, 5), DONUT)  # point on the hole's ring
@example(LineString([(0, 0), (10, 0)]), SQUARE)  # line along an edge
@example(LineString([(0, 0), (5, 0)]), LineString([(5, 0), (5, 5)]))  # end to end
@example(LineString([(0, 0), (6, 0)]), LineString([(4, 0), (9, 0)]))  # collinear
@example(MultiPoint([(5, 5), (20, 20)]), SQUARE)
@example(LONG_A, LONG_B)
@example(LONG_A, LONG_A)
# the exact reject: no segment box meets the other, a vertex per member decides
@example(LineString([(4, 4), (6, 5)]), SQUARE)  # wholly inside, off the ring
@example(LineString([(4, 4), (6, 6)]), DONUT)  # inside the hole
@example(  # the second part contains the other operand
    MultiPolygon([Polygon([(20, 0), (30, 0), (30, 10), (20, 10)]), SQUARE]),
    Polygon([(4, 4), (6, 4), (6, 6), (4, 6)]),
)
@example(  # an L whose envelope covers the square, none of its segment boxes
    LineString([(0, 20), (0, 0), (20, 0)]),
    Polygon([(5, 5), (10, 5), (10, 10), (5, 10)]),
)
@example(GeometryCollection([Point(5, 5), LineString([(20, 20), (30, 30)])]), SQUARE)
@settings(max_examples=150, deadline=None)
def test_every_predicate_equals_its_mask_over_the_full_matrix(a, b):
    full = {name: evaluate(name, a, b, every_cell=True) for name in PREDICATES}
    for name, expected in full.items():
        assert evaluate(name, a, b) == expected, name
    # the table's rules against the matrix itself, for the fixed-mask relations
    matrix, reverse = relate(a, b), relate(b, a)
    assert matrix.transpose() == reverse
    assert full["disjoint"] == matrix.matches("FF*FF****") == (not full["intersects"])
    assert full["within"] == matrix.matches("T*F**F***") == evaluate("contains", b, a)
    assert full["contains"] == reverse.matches("T*F**F***")
    assert full["coveredby"] == evaluate("covers", b, a)


@given(
    st.lists(operands, min_size=1, max_size=3),
    st.lists(operands, min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=10),
    st.sampled_from([None, 0, 1]),
    st.sampled_from(sorted(PREDICATES)),
)
@settings(max_examples=60, deadline=None)
def test_refine_over_runs_equals_each_pair(lefts, rights, picks, run_side, name):
    """A batch shares operands the way a join hands them over (an outer
    row and its run of candidates); index 3 is a NULL."""
    if run_side is not None:
        picks = sorted(picks, key=lambda pick: pick[run_side])
    firsts = [lefts[i] if i < len(lefts) else None for i, _j in picks]
    seconds = [rights[j] if j < len(rights) else None for _i, j in picks]
    predicate = f"st_{name}"
    for profile in (GREENWOOD, BLUESTEM, IRONBARK):
        if predicate in profile.unsupported:
            continue
        expected = [
            None if a is None or b is None
            else profile.evaluate_predicate(predicate, a, b)
            for a, b in zip(firsts, seconds)
        ]
        assert profile.refine(predicate, firsts, seconds) == expected, profile.name


def test_sweep_enumerates_every_pair_whose_boxes_meet():
    everywhere = (-math.inf, -math.inf, math.inf, math.inf)
    segs_a, segs_b = (prepare(g).segments_in(*everywhere) for g in (LONG_A, LONG_B))
    # the order the sweep relies on, sorted once by the prepared geometry
    assert segs_a == sorted(segs_a, key=MIN_X) and segs_b == sorted(segs_b, key=MIN_X)
    assert len(segs_a) * len(segs_b) > 4096
    brute = {
        (s, t)
        for s in segs_a
        for t in segs_b
        if s[4] <= t[6] and t[4] <= s[6] and s[5] <= t[7] and t[5] <= s[7]
    }
    swept = list(box_pairs(segs_a, segs_b, 0.0))
    assert len(swept) == len(set(swept))  # each pair once
    assert set(swept) == brute
    assert len(brute) < 400  # and far fewer than all 4 900


def test_shared_boundary_sides_are_classified_without_a_probe_distance():
    # Two slivers on one base line, the thinner one narrower than the old
    # perpendicular probe (piece length x 1e-3 = 0.01) reached.
    thin = Polygon([(0, 0), (10, 0), (10, 0.001), (0, 0.001)])
    thick = Polygon([(0, 0), (10, 0), (10, 0.002), (0, 0.002)])
    assert str(relate(thin, thick)) == "2FF11F212"
    assert str(relate(thick, thin)) == "212F11FF2"
    assert evaluate("covers", thick, thin) and evaluate("coveredby", thin, thick)
    assert evaluate("within", thin, thick)


@pytest.fixture(scope="module")
def scale_01():
    return generate(seed=42, scale=0.1)


def _run(engine, dataset, queries):
    db = Database(engine)
    dataset.load_into(db, create_indexes=True)
    return {q.query_id: db.execute(q.sql).rows for q in queries}


def test_greenwood_and_ironbark_agree_on_all_of_jt1(scale_01):
    queries = topology_queries()
    assert len(queries) == 24
    assert _run("greenwood", scale_01, queries) == _run("ironbark", scale_01, queries)


#: orientation tests and point locations spent refining the four J-T1
#: line x line cells at scale 0.1, seed 42 (427 686 orientations before the
#: bounds filters, 2 435 locations before the exact reject). The counts are
#: exact, so host noise cannot move them, and a lost filter or a lost reject
#: multiplies them.
LINE_LINE_ORIENTATIONS = 1913
LINE_LINE_LOCATES = 1667


def test_line_line_refinement_stays_bounds_filtered(scale_01, monkeypatch):
    queries = [
        q for q in topology_queries()
        if q.query_id.split(".")[1] in (
            "line_intersects_line", "line_crosses_line",
            "line_overlaps_line", "line_touches_line",
        )
    ]
    assert len(queries) == 4
    calls = locates = 0
    orientation = predicates.orientation
    locate = Prepared.locate

    def counted(a, b, c):
        nonlocal calls
        calls += 1
        return orientation(a, b, c)

    def counted_locate(prepared, p):
        nonlocal locates
        locates += 1
        return locate(prepared, p)

    monkeypatch.setattr(predicates, "orientation", counted)
    monkeypatch.setattr(Prepared, "locate", counted_locate)
    _run("greenwood", scale_01, queries)
    assert 0 < calls <= LINE_LINE_ORIENTATIONS
    assert 0 < locates <= LINE_LINE_LOCATES
