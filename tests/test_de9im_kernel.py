"""The one refinement kernel: mask-directed evaluation equals the full
matrix, the bounds filters lose nothing, and they stay in place.

The seeded cases are the degenerate configurations JedAI-spatial's
verification step is tested on (touching at a vertex, a shared collinear
edge, a nested hole, a point on a boundary).
"""

import math
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.algorithms import de9im, predicates
from repro.algorithms.convexhull import convex_hull_coords
from repro.algorithms.de9im import PREDICATES, evaluate, evaluator, relate
from repro.algorithms.location import MIN_X, Prepared, box_pairs, prepare
from repro.core.micro.topology import topology_queries
from repro.datagen import generate
from repro.engines import Database
from repro.engines.profiles import BLUESTEM, GREENWOOD, IRONBARK
from repro.errors import GeometryError
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


# ---------------------------------------------------------------------------
# the rectangle case: a window shared by a run, decided from its bounds
# ---------------------------------------------------------------------------

WINDOW = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
#: the window's own tolerance (1e-9 of its largest coordinate)
TOL = WINDOW.envelope.tolerance()
#: the window's predicates with the window as the run's shared operand:
#: (name, the window is the first argument)
WINDOW_RUNS = (
    ("intersects", False), ("intersects", True),
    ("disjoint", False), ("disjoint", True),
    ("within", False), ("contains", True),
)


#: a window narrower than two of its tolerances (the band), and a unit one
NARROW = Polygon([(0, 0), (1e-10, 0), (1e-10, 1), (0, 1)])
UNIT = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


@st.composite
def window_pairs(draw):
    """A rectangle and an operand near it: coordinates on its edges, on
    the grid around it, within a few tolerances either side of an edge, and
    far away (a vertex at 1e9 makes the operand's own tolerance the band).
    The window is whole numbers wide, or a few tolerances; near the origin,
    or a million away, where a tolerance is 1e-3."""
    offset = draw(st.sampled_from([0.0, 0.0, 1e6]))
    unit = 1e-9 * max(offset, 1.0)  # a tolerance there, about

    def side(narrow):
        lo = offset + draw(st.integers(-20, 20))
        if narrow:
            return lo, lo + draw(st.sampled_from([0.5, 1, 2, 3, 5])) * unit
        return lo, lo + draw(st.integers(1, 40))

    narrow = draw(st.sampled_from(["", "", "x", "y"]))  # one side at most: area
    (x0, x1), (y0, y1) = side(narrow == "x"), side(narrow == "y")
    window = Polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
    tol = window.envelope.tolerance()

    def value(lo, hi, near=True):
        return st.one_of(
            st.sampled_from([lo, hi] if near or hi - lo >= 1 else [lo]),
            st.integers(-30, 30).map(lambda k: offset + k),
            st.builds(
                lambda edge, k: edge + k * tol,
                st.sampled_from([lo, hi]), st.sampled_from([-4, -2, -1, -0.5, 0.5, 1, 2, 4]),
            ) if near else st.nothing(),
            st.sampled_from([-1e9, 1e9]) if near else st.nothing(),
        )

    coord = st.tuples(value(x0, x1), value(y0, y1))
    # polygon corners stay on the grid (one edge of a narrow side): a
    # sliver a tolerance wide has no interior point for the full matrix
    corner = st.tuples(value(x0, x1, near=False), value(y0, y1, near=False))

    def polygon(moved=0.0):
        hull = convex_hull_coords(draw(st.lists(corner, min_size=3, max_size=6, unique=True)))
        try:
            return Polygon([(x + moved, y) for x, y in hull])
        except GeometryError:  # fewer than three corners, or no area
            assume(False)

    kind = draw(st.sampled_from(
        ["point", "line", "polygon", "hole", "multipoint", "multiline", "multipolygon"]
    ))
    if kind == "point":
        return window, Point(*draw(coord))
    if kind == "multipoint":
        return window, MultiPoint(draw(st.lists(coord, min_size=1, max_size=3, unique=True)))
    if kind in ("line", "multiline"):
        lines = [draw(st.lists(coord, min_size=2, max_size=5, unique=True))
                 for _ in range(1 if kind == "line" else 2)]
        return window, LineString(lines[0]) if kind == "line" else MultiLineString(lines)
    if kind == "polygon":
        return window, polygon()
    if kind == "multipolygon":
        return window, MultiPolygon([polygon(), polygon(moved=200.0)])
    # a hole in a shell around everything: the hole drawn, or the window
    # widened by a few tolerances (or by none)
    if draw(st.booleans()):
        hole = polygon().shell
    else:
        e = draw(st.sampled_from([0.0, 0.5, 2.0, 4.0])) * tol
        hole = [(x0 - e, y0 - e), (x1 + e, y0 - e), (x1 + e, y1 + e), (x0 - e, y1 + e)]
    o = offset
    shell = [(o - 40, -40 + o), (o + 40, -40 + o), (o + 40, o + 40), (o - 40, o + 40)]
    return window, Polygon(shell, holes=[hole])


@given(window_pairs())
# the window's edges and corners shared
@example((WINDOW, LineString([(0, 0), (10, 0)])))
@example((WINDOW, Polygon([(10, 0), (20, 0), (20, 10), (10, 10)])))
@example((WINDOW, Polygon([(10, 10), (20, 10), (20, 20), (10, 20)])))
@example((WINDOW, MultiPoint([(10, 10), (20, 20)])))
# a point on an edge
@example((WINDOW, Point(5, 0)))
@example((WINDOW, Point(0, 5)))
# a segment within the tolerance of an edge, inside and outside it
@example((WINDOW, LineString([(-5, 0.5 * TOL), (15, 0.5 * TOL)])))
@example((WINDOW, LineString([(-5, -0.5 * TOL), (15, -0.5 * TOL)])))
@example((WINDOW, LineString([(-5, -2 * TOL), (15, -2 * TOL)])))
@example((WINDOW, LineString([(5, -5), (10 + 0.5 * TOL, 5), (5, 15)])))
# a hole containing the whole window, or exactly the window
@example((WINDOW, Polygon(
    [(-10, -10), (20, -10), (20, 20), (-10, 20)],
    holes=[[(-1, -1), (11, -1), (11, 11), (-1, 11)]],
)))
@example((WINDOW, Polygon(
    [(-10, -10), (20, -10), (20, 20), (-10, 20)],
    holes=[[(0, 0), (10, 0), (10, 10), (0, 10)]],
)))
@example((WINDOW, Polygon([(-10, -10), (20, -10), (20, 20), (-10, 20)])))
# a window narrower than two tolerances: nothing lies inside it shrunk
@example((NARROW, LineString([(1.5e-9, -5), (1.6e-9, 5)])))
@example((NARROW, LineString([(5e-11, -5), (5e-11, 5)])))
@example((NARROW, Point(5e-11, 0.5)))
# an operand reaching 1e9 beside a unit window: its tolerance is the band
@example((UNIT, LineString([(1.5, -1e9), (1.5, 1e9)])))
@example((UNIT, LineString([(0.5, -1e9), (0.5, 1e9)])))
@example((UNIT, LineString([(1e9, 0.5), (3, 0.5), (3, 3)])))
@example((WINDOW, LineString([(-1e9, 5), (-1, 5), (-1, 20)])))
@settings(max_examples=300, deadline=None)
def test_rectangle_case_equals_the_full_matrix(pair):
    window, g = pair
    for name, window_first in WINDOW_RUNS:
        a, b = (window, g) if window_first else (g, window)
        expected = evaluate(name, a, b, every_cell=True)
        assert evaluator(name, window, not window_first)(g) == expected, name
        assert evaluate(name, a, b) == expected, name


def _tallied(monkeypatch):
    """Count the pairs the rectangle case decides, by the rule that
    decided each, and the pairs it passes to the kernel."""
    rules = Counter()
    rectangle = de9im._rectangle

    def tallied(*args):
        decide = rectangle(*args)
        if decide is None:
            return None

        def tally(g):
            verdict = decide(g)
            rules[verdict[0] if verdict else "kernel"] += 1
            return verdict

        return tally

    monkeypatch.setattr(de9im, "_rectangle", tallied)
    return rules


def test_rectangle_rules_decide_the_seeded_pairs(monkeypatch):
    rules = _tallied(monkeypatch)
    cases = {
        "envelope": Point(5, 5),
        "vertex": LineString([(-5, 5), (5, 5)]),
        "clip": LineString([(-5, 5), (15, 5)]),
        "corner": Polygon([(-10, -10), (40, -10), (-10, 40)]),
        "kernel": LineString([(-5, 0.5 * TOL), (15, 0.5 * TOL)]),
    }
    for rule, g in cases.items():
        rules.clear()
        assert evaluate("intersects", g, WINDOW)
        assert rules == {rule: 1}, rule
    rules.clear()
    assert not evaluate("intersects", LineString([(-5, 4), (4, -5)]), WINDOW)  # past a corner
    assert not evaluate("within", Point(5, 11), WINDOW)
    assert evaluate("within", Point(5, 5), WINDOW)
    assert rules == {"clip": 1, "vertex": 1, "envelope": 1}


#: window reads at scale 0.1, seed 42 (a 20 km window on each layer, and a
#: 1 km one inside a county), their answers, the ``Prepared`` objects they
#: build, and the pairs each rectangle rule decided or passed to the kernel.
#: The counts are exact, so host noise cannot move them. Before the
#: rectangle case the same reads built 32: 27 for candidates and one per
#: read for its window.
WINDOW_READS = (
    ("edges", "20000, 20000, 40000, 40000"),
    ("pointlm", "20000, 20000, 40000, 40000"),
    ("arealm", "20000, 20000, 40000, 40000"),
    ("counties", "20000, 20000, 40000, 40000"),
    ("counties", "30000, 50000, 31000, 51000"),
)
WINDOW_READ_COUNTS = [19, 5, 2, 7, 1]
WINDOW_READ_PREPARED = 0
WINDOW_READ_RULES = {"envelope": 14, "vertex": 18, "clip": 2, "corner": 1}


def test_window_reads_prepare_only_what_falls_through(monkeypatch):
    dataset = generate(seed=42, scale=0.1)  # its own: no geometry prepared yet
    db = Database("greenwood")
    dataset.load_into(db, create_indexes=True)
    rules = _tallied(monkeypatch)
    built = 0
    init = Prepared.__init__

    def counted(prepared, geom):
        nonlocal built
        built += 1
        init(prepared, geom)

    monkeypatch.setattr(Prepared, "__init__", counted)
    counts = [
        db.execute(
            f"SELECT COUNT(*) FROM {table} "
            f"WHERE ST_Intersects(geom, ST_MakeEnvelope({window}))"
        ).rows[0][0]
        for table, window in WINDOW_READS
    ]
    assert counts == WINDOW_READ_COUNTS
    assert built == WINDOW_READ_PREPARED
    assert dict(rules) == WINDOW_READ_RULES


def test_a_one_row_window_read_takes_the_rectangle_case(monkeypatch):
    """A batch of one pair is a run of one: it is set up on the window,
    not on the row."""
    rules = _tallied(monkeypatch)
    cases = [
        LineString([(-5, 5), (5, 5)]),
        LineString([(-5, -5), (-1, 20)]),
        Point(10, 3),
        Polygon([(-10, -10), (40, -10), (-10, 40)]),
    ]
    for g in cases:
        expected = evaluate("intersects", g, WINDOW, every_cell=True)
        for engine in ("greenwood", "ironbark"):
            db = Database(engine)
            db.execute("CREATE TABLE t (id INTEGER, geom GEOMETRY)")
            db.execute(f"INSERT INTO t VALUES (1, ST_GeomFromText('{g.wkt()}'))")
            rules.clear()
            got = db.execute(
                "SELECT COUNT(*) FROM t "
                "WHERE ST_Intersects(geom, ST_MakeEnvelope(0, 0, 10, 10))"
            ).rows[0][0]
            assert got == int(expected), (engine, g.wkt())
            # the full matrix of ironbark never takes the case
            assert sum(rules.values()) == (engine == "greenwood"), engine
        assert GREENWOOD.evaluate_predicate("st_intersects", g, WINDOW) == expected
    assert de9im.shares_first(WINDOW, Point(1, 1))
    assert not de9im.shares_first(Point(1, 1), WINDOW)
