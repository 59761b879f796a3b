"""Unit tests for set-theoretic operations (intersection/union/difference/
symmetric difference) across geometry type combinations."""

import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    area,
    buffer,
    clipping,
    de9im,
    difference,
    intersection,
    overlay,
    sym_difference,
    union,
    union_all,
)
from repro.algorithms.buffer import segment_capsule
from repro.engines import Database
from repro.geometry import (
    EMPTY,
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    wkt_dumps,
    wkt_loads,
)


class TestArealIntersection:
    def test_overlapping_squares(self, unit_square, shifted_square):
        got = intersection(unit_square, shifted_square)
        assert got.area() == pytest.approx(25.0)

    def test_disjoint_is_empty(self, unit_square, far_square):
        assert intersection(unit_square, far_square).is_empty

    def test_contained_returns_inner(self, unit_square, inner_square):
        got = intersection(unit_square, inner_square)
        assert got.area() == pytest.approx(4.0)

    def test_identical_returns_same_area(self, unit_square):
        twin = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        assert intersection(unit_square, twin).area() == pytest.approx(100.0)

    def test_shared_edge_returns_line(self, unit_square):
        neighbour = Polygon([(10, 0), (20, 0), (20, 10), (10, 10)])
        got = intersection(unit_square, neighbour)
        assert got.dimension == 1
        assert got.length() == pytest.approx(10.0)

    def test_shared_corner_returns_point(self, unit_square):
        corner = Polygon([(10, 10), (20, 10), (20, 20), (10, 20)])
        got = intersection(unit_square, corner)
        assert isinstance(got, Point)
        assert got == Point(10, 10)

    def test_hole_punch(self, donut):
        # intersecting the donut with a square over the hole: only the rim
        probe = Polygon([(3, 3), (7, 3), (7, 7), (3, 7)])
        got = intersection(donut, probe)
        assert got.dimension <= 1  # hole interior contributes no area

    def test_concave_intersection(self):
        concave = Polygon([(0, 0), (10, 0), (10, 10), (5, 5), (0, 10)])
        square = Polygon([(0, 6), (10, 6), (10, 12), (0, 12)])
        got = intersection(concave, square)
        # two triangular prongs survive above y=6
        assert isinstance(got, MultiPolygon)
        assert got.area() == pytest.approx(
            area(concave) - _area_below(concave, 6.0), rel=1e-6
        )


def _area_below(polygon, y):
    clip = Polygon([(-100, -100), (100, -100), (100, y), (-100, y)])
    return intersection(polygon, clip).area()


class TestArealUnion:
    def test_overlapping_squares(self, unit_square, shifted_square):
        assert union(unit_square, shifted_square).area() == pytest.approx(175.0)

    def test_disjoint_becomes_multipolygon(self, unit_square, far_square):
        got = union(unit_square, far_square)
        assert got.area() == pytest.approx(200.0)

    def test_adjacent_squares_merge(self, unit_square):
        neighbour = Polygon([(10, 0), (20, 0), (20, 10), (10, 10)])
        got = union(unit_square, neighbour)
        assert isinstance(got, Polygon)
        assert got.area() == pytest.approx(200.0)

    def test_contained_absorbed(self, unit_square, inner_square):
        got = union(unit_square, inner_square)
        assert got.area() == pytest.approx(100.0)

    def test_union_creating_hole(self):
        # a C-shape closed by a bar leaves an enclosed hole
        c_shape = Polygon(
            [(0, 0), (10, 0), (10, 2), (2, 2), (2, 8), (10, 8), (10, 10), (0, 10)]
        )
        bar = Polygon([(8, 2), (10, 2), (10, 8), (8, 8)])
        got = union(c_shape, bar)
        assert isinstance(got, Polygon)
        assert len(got.holes) == 1
        assert got.area() == pytest.approx(area(c_shape) + area(bar))

    def test_union_all_grid(self):
        tiles = [
            Polygon([(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)])
            for i in range(3)
            for j in range(3)
        ]
        got = union_all(tiles)
        assert got.area() == pytest.approx(9.0)

    def test_union_all_empty_list(self):
        assert union_all([]).is_empty

    def test_union_all_adds_lower_dimensions_to_the_areal_union(
        self, unit_square, shifted_square
    ):
        got = union_all(
            [Point(5, 5), unit_square, Point(50, 50), shifted_square, EMPTY]
        )
        assert isinstance(got, GeometryCollection)
        assert got.area() == pytest.approx(175.0)
        assert [g for g in got.geoms if g.dimension == 0] == [Point(50, 50)]


class TestArealDifference:
    def test_overlap(self, unit_square, shifted_square):
        assert difference(unit_square, shifted_square).area() == pytest.approx(75.0)

    def test_disjoint_unchanged(self, unit_square, far_square):
        assert difference(unit_square, far_square) == unit_square

    def test_hole_creation(self, unit_square, inner_square):
        got = difference(unit_square, inner_square)
        assert isinstance(got, Polygon)
        assert len(got.holes) == 1
        assert got.area() == pytest.approx(96.0)

    def test_total_erasure_is_empty(self, unit_square):
        bigger = Polygon([(-1, -1), (11, -1), (11, 11), (-1, 11)])
        assert difference(unit_square, bigger).is_empty

    def test_split_into_two(self, unit_square):
        knife = Polygon([(4, -1), (6, -1), (6, 11), (4, 11)])
        got = difference(unit_square, knife)
        assert isinstance(got, MultiPolygon)
        assert len(got) == 2
        assert got.area() == pytest.approx(80.0)

    def test_subtracting_line_leaves_area(self, unit_square, diagonal_line):
        assert difference(unit_square, diagonal_line) == unit_square


class TestSymDifference:
    def test_overlap(self, unit_square, shifted_square):
        got = sym_difference(unit_square, shifted_square)
        assert got.area() == pytest.approx(150.0)

    def test_identical_is_empty(self, unit_square):
        twin = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        assert sym_difference(unit_square, twin).is_empty

    def test_area_identity(self, unit_square, shifted_square):
        # area(aΔb) == area(a) + area(b) - 2*area(a∩b)
        a_area = area(unit_square)
        b_area = area(shifted_square)
        i_area = intersection(unit_square, shifted_square).area()
        got = sym_difference(unit_square, shifted_square)
        assert got.area() == pytest.approx(a_area + b_area - 2 * i_area)


class TestLineOps:
    def test_line_polygon_intersection_clips(self, unit_square):
        line = LineString([(-5, 5), (15, 5)])
        got = intersection(line, unit_square)
        assert got.dimension == 1
        assert got.length() == pytest.approx(10.0)

    def test_line_polygon_intersection_multiple_pieces(self, donut):
        line = LineString([(-5, 5), (15, 5)])
        got = intersection(line, donut)
        # crosses rim, hole, rim: two pieces of 3 each
        assert got.length() == pytest.approx(6.0)

    def test_line_line_intersection_point(self):
        a = LineString([(0, 0), (10, 10)])
        b = LineString([(0, 10), (10, 0)])
        got = intersection(a, b)
        assert got == Point(5, 5)

    def test_line_line_collinear_overlap(self):
        a = LineString([(0, 0), (10, 0)])
        b = LineString([(5, 0), (15, 0)])
        got = intersection(a, b)
        assert got.dimension == 1
        assert got.length() == pytest.approx(5.0)

    def test_line_difference_polygon(self, unit_square):
        line = LineString([(-5, 5), (15, 5)])
        got = difference(line, unit_square)
        assert got.length() == pytest.approx(10.0)  # 5 on each side

    def test_line_union_merges(self):
        a = LineString([(0, 0), (10, 0)])
        b = LineString([(5, 0), (15, 0)])
        got = union(a, b)
        assert got.length() == pytest.approx(15.0)

    @pytest.mark.parametrize("operand", [
        "GEOMETRYCOLLECTION(POLYGON((2 -1, 4 -1, 4 1, 2 1, 2 -1)), POINT(9 9))",
        "GEOMETRYCOLLECTION(LINESTRING(2 0, 4 0), POINT(9 9))",
    ])
    def test_line_difference_splits_at_a_collection(self, operand):
        want = "MULTILINESTRING ((0 0, 2 0), (4 0, 10 0))"
        line = "LINESTRING(0 0, 10 0)"
        assert wkt_dumps(difference(wkt_loads(line), wkt_loads(operand))) == want
        sql = (
            f"SELECT ST_AsText(ST_Difference(ST_GeomFromText('{line}'), "
            f"ST_GeomFromText('{operand}')))"
        )
        assert Database("greenwood").execute(sql).scalar() == want

    def test_line_overlay_intersects_only_the_segments_the_sweep_pairs(
        self, monkeypatch
    ):
        """A 201-vertex line across a 200-vertex circle: the sweep pairs the
        2 segment boxes that meet where the line crosses the circle, so
        ``segment_intersection`` runs twice; the pairwise splitter this
        replaced ran it on all 40 000 segment pairs."""
        calls = []
        real = clipping.segment_intersection

        def counted(*args):
            calls.append(args)
            return real(*args)

        for module in (clipping, overlay):
            monkeypatch.setattr(module, "segment_intersection", counted, raising=False)
        line = LineString([(-150 + 1.5 * i, 20 * math.sin(i / 7)) for i in range(201)])
        circle = Polygon([
            (100 * math.cos(math.pi * k / 100), 100 * math.sin(math.pi * k / 100))
            for k in range(200)
        ])
        got = intersection(line, circle)
        assert len(calls) < 10
        assert isinstance(got, LineString)  # one run, entering and leaving
        for end in (got.coords[0], got.coords[-1]):
            assert math.hypot(*end) == pytest.approx(100, rel=1e-3)


class TestPointOps:
    def test_point_in_polygon_intersection(self, unit_square, center_point):
        assert intersection(center_point, unit_square) == center_point

    def test_point_outside_intersection_empty(self, unit_square):
        assert intersection(Point(99, 99), unit_square).is_empty

    def test_multipoint_clip(self, unit_square):
        mp = MultiPoint([(5, 5), (50, 50), (1, 1)])
        got = intersection(mp, unit_square)
        assert isinstance(got, MultiPoint)
        assert len(got) == 2

    def test_point_difference(self, unit_square):
        assert difference(Point(99, 99), unit_square) == Point(99, 99)
        assert difference(Point(5, 5), unit_square).is_empty

    def test_point_union_dedupes(self):
        got = union(MultiPoint([(0, 0), (1, 1)]), Point(0, 0))
        assert isinstance(got, MultiPoint)
        assert len(got) == 2


class TestMixedAndEmpty:
    def test_union_polygon_line_keeps_overhang(self, unit_square):
        line = LineString([(5, 5), (20, 5)])
        got = union(unit_square, line)
        assert isinstance(got, GeometryCollection)
        assert got.dimension == 2
        # only the part of the line outside the square survives separately
        lines = [g for g in got.geoms if g.dimension == 1]
        assert sum(l.length() for l in lines) == pytest.approx(10.0)

    def test_empty_operands(self, unit_square):
        assert intersection(EMPTY, unit_square).is_empty
        assert union(EMPTY, unit_square) == unit_square
        assert difference(unit_square, EMPTY) == unit_square
        assert sym_difference(EMPTY, unit_square) == unit_square


# ---------------------------------------------------------------------------
# union_all in one pass == the pairwise fold
# ---------------------------------------------------------------------------


def _square(x, y, size=1.0):
    return Polygon([(x, y), (x + size, y), (x + size, y + size), (x, y + size)])


@st.composite
def _capsule_chain(draw):
    """Capsules around a walk on the grid; a repeated step is a collinear run."""
    steps = draw(st.lists(
        st.sampled_from([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (2, -1)]),
        min_size=1, max_size=7,
    ))
    walk = [(0.0, 0.0)]
    for dx, dy in steps:
        walk.append((walk[-1][0] + dx, walk[-1][1] + dy))
    radius = draw(st.sampled_from([0.3, 0.5, 0.75]))
    return [segment_capsule(a, b, radius, 2) for a, b in zip(walk, walk[1:])]


_lattice = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    min_size=2, max_size=8, unique=True,
).map(lambda cells: [_square(x, y) for x, y in cells])

_contained = st.tuples(
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
).map(lambda t: [_square(0, 0, 6), _square(t[0], t[1], t[2]), _square(4, 4, 4)])

_holed = st.tuples(st.integers(-1, 3), st.integers(-1, 3)).map(lambda t: [
    Polygon([(0, 0), (6, 0), (6, 6), (0, 6)], holes=[[(2, 2), (4, 2), (4, 4), (2, 4)]]),
    _square(t[0] + 0.5, t[1] + 0.5, 2),
    _square(t[1], 5, 2),
])

_disjoint = st.lists(
    st.integers(0, 9), min_size=2, max_size=5, unique=True,
).map(lambda xs: [_square(10.0 * x, 3.0 * x, 2) for x in xs])


@settings(max_examples=60, deadline=None)
@given(st.one_of(_capsule_chain(), _lattice, _contained, _holed, _disjoint))
def test_union_all_equals_the_pairwise_fold(items):
    one_pass = union_all(items)
    folded = functools.reduce(union, items)
    assert math.isclose(one_pass.area(), folded.area(), rel_tol=1e-12)
    assert sym_difference(one_pass, folded).area() <= 1e-9 * folded.area()


def test_buffer_of_a_line_nodes_its_capsules_in_one_overlay(monkeypatch):
    """A 24-segment line's 24 capsules go through one ``clipping.overlay``
    call; the cascaded pairwise union this replaced made 23."""
    calls = []
    real = clipping.overlay

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(clipping, "overlay", counted)
    line = LineString([(10.0 * i, 3.0 * (i % 2)) for i in range(25)])
    got = buffer(line, 2.0, 4)
    assert len(calls) == 1
    assert len(calls[0][0]) == 24
    assert got.area() > line.length() * 4.0


# ---------------------------------------------------------------------------
# line overlays: identities over grid walks and holed polygons
# ---------------------------------------------------------------------------


@st.composite
def _grid_walk(draw):
    """A walk on the unit grid; a repeated step is a collinear run."""
    x, y = draw(st.integers(-1, 4)), draw(st.integers(-1, 4))
    steps = draw(st.lists(
        st.sampled_from([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (2, -1)]),
        min_size=1, max_size=8,
    ))
    walk = [(float(x), float(y))]
    for dx, dy in steps:
        walk.append((walk[-1][0] + dx, walk[-1][1] + dy))
    return LineString(walk)


def _square_with_hole(hole):
    x0, y0, width, height = hole
    x1, y1 = min(x0 + width, 3), min(y0 + height, 3)
    return Polygon(
        [(0, 0), (4, 0), (4, 4), (0, 4)],
        holes=[[(x0, y0), (x1, y0), (x1, y1), (x0, y1)]],
    )


# on the walks' grid, so a walk runs along their edges and through their
# corners: a square with a rectangular hole, and two squares meeting at a corner
_holed_square = st.tuples(*[st.integers(1, 2)] * 4).map(_square_with_hole)

_corner_squares = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
    lambda t: MultiPolygon([_square(t[0], t[1], 2), _square(t[0] + 2, t[1] + 2)])
)


@settings(max_examples=80, deadline=None)
@given(_grid_walk(), st.one_of(_grid_walk(), _holed_square, _corner_squares))
def test_a_line_splits_into_its_intersection_and_difference(line, other):
    inside, outside = intersection(line, other), difference(line, other)
    assert math.isclose(inside.length() + outside.length(), line.length(), rel_tol=1e-12)
    assert inside.is_empty == de9im.disjoint(line, other)


@settings(max_examples=60, deadline=None)
@given(_grid_walk(), _grid_walk())
def test_line_union_adds_the_other_lines_difference(line, other):
    assert math.isclose(
        union(line, other).length(),
        line.length() + difference(other, line).length(),
        rel_tol=1e-12,
    )
