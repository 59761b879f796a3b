"""Property-based tests (hypothesis) on geometry invariants.

Strategies generate valid-by-construction geometries (convex polygons via
hulls, star-shaped polygons via radial sampling, snapped coordinates) so
every failure is a genuine library bug rather than degenerate input.
"""

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    area,
    buffer,
    contains,
    convex_hull,
    covers,
    difference,
    disjoint,
    distance,
    intersection,
    intersects,
    relate,
    sym_difference,
    union,
    within,
)
from repro.algorithms.validation import is_valid
from repro.geometry import (
    LineString,
    MultiPoint,
    Point,
    Polygon,
    wkb_dumps,
    wkb_loads,
    wkt_dumps,
    wkt_loads,
)

# -- strategies ---------------------------------------------------------------

coord_value = st.integers(min_value=-50, max_value=50).map(float)
coords = st.tuples(coord_value, coord_value)


@st.composite
def points(draw):
    x, y = draw(coords)
    return Point(x, y)


@st.composite
def linestrings(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    pts = draw(
        st.lists(coords, min_size=n, max_size=n, unique=True)
    )
    assume(any(p != pts[0] for p in pts))
    return LineString(pts)


@st.composite
def convex_polygons(draw):
    pts = draw(st.lists(coords, min_size=5, max_size=12, unique=True))
    from repro.algorithms.convexhull import convex_hull_coords

    hull = convex_hull_coords(pts)
    assume(len(hull) >= 3)
    poly = Polygon(hull)
    assume(area(poly) > 1.0)
    return poly


@st.composite
def star_polygons(draw):
    cx = draw(st.integers(min_value=-20, max_value=20))
    cy = draw(st.integers(min_value=-20, max_value=20))
    n = draw(st.integers(min_value=3, max_value=10))
    radii = draw(
        st.lists(
            st.integers(min_value=2, max_value=15),
            min_size=n,
            max_size=n,
        )
    )
    pts = [
        (
            cx + r * math.cos(2 * math.pi * i / n),
            cy + r * math.sin(2 * math.pi * i / n),
        )
        for i, r in enumerate(radii)
    ]
    return Polygon(pts)


any_polygon = st.one_of(convex_polygons(), star_polygons())
any_geometry = st.one_of(points(), linestrings(), any_polygon)


# -- serialisation round-trips ---------------------------------------------------


@given(any_geometry)
@settings(max_examples=80, deadline=None)
def test_wkt_roundtrip(geom):
    # precision >= 17 switches the writer to exact repr formatting
    assert wkt_loads(wkt_dumps(geom, precision=17)) == geom


@given(any_geometry)
@settings(max_examples=80, deadline=None)
def test_wkb_roundtrip(geom):
    assert wkb_loads(wkb_dumps(geom)) == geom


# -- generated polygons are valid --------------------------------------------------


@given(star_polygons())
@settings(max_examples=40, deadline=None)
def test_star_polygons_valid(poly):
    assert is_valid(poly)


# -- DE-9IM invariants ---------------------------------------------------------------


@given(any_geometry, any_geometry)
@settings(max_examples=60, deadline=None)
def test_relate_transpose_symmetry(a, b):
    assert relate(a, b).transpose() == relate(b, a)


@given(any_geometry, any_geometry)
@settings(max_examples=60, deadline=None)
def test_intersects_is_not_disjoint(a, b):
    assert intersects(a, b) != disjoint(a, b)


@given(any_polygon, any_polygon)
@settings(max_examples=40, deadline=None)
def test_within_implies_contains_inverse(a, b):
    if within(a, b):
        assert contains(b, a)
        assert intersects(a, b)


@given(any_geometry)
@settings(max_examples=40, deadline=None)
def test_self_relation(geom):
    assert intersects(geom, geom)
    assert not disjoint(geom, geom)


# -- hull / buffer monotonicity ---------------------------------------------------------


@given(any_geometry)
@settings(max_examples=40, deadline=None)
def test_convex_hull_is_superset(geom):
    hull = convex_hull(geom)
    if hull.dimension == 2:
        for x, y in geom.coords_iter():
            from repro.algorithms.location import Location, locate

            assert locate((x, y), hull) is not Location.EXTERIOR


@given(any_polygon)
@settings(max_examples=25, deadline=None)
def test_buffer_covers_original(poly):
    grown = buffer(poly, 1.0, quad_segs=4)
    assert covers(grown, poly)
    assert area(grown) >= area(poly)


# -- overlay conservation laws ---------------------------------------------------------


@given(convex_polygons(), convex_polygons())
@settings(max_examples=40, deadline=None)
# a lies inside b and touches b's edge at (1 -1): b - a has a triangle
# hole meeting its shell at one vertex (once an "orphan hole ring")
@example(
    a=wkt_loads("POLYGON((0 0,1 -1,1 2,0 0))"),
    b=wkt_loads("POLYGON((-1 0,0 -2,2 0,0 5,-1 0))"),
)
def test_overlay_area_conservation(a, b):
    inter = intersection(a, b)
    inter_area = area(inter) if not inter.is_empty else 0.0
    uni = union(a, b)
    assert area(uni) == _approx(area(a) + area(b) - inter_area)
    diff_ab = difference(a, b)
    diff_area = area(diff_ab) if not diff_ab.is_empty else 0.0
    assert diff_area == _approx(area(a) - inter_area)
    sym = sym_difference(a, b)
    sym_area = area(sym) if not sym.is_empty else 0.0
    assert sym_area == _approx(area(a) + area(b) - 2 * inter_area)


@given(convex_polygons(), convex_polygons())
@settings(max_examples=40, deadline=None)
def test_intersection_commutes(a, b):
    ab = intersection(a, b)
    ba = intersection(b, a)
    area_ab = area(ab) if not ab.is_empty else 0.0
    area_ba = area(ba) if not ba.is_empty else 0.0
    assert area_ab == _approx(area_ba)


@given(convex_polygons())
@settings(max_examples=25, deadline=None)
def test_self_overlay_identities(poly):
    assert area(intersection(poly, poly)) == _approx(area(poly))
    assert area(union(poly, poly)) == _approx(area(poly))
    sym = sym_difference(poly, poly)
    assert sym.is_empty or area(sym) < 1e-6


@given(convex_polygons(), convex_polygons())
@settings(max_examples=30, deadline=None)
def test_union_covers_both_operands(a, b):
    merged = union(a, b)
    assert covers(merged, a)
    assert covers(merged, b)


@given(convex_polygons(), convex_polygons())
@settings(max_examples=30, deadline=None)
def test_intersection_covered_by_both_operands(a, b):
    from repro.algorithms import covered_by

    inter = intersection(a, b)
    if inter.is_empty or inter.dimension < 2:
        return  # lower-dimensional touching handled by the unit tests
    assert covered_by(inter, a)
    assert covered_by(inter, b)


def test_intersection_covered_by_shared_collinear_edge_regression():
    """Found by the property test above: the overlay emits a vertex with
    rounding error (x=8.88e-16 instead of 0.0) on an edge shared with the
    operand, and the exact envelope fast-paths in ``locate_in_polygon`` /
    ``covers`` classified the shared-edge midpoint EXTERIOR before the
    tolerant ring walk could run, yielding relate = ``2F2111212``."""
    from repro.algorithms import covered_by, relate
    from repro.geometry.wkt import loads

    a = loads("POLYGON((-7 -1, 43 -1, 0 1))")
    b = loads("POLYGON((-1 0, 0 -2, 0 1))")
    inter = intersection(a, b)
    assert str(relate(inter, b)) == "2FF11F212"
    assert covered_by(inter, a)
    assert covered_by(inter, b)


@given(convex_polygons(), convex_polygons())
@settings(max_examples=30, deadline=None)
def test_difference_disjoint_interiors_with_subtrahend(a, b):
    from repro.algorithms import overlaps, within

    diff = difference(a, b)
    if diff.is_empty or diff.dimension < 2:
        return
    # the difference must not overlap b, and must stay inside a
    assert not overlaps(diff, b)
    assert covers(a, diff) or within(diff, a)


# -- distance metric properties -------------------------------------------------------------


@given(any_geometry, any_geometry)
@settings(max_examples=60, deadline=None)
def test_distance_symmetry_and_sign(a, b):
    d = distance(a, b)
    assert d >= 0.0
    assert d == _approx(distance(b, a))
    assert (d == 0.0) == intersects(a, b) or d < 1e-9


@given(any_geometry)
@settings(max_examples=30, deadline=None)
def test_distance_to_self_zero(geom):
    assert distance(geom, geom) == 0.0


def _approx(value, tol=1e-6):
    import pytest

    return pytest.approx(value, abs=tol, rel=1e-6)
