"""Coverage of the Geometry method facade (the user-facing OO API) and
assorted small surfaces not exercised elsewhere."""

import pytest

from repro.geometry import (
    GeometryCollection,
    LineString,
    MultiPoint,
    Point,
    Polygon,
)


class TestMethodFacade:
    """Each Geometry method must agree with its functional counterpart."""

    def test_relate_returns_string(self, unit_square, center_point):
        got = center_point.relate(unit_square)
        assert isinstance(got, str)
        assert got == "0FFFFF212"

    def test_predicate_methods(self, unit_square, shifted_square, far_square):
        assert unit_square.intersects(shifted_square)
        assert unit_square.overlaps(shifted_square)
        assert unit_square.disjoint(far_square)
        assert not unit_square.touches(shifted_square)

    def test_covers_methods(self, unit_square, inner_square):
        assert unit_square.covers(inner_square)
        assert inner_square.covered_by(unit_square)

    def test_crosses_method(self, unit_square, diagonal_line):
        assert diagonal_line.crosses(unit_square)

    def test_analysis_methods(self, unit_square):
        assert unit_square.area() == 100.0
        assert unit_square.length() == 40.0
        assert unit_square.centroid() == Point(5, 5)
        assert unit_square.convex_hull().area() == 100.0
        assert unit_square.distance(Point(13, 14)) == 5.0

    def test_overlay_methods(self, unit_square, shifted_square):
        assert unit_square.intersection(shifted_square).area() == 25.0
        assert unit_square.union(shifted_square).area() == 175.0
        assert unit_square.difference(shifted_square).area() == 75.0
        assert unit_square.sym_difference(shifted_square).area() == 150.0

    def test_buffer_and_simplify_methods(self, unit_square):
        assert unit_square.buffer(1).area() > 100.0
        wiggly = LineString([(0, 0), (1, 0.001), (2, 0)])
        assert wiggly.simplify(0.1).num_points == 2

    def test_point_on_surface_method(self, donut):
        p = donut.point_on_surface()
        assert donut.contains(p) or donut.intersects(p)

    def test_wkt_wkb_methods(self, center_point):
        assert center_point.wkt() == "POINT (5 5)"
        assert len(center_point.wkb()) == 21


class TestStructuralEquality:
    def test_polygon_hole_order_matters_structurally(self):
        a = Polygon(
            [(0, 0), (20, 0), (20, 20), (0, 20)],
            holes=[
                [(2, 2), (4, 2), (4, 4), (2, 4)],
                [(10, 10), (12, 10), (12, 12), (10, 12)],
            ],
        )
        b = Polygon(
            [(0, 0), (20, 0), (20, 20), (0, 20)],
            holes=[
                [(10, 10), (12, 10), (12, 12), (10, 12)],
                [(2, 2), (4, 2), (4, 4), (2, 4)],
            ],
        )
        assert a != b          # structural: hole order differs
        assert a.equals(b)     # topological: same point set

    def test_hash_consistency(self, unit_square):
        twin = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        assert hash(unit_square) == hash(twin)
        assert len({unit_square, twin}) == 1

    def test_cross_type_inequality(self):
        assert Point(0, 0) != LineString([(0, 0), (1, 1)])
        assert (Point(0, 0) == "POINT (0 0)") is False


class TestCollectionFacade:
    def test_collection_methods_delegate(self, unit_square):
        gc = GeometryCollection([unit_square, Point(50, 50)])
        assert gc.area() == 100.0
        assert gc.intersects(Point(50, 50))
        assert gc.envelope.contains_point(50, 50)

    def test_empty_collection_relations(self, unit_square):
        from repro.geometry import EMPTY

        assert EMPTY.disjoint(unit_square)
        assert not EMPTY.intersects(unit_square)
        assert not EMPTY.touches(unit_square)
        assert not EMPTY.within(unit_square)
        assert not unit_square.contains(EMPTY)
        assert not EMPTY.crosses(unit_square)
        assert not EMPTY.overlaps(unit_square)
        assert not unit_square.covers(EMPTY)
        assert EMPTY.equals(EMPTY)
        assert not EMPTY.equals(unit_square)

    def test_multipoint_iteration_protocol(self):
        mp = MultiPoint([(0, 0), (1, 1), (2, 2)])
        assert [p.x for p in mp] == [0.0, 1.0, 2.0]
        assert mp[1] == Point(1, 1)
        assert len(mp) == 3


class TestEnvelopeCaching:
    def test_envelope_is_cached(self, unit_square):
        first = unit_square.envelope
        second = unit_square.envelope
        assert first is second

    def test_features_cache_reused(self, unit_square, center_point):
        # the prepared-geometry cache fills on the first call that needs a
        # feature decomposition; intersects against a rectangle needs none
        assert unit_square.intersects(center_point)
        assert unit_square._features is None
        unit_square.touches(center_point)
        cached = unit_square._features
        assert cached is not None
        unit_square.touches(Point(1, 1))
        assert unit_square._features is cached
