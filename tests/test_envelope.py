"""Unit tests for Envelope: construction, relations, distances."""

import math

import pytest

from repro.engines.profiles import MBR_TESTS
from repro.errors import GeometryError
from repro.geometry import Envelope, GeometryCollection
from repro.geometry.base import EMPTY_ENVELOPE


class TestConstruction:
    def test_basic(self):
        env = Envelope(1, 2, 3, 4)
        assert env.as_tuple() == (1.0, 2.0, 3.0, 4.0)

    def test_degenerate_point_envelope_allowed(self):
        env = Envelope(5, 5, 5, 5)
        assert env.width == 0.0
        assert env.height == 0.0
        assert env.area == 0.0

    def test_inverted_rejected(self):
        with pytest.raises(GeometryError):
            Envelope(3, 0, 1, 5)
        with pytest.raises(GeometryError):
            Envelope(0, 5, 5, 1)

    def test_from_coords(self):
        env = Envelope.from_coords([(3, 7), (-1, 2), (5, 4)])
        assert env.as_tuple() == (-1.0, 2.0, 5.0, 7.0)

    def test_from_coords_empty_rejected(self):
        with pytest.raises(GeometryError):
            Envelope.from_coords([])

    def test_union_all(self):
        env = Envelope.union_all(
            [Envelope(0, 0, 1, 1), Envelope(5, -2, 6, 0.5)]
        )
        assert env.as_tuple() == (0.0, -2.0, 6.0, 1.0)

    def test_union_all_empty_rejected(self):
        with pytest.raises(GeometryError):
            Envelope.union_all([])


class TestDerived:
    def test_dimensions(self):
        env = Envelope(0, 0, 4, 3)
        assert env.width == 4.0
        assert env.height == 3.0
        assert env.area == 12.0
        assert env.perimeter == 14.0
        assert env.center == (2.0, 1.5)

    def test_expanded(self):
        env = Envelope(0, 0, 2, 2).expanded(1.0)
        assert env.as_tuple() == (-1.0, -1.0, 3.0, 3.0)


class TestRelations:
    def test_intersects_overlap(self):
        assert Envelope(0, 0, 2, 2).intersects(Envelope(1, 1, 3, 3))

    def test_intersects_edge_touch(self):
        assert Envelope(0, 0, 2, 2).intersects(Envelope(2, 0, 4, 2))

    def test_intersects_corner_touch(self):
        assert Envelope(0, 0, 2, 2).intersects(Envelope(2, 2, 4, 4))

    def test_disjoint(self):
        assert not Envelope(0, 0, 2, 2).intersects(Envelope(3, 3, 4, 4))

    def test_contains(self):
        outer = Envelope(0, 0, 10, 10)
        assert outer.contains(Envelope(1, 1, 9, 9))
        assert outer.contains(outer)
        assert not Envelope(1, 1, 9, 9).contains(outer)

    @pytest.mark.parametrize("name", sorted(MBR_TESTS))
    def test_the_empty_envelope_is_disjoint_from_every_box(self, name):
        empty = GeometryCollection([]).envelope
        assert empty is EMPTY_ENVELOPE
        for box in (Envelope(0, 0, 1, 1), Envelope(-1e300, -1e300, 1e300, 1e300)):
            for pair in ((empty, box), (box, empty)):
                assert MBR_TESTS[name](*pair) is (name == "st_disjoint")

    def test_contains_point(self):
        env = Envelope(0, 0, 2, 2)
        assert env.contains_point(1, 1)
        assert env.contains_point(0, 0)  # boundary inclusive
        assert not env.contains_point(2.01, 1)

    def test_intersection(self):
        got = Envelope(0, 0, 4, 4).intersection(Envelope(2, 2, 6, 6))
        assert got is not None
        assert got.as_tuple() == (2.0, 2.0, 4.0, 4.0)

    def test_intersection_disjoint_is_none(self):
        assert Envelope(0, 0, 1, 1).intersection(Envelope(5, 5, 6, 6)) is None

    def test_union(self):
        got = Envelope(0, 0, 1, 1).union(Envelope(5, 5, 6, 6))
        assert got.as_tuple() == (0.0, 0.0, 6.0, 6.0)


class TestDistance:
    def test_distance_overlapping_is_zero(self):
        assert Envelope(0, 0, 2, 2).distance(Envelope(1, 1, 3, 3)) == 0.0

    def test_distance_horizontal(self):
        assert Envelope(0, 0, 1, 1).distance(Envelope(4, 0, 5, 1)) == 3.0

    def test_distance_diagonal(self):
        got = Envelope(0, 0, 1, 1).distance(Envelope(4, 4, 5, 5))
        assert got == pytest.approx(math.hypot(3, 3))

    def test_distance_to_point_inside(self):
        assert Envelope(0, 0, 2, 2).distance_to_point(1, 1) == 0.0

    def test_distance_to_point_outside(self):
        assert Envelope(0, 0, 2, 2).distance_to_point(5, 2) == 3.0


class TestDunder:
    def test_equality_and_hash(self):
        a = Envelope(0, 0, 1, 1)
        b = Envelope(0, 0, 1, 1)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Envelope(0, 0, 1, 2)

    def test_repr(self):
        assert "Envelope" in repr(Envelope(0, 0, 1, 1))
