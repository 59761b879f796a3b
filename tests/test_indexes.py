"""Unit tests for all spatial index implementations.

Every index must return exactly the envelope-intersecting items (the
linear scan is the oracle) and support insert/remove/nearest.
"""

import random

import pytest

from repro.geometry import Envelope
from repro.index import (
    GridIndex,
    INDEX_KINDS,
    LinearScanIndex,
    QuadTree,
    RTree,
    make_index,
)

ALL_KINDS = sorted(INDEX_KINDS)


def _random_items(n, seed=13, world=1000.0, max_extent=8.0):
    rng = random.Random(seed)
    items = []
    for i in range(n):
        x = rng.uniform(0, world)
        y = rng.uniform(0, world)
        w = rng.uniform(0.01, max_extent)
        h = rng.uniform(0.01, max_extent)
        items.append((i, Envelope(x, y, x + w, y + h)))
    return items


def _oracle(items, query):
    return sorted(i for i, env in items if env.intersects(query))


@pytest.fixture(params=ALL_KINDS)
def index_kind(request):
    return request.param


class TestCorrectness:
    QUERIES = [
        Envelope(0, 0, 1000, 1000),      # everything
        Envelope(100, 100, 200, 200),    # region
        Envelope(500, 500, 500, 500),    # point probe
        Envelope(-50, -50, -1, -1),      # empty region
    ]

    def test_insert_then_search(self, index_kind):
        items = _random_items(500)
        index = make_index(index_kind)
        for i, env in items:
            index.insert(i, env)
        assert len(index) == 500
        for query in self.QUERIES:
            assert sorted(index.search(query)) == _oracle(items, query)

    def test_bulk_load_then_search(self, index_kind):
        items = _random_items(500, seed=99)
        index = INDEX_KINDS[index_kind].bulk_load(items)
        assert len(index) == 500
        for query in self.QUERIES:
            assert sorted(index.search(query)) == _oracle(items, query)

    def test_search_point_helper(self, index_kind):
        items = [(1, Envelope(0, 0, 10, 10)), (2, Envelope(20, 20, 30, 30))]
        index = INDEX_KINDS[index_kind].bulk_load(items)
        assert index.search_point(5, 5) == [1]
        assert index.search_point(15, 15) == []

    def test_duplicate_envelopes_allowed(self, index_kind):
        env = Envelope(0, 0, 1, 1)
        index = make_index(index_kind)
        for i in range(20):
            index.insert(i, env)
        assert sorted(index.search(env)) == list(range(20))

    def test_empty_index(self, index_kind):
        index = make_index(index_kind)
        assert len(index) == 0
        assert index.search(Envelope(0, 0, 1, 1)) == []
        assert index.nearest(0, 0, 3) == []


class TestRemoval:
    def test_remove_existing(self, index_kind):
        items = _random_items(200, seed=5)
        index = INDEX_KINDS[index_kind].bulk_load(items)
        victim_id, victim_env = items[77]
        assert index.remove(victim_id, victim_env)
        assert len(index) == 199
        assert victim_id not in index.search(victim_env)

    def test_remove_missing_returns_false(self, index_kind):
        index = INDEX_KINDS[index_kind].bulk_load(_random_items(50))
        assert not index.remove(999, Envelope(0, 0, 1, 1))

    def test_remove_all_then_reinsert(self, index_kind):
        items = _random_items(64, seed=3)
        index = INDEX_KINDS[index_kind].bulk_load(items)
        for i, env in items:
            assert index.remove(i, env)
        assert len(index) == 0
        for i, env in items:
            index.insert(i, env)
        query = Envelope(0, 0, 1000, 1000)
        assert sorted(index.search(query)) == _oracle(items, query)


class TestNearest:
    def test_matches_linear_scan(self, index_kind):
        items = _random_items(300, seed=21)
        oracle = LinearScanIndex()
        for i, env in items:
            oracle.insert(i, env)
        index = INDEX_KINDS[index_kind].bulk_load(items)
        for qx, qy in [(500, 500), (0, 0), (999, 1), (250, 750)]:
            got = index.nearest(qx, qy, 5)
            want = oracle.nearest(qx, qy, 5)
            # distances must match even if ties reorder ids
            dist = {i: env.distance_to_point(qx, qy) for i, env in items}
            assert [round(dist[i], 9) for i in got] == [
                round(dist[i], 9) for i in want
            ]

    def test_k_larger_than_size(self, index_kind):
        items = _random_items(5)
        index = INDEX_KINDS[index_kind].bulk_load(items)
        assert len(index.nearest(0, 0, 50)) == 5


def _check_boxes(tree):
    """Every node's box covers its entries' envelopes and its children's
    boxes: the precondition every tree walk prunes on."""
    stack = [tree.root]
    while stack:
        node = stack.pop()
        for _item_id, env in node.entries:
            assert node.box.contains(env)
        for child in node.children or ():
            assert node.box.contains(child.box)
            stack.append(child)


class TestRTreeSpecifics:
    def test_split_keeps_invariants(self):
        tree = RTree(max_entries=4)
        items = _random_items(200, seed=8)
        for i, env in items:
            tree.insert(i, env)
        assert tree.height > 2  # splits grew the root
        _check_boxes(tree)
        for i, env in items[::3]:
            assert tree.remove(i, env)
        _check_boxes(tree)

    def test_bulk_load_height_is_logarithmic(self):
        tree = RTree.bulk_load(_random_items(1000), max_entries=16)
        assert tree.height <= 4

    def test_min_fanout_guard(self):
        with pytest.raises(ValueError):
            RTree(max_entries=2)


class TestGridSpecifics:
    def test_cell_size_guard(self):
        with pytest.raises(ValueError):
            GridIndex(cell_size=0)

    def test_auto_cell_size(self):
        index = GridIndex.bulk_load(_random_items(100))
        assert index.cell_size > 0

    def test_large_item_spanning_cells(self):
        index = GridIndex(cell_size=10)
        index.insert(1, Envelope(0, 0, 100, 100))
        assert index.search(Envelope(95, 95, 96, 96)) == [1]
        assert len(index) == 1

    def test_nearest_faraway_query_with_tiny_cells_terminates(self):
        """Degenerate auto cell size (clustered points) plus a distant
        query point puts the certification radius ~1e10 cells out; the
        ring search must fall back to the full ranking instead of
        enumerating empty coordinates forever."""
        index = GridIndex.bulk_load([(0, Envelope(0, 0, 0, 0))])
        assert index.cell_size < 1e-6  # the degenerate regime
        assert index.nearest(100.0, 100.0, 3) == [0]
        # a window query spanning ~1e11 cells per axis must probe the
        # occupied cells, not enumerate the range
        assert index.search(Envelope(-100, -100, 100, 100)) == [0]
        assert index.remove(0, Envelope(0, 0, 0, 0))
        assert len(index) == 0
        many = GridIndex(cell_size=1e-9)
        for i in range(5):
            many.insert(i, Envelope(50 + i * 0.001, 50,
                                    50 + i * 0.001, 50))
        assert many.nearest(0.0, 0.0, 2) == [0, 1]


class TestQuadTreeSpecifics:
    def test_root_grows_for_outliers(self):
        tree = QuadTree()
        tree.insert(1, Envelope(0, 0, 1, 1))
        tree.insert(2, Envelope(1e6, 1e6, 1e6 + 1, 1e6 + 1))
        assert sorted(tree.search(Envelope(-1, -1, 2e6, 2e6))) == [1, 2]
        items = _random_items(300, seed=4)
        for i, env in items:
            tree.insert(i + 3, env)
        _check_boxes(tree)
        for i, env in items[::2]:
            assert tree.remove(i + 3, env)
        _check_boxes(tree)

    def test_straddlers_stay_at_inner_nodes(self):
        items = [(i, Envelope(499, 499, 501, 501)) for i in range(40)]
        tree = QuadTree.bulk_load(items, max_items=4)
        assert sorted(tree.search(Envelope(500, 500, 500, 500))) == [
            i for i in range(40)
        ]


class TestFactory:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_index("btree")

    def test_all_kinds_constructible(self):
        for kind in ALL_KINDS:
            assert make_index(kind).kind == kind
