"""Property-based tests: every index implementation must agree with the
linear-scan oracle on arbitrary envelope sets and query rectangles."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Envelope
from repro.index import INDEX_KINDS, GridIndex, LinearScanIndex, RTree

ordinate = st.integers(min_value=-100, max_value=100).map(float)


@st.composite
def envelopes(draw):
    x1, x2 = sorted((draw(ordinate), draw(ordinate)))
    y1, y2 = sorted((draw(ordinate), draw(ordinate)))
    return Envelope(x1, y1, x2, y2)


envelope_sets = st.lists(envelopes(), min_size=0, max_size=60)


@pytest.mark.parametrize("kind", sorted(set(INDEX_KINDS) - {"scan"}))
class TestAgainstOracle:
    @given(items=envelope_sets, query=envelopes())
    @settings(max_examples=50, deadline=None)
    def test_search_matches_oracle(self, kind, items, query):
        oracle = LinearScanIndex()
        index = INDEX_KINDS[kind]()
        for i, env in enumerate(items):
            oracle.insert(i, env)
            index.insert(i, env)
        assert sorted(index.search(query)) == sorted(oracle.search(query))

    @given(items=envelope_sets, query=envelopes())
    @settings(max_examples=30, deadline=None)
    def test_bulk_load_matches_oracle(self, kind, items, query):
        enumerated = list(enumerate(items))
        oracle = LinearScanIndex()
        for i, env in enumerated:
            oracle.insert(i, env)
        index = INDEX_KINDS[kind].bulk_load(enumerated)
        assert sorted(index.search(query)) == sorted(oracle.search(query))

    @given(items=st.lists(envelopes(), min_size=1, max_size=40),
           point=st.tuples(ordinate, ordinate))
    @settings(max_examples=30, deadline=None)
    def test_nearest_distance_matches_oracle(self, kind, items, point):
        enumerated = list(enumerate(items))
        oracle = LinearScanIndex()
        for i, env in enumerated:
            oracle.insert(i, env)
        index = INDEX_KINDS[kind].bulk_load(enumerated)
        x, y = point
        got = index.nearest(x, y, 3)
        want = oracle.nearest(x, y, 3)
        dist = {i: env.distance_to_point(x, y) for i, env in enumerated}
        assert [round(dist[i], 9) for i in got] == [
            round(dist[i], 9) for i in want
        ]
        # the full stream: nondecreasing true envelope distances, each id
        # once, and nearest(k) is its head
        stream = list(index.nearest_iter(x, y))
        assert [d for i, d in stream] == [dist[i] for i, _d in stream]
        assert [d for _i, d in stream] == sorted(d for _i, d in stream)
        assert sorted(i for i, _d in stream) == [i for i, _e in enumerated]
        assert [i for i, _d in stream[: len(got)]] == got

    @given(items=st.lists(envelopes(), min_size=2, max_size=40),
           data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_remove_then_search(self, kind, items, data):
        enumerated = list(enumerate(items))
        index = INDEX_KINDS[kind].bulk_load(enumerated)
        victim = data.draw(st.integers(min_value=0, max_value=len(items) - 1))
        assert index.remove(victim, items[victim])
        survivors = [(i, e) for i, e in enumerated if i != victim]
        query = data.draw(envelopes())
        expected = sorted(i for i, e in survivors if e.intersects(query))
        assert sorted(index.search(query)) == expected


JOIN_SIDES = ("rtree", "quadtree", "grid", "scan", "packed")


def _join_side(side, items, insert, decoys):
    """One join side. ``packed`` is an STR-packed R-tree; any other kind
    is bulk-loaded, or built by inserts (R-tree splits, quadtree root
    growth) with the decoys inserted among the items and then removed."""
    if side == "packed" or not insert:
        return (RTree if side == "packed" else INDEX_KINDS[side]).bulk_load(items)
    index = GridIndex(cell_size=10.0) if side == "grid" else INDEX_KINDS[side]()
    for i, env in decoys[::2] + items + decoys[1::2]:
        index.insert(i, env)
    for i, env in decoys:
        assert index.remove(i, env)
    return index


def _coords(env):
    return env.min_x, env.min_y, env.max_x, env.max_y


@pytest.mark.parametrize("own", JOIN_SIDES)
@pytest.mark.parametrize("other", JOIN_SIDES)
@given(left=envelope_sets, right=envelope_sets,
       inserts=st.tuples(st.booleans(), st.booleans()),
       decoys=st.lists(envelopes(), max_size=20))
@settings(max_examples=20, deadline=None)
def test_join_matches_brute_force(own, other, left, right, inserts, decoys):
    decoys = [(1000 + k, env) for k, env in enumerate(decoys)]
    a_items, b_items = list(enumerate(left)), list(enumerate(right))
    a = _join_side(own, a_items, inserts[0], decoys)
    b = _join_side(other, b_items, inserts[1], decoys)
    want = Counter(
        (i, j) for i, ei in a_items for j, ej in b_items if ei.intersects(ej)
    )
    pairs, candidates = [], 0
    for ids, other_ids, n in a.join_batches(b):
        pairs.extend(zip(ids, other_ids))
        candidates += n
    assert Counter(pairs) == want
    assert len(set(pairs)) == len(pairs)
    assert candidates == len(want)

    # an asymmetric test is called as test(own, other), once per candidate
    calls = []

    def contains(own_env, other_env):
        calls.append((_coords(own_env), _coords(other_env)))
        return own_env.contains(other_env)

    accepted = [
        pair for ids, other_ids, _n in a.join_batches(b, contains)
        for pair in zip(ids, other_ids)
    ]
    assert Counter(accepted) == Counter(
        (i, j) for i, j in want if left[i].contains(right[j])
    )
    assert Counter(calls) == Counter(
        (_coords(left[i]), _coords(right[j])) for i, j in want
    )

    # a self-join yields both orientations of every pair and each (x, x)
    assert Counter(a.join(a)) == Counter(
        (i, j) for i, ei in a_items for j, ej in a_items if ei.intersects(ej)
    )
