"""Common interface for spatial indexes, and the one tree walk.

Every index maps integer item ids to envelopes and answers three queries:
envelope search (the filter step of every spatial predicate), point
queries, and nearest-neighbour. Engines pick their index class through the
profile system (R-tree for ``greenwood``/``bluestem``, quadtree for
``ironbark``), and experiment J-A2 races the implementations directly.

The two tree indexes keep their nodes in one shape (:class:`Node`), and
this module writes each tree query once over that shape: window search,
best-first nearest neighbours and the synchronized join. The R-tree and
the quadtree differ only in how they build and maintain their nodes. The
flat indexes (grid, scan) have no tree: they answer ``search`` and
``items`` themselves, rank ``items()`` for nearest neighbours, and join
by probing.
"""

from __future__ import annotations

import heapq
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.geometry.base import Envelope

#: candidate pairs a batched join examines between two yields
JOIN_BATCH = 1024

Entry = Tuple[int, Envelope]


class Node:
    """One node of a tree index.

    ``box`` covers everything below the node (``None`` only for the
    empty root of an R-tree), ``entries`` are the ``(item_id, envelope)``
    pairs stored at the node, and ``children`` its child nodes (``None``
    at a leaf). An R-tree leaf has entries only and an R-tree inner node
    children only; a quadtree inner node may have both, because it keeps
    the entries that straddle its quadrants.
    """

    __slots__ = ("box", "entries", "children")

    def __init__(
        self,
        box: Optional[Envelope],
        entries: Optional[List[Entry]] = None,
        children: Optional[List["Node"]] = None,
    ):
        self.box = box
        self.entries: List[Entry] = [] if entries is None else entries
        self.children = children


class SpatialIndex:
    """Abstract spatial index over ``(item_id, envelope)`` pairs."""

    #: human-readable name used in benchmark reports
    kind: str = "abstract"

    #: the tree the queries below walk; ``None`` for the flat indexes,
    #: which override :meth:`search` and :meth:`items`
    root: Optional[Node] = None

    def insert(self, item_id: int, envelope: Envelope) -> None:
        raise NotImplementedError

    def remove(self, item_id: int, envelope: Envelope) -> bool:
        """Remove one entry; returns False when it was not present."""
        raise NotImplementedError

    def search(self, envelope: Envelope) -> List[int]:
        """Ids of all items whose envelope intersects the query envelope."""
        hits: List[int] = []
        root = self.root
        if root is None or root.box is None or not root.box.intersects(envelope):
            return hits
        x0, y0, x1, y1 = envelope.as_tuple()  # ``intersects``, written out below
        stack = [root]
        while stack:
            node = stack.pop()
            if node.entries:
                hits.extend([
                    item_id for item_id, env in node.entries
                    if not (env.min_x > x1 or env.max_x < x0
                            or env.min_y > y1 or env.max_y < y0)
                ])
            if node.children:
                stack.extend([
                    child for child in node.children
                    if not ((box := child.box).min_x > x1 or box.max_x < x0
                            or box.min_y > y1 or box.max_y < y0)
                ])
        return hits

    def search_point(self, x: float, y: float) -> List[int]:
        return self.search(Envelope(x, y, x, y))

    def items(self) -> Iterator[Entry]:
        """Every ``(item_id, envelope)`` entry, order unspecified."""
        stack = [] if self.root is None else [self.root]
        while stack:
            node = stack.pop()
            yield from node.entries
            if node.children:
                stack.extend(node.children)

    def nearest(self, x: float, y: float, k: int = 1) -> List[int]:
        """Ids of the k items with smallest envelope distance to (x, y)."""
        ranked = islice(self.nearest_iter(x, y), max(k, 0))
        return [item_id for item_id, _dist in ranked]

    def nearest_iter(self, x: float, y: float) -> Iterator[Tuple[int, float]]:
        """Stream ``(item_id, envelope_distance)`` in nondecreasing
        envelope-distance order.

        The envelope distance is a lower bound on the true geometry
        distance, which makes this iterator the engine's substrate for
        exact KNN (best-first search with exact re-ranking). A tree is
        walked best-first (Hjaltason-Samet): a heap holds nodes keyed by
        the distance to their box and entries by the distance to their
        envelope, so an entry is yielded once no node can hold a closer
        one. Without a tree, every entry of :meth:`items` is ranked.
        """
        root = self.root
        if root is None or root.box is None:
            yield from sorted(
                ((item_id, env.distance_to_point(x, y))
                 for item_id, env in self.items()),
                key=itemgetter(1),
            )
            return
        counter = 0
        heap: List[Tuple[float, int, Optional[Node], int]] = [
            (root.box.distance_to_point(x, y), counter, root, -1)
        ]
        while heap:
            dist, _c, node, item_id = heapq.heappop(heap)
            if node is None:
                yield item_id, dist
                continue
            for item_id, env in node.entries:
                counter += 1
                heapq.heappush(
                    heap, (env.distance_to_point(x, y), counter, None, item_id)
                )
            for child in node.children or ():
                counter += 1
                heapq.heappush(
                    heap, (child.box.distance_to_point(x, y), counter, child, -1)
                )

    def join(self, other: "SpatialIndex") -> Iterator[Tuple[int, int]]:
        """All ``(self_id, other_id)`` pairs with intersecting envelopes
        (a self-join yields both orientations of every pair plus each
        ``(x, x)``, matching nested-loop join semantics)."""
        for ids, other_ids, _candidates in self.join_batches(other):
            yield from zip(ids, other_ids)

    def join_batches(
        self,
        other: "SpatialIndex",
        test: Optional[Callable[[Envelope, Envelope], bool]] = None,
    ) -> Iterator[Tuple[List[int], List[int], int]]:
        """The envelope join in batches: ``(ids, other_ids, candidates)``.

        ``candidates`` counts the pairs with intersecting envelopes
        examined since the previous batch; the two parallel id lists hold
        those that ``test(own_env, other_env)`` also accepts (all of them
        without a test). A batch is yielded every :data:`JOIN_BATCH`
        candidates or so, accepted or not, so a consumer regains control
        at a steady rate even when the test rejects nearly everything.

        Two trees, of either kind, are walked in lockstep over node pairs
        whose boxes intersect, so each candidate pair is examined once
        and non-intersecting subtrees are pruned. What a pair does
        depends only on the shape of its two nodes, never on the index
        class:

        * two leaves: their entries are paired, each side restricted to
          the partner's box;
        * two inner nodes, either keeping entries (quadtree straddlers):
          the straddlers are paired with each other, each side's
          straddlers travel as a leaf into the partner's children, and
          the children are paired with each other;
        * otherwise the leaf, or the inner node with the smaller box,
          stays and the other node is expanded into the children its
          box meets. A staying leaf is first cut down to the entries that
          reach into the expanded node's box (with none left the pair is
          pruned), and these are paired with the expanded node's own
          entries.

        A flat index (grid, scan) has no tree: ``other`` is probed once
        per own entry instead.
        """
        root_a, root_b = self.root, other.root
        if root_a is None or root_b is None:
            yield from self._probe_batches(other, test)
            return
        if root_a.box is None or root_b.box is None:
            return
        if not root_a.box.intersects(root_b.box):
            return
        ids: List[int] = []
        other_ids: List[int] = []
        candidates = 0
        stack = [(root_a, root_b)]
        pop = stack.pop
        extend = stack.extend
        while stack:
            if candidates >= JOIN_BATCH:
                yield ids, other_ids, candidates
                ids, other_ids, candidates = [], [], 0
            a, b = pop()
            kids_a, kids_b = a.children, b.children
            if kids_a is None:
                if kids_b is None:
                    # two leaves
                    candidates += _pair(a, b, test, ids, other_ids)
                    continue
                expand_b = True
            elif kids_b is None:
                expand_b = False
            elif a.entries or b.entries:
                # two inner nodes, keeping straddlers
                if a.entries and b.entries:
                    candidates += _pair(a, b, test, ids, other_ids)
                if a.entries:
                    straddlers = _leaf(a.box, a.entries)
                    extend([(straddlers, child) for child in kids_b])
                if b.entries:
                    straddlers = _leaf(b.box, b.entries)
                    extend([(child, straddlers) for child in kids_a])
                extend([
                    (ca, cb) for ca in kids_a for cb in kids_b
                    if ca.box.intersects(cb.box)
                ])
                continue
            else:
                # two inner nodes: expand the one with the larger box
                box, other_box = a.box, b.box
                expand_b = (box.max_x - box.min_x) * (box.max_y - box.min_y) < (
                    (other_box.max_x - other_box.min_x)
                    * (other_box.max_y - other_box.min_y)
                )
            if expand_b:
                if kids_a is None:
                    a = _cut(a, b.box)
                    if a is None:
                        continue
                    if b.entries:
                        candidates += _pair(a, b, test, ids, other_ids)
                box = a.box
                x0, y0, x1, y1 = box.min_x, box.min_y, box.max_x, box.max_y
                extend([
                    (a, child) for child in kids_b
                    if (env := child.box).min_x <= x1 and x0 <= env.max_x
                    and env.min_y <= y1 and y0 <= env.max_y
                ])
            else:
                if kids_b is None:
                    b = _cut(b, a.box)
                    if b is None:
                        continue
                    if a.entries:
                        candidates += _pair(a, b, test, ids, other_ids)
                box = b.box
                x0, y0, x1, y1 = box.min_x, box.min_y, box.max_x, box.max_y
                extend([
                    (child, b) for child in kids_a
                    if (env := child.box).min_x <= x1 and x0 <= env.max_x
                    and env.min_y <= y1 and y0 <= env.max_y
                ])
        if candidates:
            yield ids, other_ids, candidates

    def _probe_batches(self, other, test):
        """:meth:`join_batches` by probing ``other`` once per own entry."""
        search = other.search
        envelope_of = dict(other.items()) if test is not None else None
        ids: List[int] = []
        other_ids: List[int] = []
        candidates = 0
        for item_id, env in self.items():
            hits = search(env)
            candidates += len(hits)
            if envelope_of is not None:
                hits = [h for h in hits if test(env, envelope_of[h])]
            ids.extend([item_id] * len(hits))
            other_ids.extend(hits)
            if candidates >= JOIN_BATCH:
                yield ids, other_ids, candidates
                ids, other_ids, candidates = [], [], 0
        if candidates:
            yield ids, other_ids, candidates

    def __len__(self) -> int:
        raise NotImplementedError

    @classmethod
    def bulk_load(
        cls, items: Iterable[Entry], **kwargs
    ) -> "SpatialIndex":
        """Default bulk load: repeated insertion (subclasses override)."""
        index = cls(**kwargs)
        for item_id, envelope in items:
            index.insert(item_id, envelope)
        return index


def _leaf(box: Envelope, entries: List[Entry]) -> Node:
    """A leaf over ``entries``, which ``box`` covers; a single entry's own
    envelope is the tighter box and costs nothing."""
    return Node(entries[0][1] if len(entries) == 1 else box, entries)


def _reaching(node: Node, box: Envelope) -> List[Entry]:
    """The entries of ``node`` whose envelope reaches into ``box``."""
    x0, y0, x1, y1 = box.min_x, box.min_y, box.max_x, box.max_y
    own = node.box
    if x0 <= own.min_x and own.max_x <= x1 and y0 <= own.min_y and own.max_y <= y1:
        return node.entries
    return [
        entry for entry in node.entries
        if (env := entry[1]).min_x <= x1 and x0 <= env.max_x
        and env.min_y <= y1 and y0 <= env.max_y
    ]


def _cut(leaf: Node, box: Envelope) -> Optional[Node]:
    """``leaf`` with only the entries that reach into ``box``; ``None``
    when none does."""
    live = _reaching(leaf, box)
    if not live:
        return None
    return leaf if len(live) == len(leaf.entries) else _leaf(leaf.box, live)


def _pair(a: Node, b: Node, test, ids: List[int], other_ids: List[int]) -> int:
    """Pair the entries stored at ``a`` with those at ``b``: append the
    pairs whose envelopes intersect and that ``test`` accepts, and return
    how many intersect.

    Only entries that reach into the partner's box can pair: ``b``'s are
    restricted to ``a``'s box first, and an entry of ``a`` that misses
    ``b``'s box is skipped. The shorter side is looped over outside."""
    entries_b = _reaching(b, a.box)
    if not entries_b:
        return 0
    candidates = 0
    if len(entries_b) < len(a.entries):
        for ib, eb in entries_b:
            x0, y0, x1, y1 = eb.min_x, eb.min_y, eb.max_x, eb.max_y
            for ia, ea in a.entries:
                if (
                    ea.min_x <= x1 and x0 <= ea.max_x
                    and ea.min_y <= y1 and y0 <= ea.max_y
                ):
                    candidates += 1
                    if test is None or test(ea, eb):
                        ids.append(ia)
                        other_ids.append(ib)
        return candidates
    box = b.box
    bx0, by0, bx1, by1 = box.min_x, box.min_y, box.max_x, box.max_y
    for ia, ea in a.entries:
        x0, y0, x1, y1 = ea.min_x, ea.min_y, ea.max_x, ea.max_y
        if bx0 > x1 or x0 > bx1 or by0 > y1 or y0 > by1:
            continue
        for ib, eb in entries_b:
            if (
                eb.min_x <= x1 and x0 <= eb.max_x
                and eb.min_y <= y1 and y0 <= eb.max_y
            ):
                candidates += 1
                if test is None or test(ea, eb):
                    ids.append(ia)
                    other_ids.append(ib)
    return candidates
