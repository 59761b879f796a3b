"""PR quadtree with envelope items.

Models the tessellation-style indexing of the commercial DBMS in the
paper's comparison (the ``ironbark`` profile): space is recursively
quartered and an envelope is stored in the smallest quadrant that fully
contains it. Straddling envelopes stay at inner nodes, which is exactly
the behaviour that makes quadtree filters coarser than R-trees on long
skinny road segments — a shape difference J-A2 exposes.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Tuple

from repro.geometry.base import Envelope
from repro.index.base import JOIN_BATCH, SpatialIndex


class _QNode:
    __slots__ = ("bounds", "items", "children", "depth")

    def __init__(self, bounds: Envelope, depth: int):
        self.bounds = bounds
        self.items: List[Tuple[int, Envelope]] = []
        self.children: Optional[List["_QNode"]] = None
        self.depth = depth

    def quadrants(self) -> List[Envelope]:
        cx, cy = self.bounds.center
        b = self.bounds
        return [
            Envelope(b.min_x, b.min_y, cx, cy),
            Envelope(cx, b.min_y, b.max_x, cy),
            Envelope(b.min_x, cy, cx, b.max_y),
            Envelope(cx, cy, b.max_x, b.max_y),
        ]


class QuadTree(SpatialIndex):
    """Point-region quadtree storing envelopes at covering nodes."""

    kind = "quadtree"

    def __init__(
        self,
        bounds: Optional[Envelope] = None,
        max_items: int = 16,
        max_depth: int = 12,
    ):
        self.max_items = max_items
        self.max_depth = max_depth
        self._root: Optional[_QNode] = (
            _QNode(bounds, 0) if bounds is not None else None
        )
        self._pending: List[Tuple[int, Envelope]] = []
        self._size = 0

    def _ensure_root(self, env: Envelope) -> None:
        if self._root is None:
            # seed with a square around the first envelope
            margin = max(env.width, env.height, 1.0)
            self._root = _QNode(env.expanded(margin), 0)
        # grow the root while the envelope escapes it
        while not self._root.bounds.contains(env):
            old = self._root
            b = old.bounds
            grown = Envelope(
                b.min_x - b.width if env.min_x < b.min_x else b.min_x,
                b.min_y - b.height if env.min_y < b.min_y else b.min_y,
                b.max_x + b.width if env.max_x > b.max_x else b.max_x,
                b.max_y + b.height if env.max_y > b.max_y else b.max_y,
            )
            new_root = _QNode(grown, 0)
            new_root.items = []
            self._root = new_root
            # reinsert everything from the old tree
            for item in _all_items(old):
                self._insert_into(self._root, item)

    def insert(self, item_id: int, envelope: Envelope) -> None:
        self._ensure_root(envelope)
        self._insert_into(self._root, (item_id, envelope))  # type: ignore[arg-type]
        self._size += 1

    def _insert_into(self, node: _QNode, item: Tuple[int, Envelope]) -> None:
        _item_id, env = item
        while True:
            if node.children is not None:
                placed = False
                for child in node.children:
                    if child.bounds.contains(env):
                        node = child
                        placed = True
                        break
                if placed:
                    continue
                node.items.append(item)  # straddles the split lines
                return
            node.items.append(item)
            if len(node.items) > self.max_items and node.depth < self.max_depth:
                self._split(node)
                # after a split, straddlers stayed; nothing left to push
            return

    def _split(self, node: _QNode) -> None:
        node.children = [
            _QNode(q, node.depth + 1) for q in node.quadrants()
        ]
        keep: List[Tuple[int, Envelope]] = []
        for item in node.items:
            placed = False
            for child in node.children:
                if child.bounds.contains(item[1]):
                    child.items.append(item)
                    placed = True
                    break
            if not placed:
                keep.append(item)
        node.items = keep

    def remove(self, item_id: int, envelope: Envelope) -> bool:
        if self._root is None:
            return False
        node = self._root
        while True:
            for i, (stored_id, stored_env) in enumerate(node.items):
                if stored_id == item_id and stored_env == envelope:
                    node.items.pop(i)
                    self._size -= 1
                    return True
            if node.children is None:
                return False
            descended = False
            for child in node.children:
                if child.bounds.contains(envelope):
                    node = child
                    descended = True
                    break
            if not descended:
                return False

    def search(self, envelope: Envelope) -> List[int]:
        hits: List[int] = []
        if self._root is None:
            return hits
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not node.bounds.intersects(envelope):
                continue
            hits.extend(
                item_id
                for item_id, env in node.items
                if env.intersects(envelope)
            )
            if node.children is not None:
                stack.extend(node.children)
        return hits

    def items(self):
        """Every ``(item_id, envelope)`` entry (inner nodes hold straddlers)."""
        if self._root is None:
            return
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield from node.items
            if node.children is not None:
                stack.extend(node.children)

    def join_batches(self, other, test=None):
        """Synchronized quadtree traversal join.

        Walks both trees in lockstep over node *pairs* whose bounds
        intersect. Because quadtrees keep straddling items at inner
        nodes, each pair job also schedules "these local items against
        that whole subtree" sweeps so no item level is missed; every
        candidate pair is examined exactly once, and ``test`` applied to
        it where it is found.
        """
        if not isinstance(other, QuadTree):
            yield from super().join_batches(other, test)
            return
        if self._root is None or other._root is None:
            return
        ids: List[int] = []
        other_ids: List[int] = []
        candidates = 0

        def examine(outer, inner, outer_is_other):
            # scans outer x inner in that order; outer holds other's items
            # when outer_is_other
            nonlocal candidates
            for io, eo in outer:
                for ii, ei in inner:
                    if (
                        ei.min_x <= eo.max_x
                        and eo.min_x <= ei.max_x
                        and ei.min_y <= eo.max_y
                        and eo.min_y <= ei.max_y
                    ):
                        candidates += 1
                        if outer_is_other:
                            own, env, theirs, their_env = ii, ei, io, eo
                        else:
                            own, env, theirs, their_env = io, eo, ii, ei
                        if test is None or test(env, their_env):
                            ids.append(own)
                            other_ids.append(theirs)

        pair_jobs = [(self._root, other._root)]
        # (items, node, flipped): items from one tree vs a subtree of the
        # other; flipped=True when the items belong to ``other``
        sweep_jobs: List[Tuple[list, _QNode, bool]] = []
        while pair_jobs:
            na, nb = pair_jobs.pop()
            if not na.bounds.intersects(nb.bounds):
                continue
            examine(na.items, nb.items, False)
            if candidates >= JOIN_BATCH:
                yield ids, other_ids, candidates
                ids, other_ids, candidates = [], [], 0
            if nb.children is not None and na.items:
                for child in nb.children:
                    sweep_jobs.append((na.items, child, False))
            if na.children is not None and nb.items:
                for child in na.children:
                    sweep_jobs.append((nb.items, child, True))
            if na.children is not None and nb.children is not None:
                for ca in na.children:
                    for cb in nb.children:
                        if ca.bounds.intersects(cb.bounds):
                            pair_jobs.append((ca, cb))
        while sweep_jobs:
            items, node, flipped = sweep_jobs.pop()
            live = [
                (i, e) for i, e in items if e.intersects(node.bounds)
            ]
            if not live:
                continue
            examine(node.items, live, not flipped)
            if candidates >= JOIN_BATCH:
                yield ids, other_ids, candidates
                ids, other_ids, candidates = [], [], 0
            if node.children is not None:
                for child in node.children:
                    sweep_jobs.append((live, child, flipped))
        if candidates:
            yield ids, other_ids, candidates

    def nearest(self, x: float, y: float, k: int = 1) -> List[int]:
        result: List[int] = []
        if k <= 0:
            return result
        for item_id, _dist in self.nearest_iter(x, y):
            result.append(item_id)
            if len(result) >= k:
                break
        return result

    def nearest_iter(self, x: float, y: float):
        """Stream (item_id, envelope distance) best-first."""
        if self._root is None:
            return
        counter = 0
        heap: List[Tuple[float, int, bool, object]] = [
            (self._root.bounds.distance_to_point(x, y), 0, False, self._root)
        ]
        while heap:
            dist, _c, is_item, payload = heapq.heappop(heap)
            if is_item:
                yield payload, dist  # type: ignore[misc]
                continue
            node: _QNode = payload  # type: ignore[assignment]
            for item_id, env in node.items:
                counter += 1
                heapq.heappush(
                    heap, (env.distance_to_point(x, y), counter, True, item_id)
                )
            if node.children is not None:
                for child in node.children:
                    counter += 1
                    heapq.heappush(
                        heap,
                        (child.bounds.distance_to_point(x, y), counter, False, child),
                    )

    def __len__(self) -> int:
        return self._size

    @classmethod
    def bulk_load(
        cls,
        items: Iterable[Tuple[int, Envelope]],
        max_items: int = 16,
        max_depth: int = 12,
    ) -> "QuadTree":
        materialised = list(items)
        if not materialised:
            return cls(max_items=max_items, max_depth=max_depth)
        world = Envelope.union_all(env for _i, env in materialised).expanded(1.0)
        tree = cls(bounds=world, max_items=max_items, max_depth=max_depth)
        for item_id, env in materialised:
            tree._insert_into(tree._root, (item_id, env))  # type: ignore[arg-type]
            tree._size += 1
        return tree


def _all_items(node: _QNode) -> List[Tuple[int, Envelope]]:
    items = list(node.items)
    if node.children is not None:
        for child in node.children:
            items.extend(_all_items(child))
    return items
