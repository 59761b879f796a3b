"""R-tree with quadratic-split insertion and STR bulk loading.

This is the index behind the ``greenwood`` and ``bluestem`` engine
profiles (PostGIS and MySQL both use R-tree variants). Bulk loading uses
Sort-Tile-Recursive packing — the strategy a real loader applies during
``CREATE SPATIAL INDEX`` on a populated table, and the reason the loading
micro benchmark (J-T3) separates "load rows" from "build index" timings.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, List, Optional, Tuple

from repro.geometry.base import Envelope
from repro.index.base import JOIN_BATCH, SpatialIndex


class _Node:
    __slots__ = ("leaf", "envelope", "entries")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.envelope: Optional[Envelope] = None
        # leaf: (item_id, env); inner: (child, env) kept as (entry, env)
        self.entries: List[Tuple[object, Envelope]] = []

    def recompute(self) -> None:
        if self.entries:
            self.envelope = Envelope.union_all(env for _e, env in self.entries)
        else:
            self.envelope = None


def _enlargement(env: Optional[Envelope], extra: Envelope) -> float:
    if env is None:
        return extra.area
    merged = env.union(extra)
    return merged.area - env.area


class RTree(SpatialIndex):
    """Guttman R-tree (quadratic split), max fanout ``max_entries``."""

    kind = "rtree"

    def __init__(self, max_entries: int = 16):
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.max_entries = max_entries
        self.min_entries = max(2, max_entries // 3)
        self.root = _Node(leaf=True)
        self._size = 0

    # -- insertion -----------------------------------------------------------

    def insert(self, item_id: int, envelope: Envelope) -> None:
        leaf, path = self._choose_leaf(envelope)
        leaf.entries.append((item_id, envelope))
        self._size += 1
        self._adjust(leaf, path)

    def _choose_leaf(self, env: Envelope) -> Tuple[_Node, List[_Node]]:
        node = self.root
        path: List[_Node] = []
        while not node.leaf:
            path.append(node)
            best = min(
                node.entries,
                key=lambda entry: (
                    _enlargement(entry[1], env),
                    entry[1].area,
                ),
            )
            node = best[0]  # type: ignore[assignment]
        return node, path

    def _adjust(self, node: _Node, path: List[_Node]) -> None:
        node.recompute()
        split: Optional[_Node] = None
        if len(node.entries) > self.max_entries:
            split = self._split(node)
        for parent in reversed(path):
            parent.entries = [
                (child, child.envelope)  # refresh child envelope
                if child is node or child is split
                else (child, env)
                for child, env in parent.entries
            ]
            if split is not None:
                parent.entries.append((split, split.envelope))
                split = None
            parent.recompute()
            node = parent
            if len(node.entries) > self.max_entries:
                split = self._split(node)
        if split is not None:  # the root itself split: grow the tree
            new_root = _Node(leaf=False)
            new_root.entries = [
                (self.root, self.root.envelope),
                (split, split.envelope),
            ]
            new_root.recompute()
            self.root = new_root

    def _split(self, node: _Node) -> _Node:
        """Quadratic split: seeds are the most wasteful pair."""
        entries = node.entries
        worst = -math.inf
        seed_a, seed_b = 0, 1
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                merged = entries[i][1].union(entries[j][1])
                waste = merged.area - entries[i][1].area - entries[j][1].area
                if waste > worst:
                    worst = waste
                    seed_a, seed_b = i, j
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        env_a = entries[seed_a][1]
        env_b = entries[seed_b][1]
        rest = [e for k, e in enumerate(entries) if k not in (seed_a, seed_b)]
        while rest:
            # force-assign when one group must absorb all the rest
            if len(group_a) + len(rest) <= self.min_entries:
                group_a.extend(rest)
                env_a = Envelope.union_all([env_a] + [e[1] for e in rest])
                break
            if len(group_b) + len(rest) <= self.min_entries:
                group_b.extend(rest)
                env_b = Envelope.union_all([env_b] + [e[1] for e in rest])
                break
            # pick the entry with the strongest preference
            best_idx = max(
                range(len(rest)),
                key=lambda k: abs(
                    _enlargement(env_a, rest[k][1])
                    - _enlargement(env_b, rest[k][1])
                ),
            )
            entry = rest.pop(best_idx)
            grow_a = _enlargement(env_a, entry[1])
            grow_b = _enlargement(env_b, entry[1])
            if (grow_a, env_a.area, len(group_a)) <= (
                grow_b,
                env_b.area,
                len(group_b),
            ):
                group_a.append(entry)
                env_a = env_a.union(entry[1])
            else:
                group_b.append(entry)
                env_b = env_b.union(entry[1])
        node.entries = group_a
        node.recompute()
        sibling = _Node(leaf=node.leaf)
        sibling.entries = group_b
        sibling.recompute()
        return sibling

    # -- removal --------------------------------------------------------------

    def remove(self, item_id: int, envelope: Envelope) -> bool:
        found = self._remove_rec(self.root, item_id, envelope)
        if found:
            self._size -= 1
            # collapse a root that degenerated to a single inner child
            while not self.root.leaf and len(self.root.entries) == 1:
                self.root = self.root.entries[0][0]  # type: ignore[assignment]
        return found

    def _remove_rec(self, node: _Node, item_id: int, env: Envelope) -> bool:
        if node.leaf:
            for i, (stored_id, stored_env) in enumerate(node.entries):
                if stored_id == item_id and stored_env == env:
                    node.entries.pop(i)
                    node.recompute()
                    return True
            return False
        for i, (child, child_env) in enumerate(node.entries):
            if child_env.intersects(env) and self._remove_rec(child, item_id, env):  # type: ignore[arg-type]
                if not child.entries:  # type: ignore[union-attr]
                    node.entries.pop(i)
                else:
                    node.entries[i] = (child, child.envelope)  # type: ignore[union-attr]
                node.recompute()
                return True
        return False

    # -- queries ---------------------------------------------------------------

    def search(self, envelope: Envelope) -> List[int]:
        hits: List[int] = []
        if self.root.envelope is None:
            return hits
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.envelope is None or not node.envelope.intersects(envelope):
                continue
            if node.leaf:
                hits.extend(
                    item_id  # type: ignore[misc]
                    for item_id, env in node.entries
                    if env.intersects(envelope)
                )
            else:
                stack.extend(
                    child  # type: ignore[misc]
                    for child, env in node.entries
                    if env.intersects(envelope)
                )
        return hits

    def items(self):
        """Every ``(item_id, envelope)`` leaf entry."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.leaf:
                yield from node.entries
            else:
                stack.extend(child for child, _env in node.entries)

    def join_batches(self, other, test=None):
        """Synchronized traversal join: descend both trees at once.

        Maintains a stack of node pairs whose envelopes intersect; a
        leaf x leaf pair examines its intersecting entry pairs — and
        applies ``test`` to them right there, so a rejected pair costs one
        call — while an inner node is expanded only against the entries of
        its partner that its partner's envelope admits. This visits each
        candidate pair once instead of re-descending the inner tree per
        outer row.
        """
        if not isinstance(other, RTree):
            yield from super().join_batches(other, test)
            return
        root_a, root_b = self.root, other.root
        if root_a.envelope is None or root_b.envelope is None:
            return
        if not root_a.envelope.intersects(root_b.envelope):
            return
        ids: List[int] = []
        other_ids: List[int] = []
        candidates = 0
        stack = [(root_a, root_b)]
        while stack:
            na, nb = stack.pop()
            if na.leaf and nb.leaf:
                # search-space restriction: only entries that reach into
                # the partner node's box can pair
                box = na.envelope
                x0, y0, x1, y1 = box.min_x, box.min_y, box.max_x, box.max_y
                entries_b = [
                    entry for entry in nb.entries
                    if (eb := entry[1]).min_x <= x1 and x0 <= eb.max_x
                    and eb.min_y <= y1 and y0 <= eb.max_y
                ]
                if not entries_b:
                    continue
                box = nb.envelope
                x0, y0, x1, y1 = box.min_x, box.min_y, box.max_x, box.max_y
                entries_a = [
                    entry for entry in na.entries
                    if (ea := entry[1]).min_x <= x1 and x0 <= ea.max_x
                    and ea.min_y <= y1 and y0 <= ea.max_y
                ]
                for ia, ea in entries_a:
                    x0, y0, x1, y1 = ea.min_x, ea.min_y, ea.max_x, ea.max_y
                    for ib, eb in entries_b:
                        if (
                            eb.min_x <= x1 and x0 <= eb.max_x
                            and eb.min_y <= y1 and y0 <= eb.max_y
                        ):
                            candidates += 1
                            if test is None or test(ea, eb):
                                ids.append(ia)
                                other_ids.append(ib)
                if candidates >= JOIN_BATCH:
                    yield ids, other_ids, candidates
                    ids, other_ids, candidates = [], [], 0
            elif na.leaf or not (
                nb.leaf or na.envelope.area >= nb.envelope.area
            ):
                box = na.envelope
                x0, y0, x1, y1 = box.min_x, box.min_y, box.max_x, box.max_y
                stack.extend([
                    (na, child) for child, env in nb.entries
                    if env.min_x <= x1 and x0 <= env.max_x
                    and env.min_y <= y1 and y0 <= env.max_y
                ])
            else:
                box = nb.envelope
                x0, y0, x1, y1 = box.min_x, box.min_y, box.max_x, box.max_y
                stack.extend([
                    (child, nb) for child, env in na.entries
                    if env.min_x <= x1 and x0 <= env.max_x
                    and env.min_y <= y1 and y0 <= env.max_y
                ])
        if candidates:
            yield ids, other_ids, candidates

    def nearest(self, x: float, y: float, k: int = 1) -> List[int]:
        """Best-first search over node envelopes (exact for envelopes)."""
        result: List[int] = []
        if k <= 0:
            return result
        for item_id, _dist in self.nearest_iter(x, y):
            result.append(item_id)
            if len(result) >= k:
                break
        return result

    def nearest_iter(self, x: float, y: float):
        """Stream (item_id, envelope distance) best-first (Hjaltason-Samet)."""
        if self.root.envelope is None:
            return
        counter = 0
        heap: List[Tuple[float, int, bool, object]] = [
            (self.root.envelope.distance_to_point(x, y), counter, False, self.root)
        ]
        while heap:
            dist, _c, is_item, payload = heapq.heappop(heap)
            if is_item:
                yield payload, dist  # type: ignore[misc]
                continue
            node: _Node = payload  # type: ignore[assignment]
            for entry, env in node.entries:
                counter += 1
                heapq.heappush(
                    heap,
                    (env.distance_to_point(x, y), counter, node.leaf, entry),
                )

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        h = 1
        node = self.root
        while not node.leaf:
            h += 1
            node = node.entries[0][0]  # type: ignore[assignment]
        return h

    # -- bulk loading ------------------------------------------------------------

    @classmethod
    def bulk_load(
        cls, items: Iterable[Tuple[int, Envelope]], max_entries: int = 16
    ) -> "RTree":
        """Sort-Tile-Recursive packing."""
        entries: List[Tuple[object, Envelope]] = [
            (item_id, env) for item_id, env in items
        ]
        tree = cls(max_entries=max_entries)
        tree._size = len(entries)
        if not entries:
            return tree
        level = _str_pack_leaves(entries, max_entries)
        while len(level) > 1:
            level = _str_pack_inner(level, max_entries)
        tree.root = level[0]
        return tree


def _str_pack_leaves(
    entries: List[Tuple[object, Envelope]], max_entries: int
) -> List[_Node]:
    def center(entry: Tuple[object, Envelope]) -> Tuple[float, float]:
        return entry[1].center

    return _str_pack(entries, max_entries, center, leaf=True)


def _str_pack_inner(nodes: List[_Node], max_entries: int) -> List[_Node]:
    entries = [(node, node.envelope) for node in nodes]

    def center(entry: Tuple[object, Envelope]) -> Tuple[float, float]:
        return entry[1].center

    return _str_pack(entries, max_entries, center, leaf=False)


def _str_pack(entries, max_entries, center, leaf: bool) -> List[_Node]:
    n = len(entries)
    per_node = max_entries
    node_count = math.ceil(n / per_node)
    slice_count = max(1, math.ceil(math.sqrt(node_count)))
    per_slice = slice_count * per_node
    entries = sorted(entries, key=lambda e: center(e)[0])
    nodes: List[_Node] = []
    for s in range(0, n, per_slice):
        vertical = sorted(entries[s : s + per_slice], key=lambda e: center(e)[1])
        for t in range(0, len(vertical), per_node):
            node = _Node(leaf=leaf)
            node.entries = list(vertical[t : t + per_node])
            node.recompute()
            nodes.append(node)
    return nodes
