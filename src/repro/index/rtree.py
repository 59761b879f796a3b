"""R-tree with quadratic-split insertion and STR bulk loading.

This is the index behind the ``greenwood`` and ``bluestem`` engine
profiles (PostGIS and MySQL both use R-tree variants). Bulk loading uses
Sort-Tile-Recursive packing — the strategy a real loader applies during
``CREATE SPATIAL INDEX`` on a populated table, and the reason the loading
micro benchmark (J-T3) separates "load rows" from "build index" timings.

Only building and maintenance live here: a leaf :class:`Node` holds
entries, an inner node children, and :class:`SpatialIndex` walks them.
"""

from __future__ import annotations

import math
from operator import attrgetter, itemgetter
from typing import Iterable, List, Optional, Tuple

from repro.geometry.base import Envelope
from repro.index.base import Node, SpatialIndex


def _enlargement(env: Optional[Envelope], extra: Envelope) -> float:
    if env is None:
        return extra.area
    merged = env.union(extra)
    return merged.area - env.area


def _recompute(node: Node) -> None:
    boxes = (
        [env for _i, env in node.entries] if node.children is None
        else [child.box for child in node.children]
    )
    node.box = Envelope.union_all(boxes) if boxes else None


def _members(node: Node) -> List[Tuple[object, Envelope]]:
    """``(member, envelope)`` pairs: the entries of a leaf, the
    ``(child, box)`` pairs of an inner node."""
    if node.children is None:
        return node.entries  # type: ignore[return-value]
    return [(child, child.box) for child in node.children]


def _set_members(node: Node, members: List[Tuple[object, Envelope]]) -> None:
    if node.children is None:
        node.entries = members  # type: ignore[assignment]
    else:
        node.children = [child for child, _box in members]  # type: ignore[misc]
    _recompute(node)


class RTree(SpatialIndex):
    """Guttman R-tree (quadratic split), max fanout ``max_entries``."""

    kind = "rtree"

    def __init__(self, max_entries: int = 16):
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.max_entries = max_entries
        self.min_entries = max(2, max_entries // 3)
        self.root = Node(None)
        self._size = 0

    # -- insertion -----------------------------------------------------------

    def insert(self, item_id: int, envelope: Envelope) -> None:
        leaf, path = self._choose_leaf(envelope)
        leaf.entries.append((item_id, envelope))
        self._size += 1
        self._adjust(leaf, path)

    def _choose_leaf(self, env: Envelope) -> Tuple[Node, List[Node]]:
        node = self.root
        path: List[Node] = []
        while node.children is not None:
            path.append(node)
            node = min(
                node.children,
                key=lambda child: (_enlargement(child.box, env), child.box.area),
            )
        return node, path

    def _adjust(self, leaf: Node, path: List[Node]) -> None:
        _recompute(leaf)
        split = self._split(leaf) if len(leaf.entries) > self.max_entries else None
        for parent in reversed(path):
            if split is not None:
                parent.children.append(split)  # type: ignore[union-attr]
            _recompute(parent)
            split = (
                self._split(parent)
                if len(parent.children) > self.max_entries  # type: ignore[arg-type]
                else None
            )
        if split is not None:  # the root itself split: grow the tree
            self.root = Node(None, children=[self.root, split])
            _recompute(self.root)

    def _split(self, node: Node) -> Node:
        """Quadratic split: seeds are the most wasteful pair."""
        entries = _members(node)
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
        sibling = Node(None, children=None if node.children is None else [])
        _set_members(node, group_a)
        _set_members(sibling, group_b)
        return sibling

    # -- removal --------------------------------------------------------------

    def remove(self, item_id: int, envelope: Envelope) -> bool:
        found = self._remove_rec(self.root, item_id, envelope)
        if found:
            self._size -= 1
            # collapse a root that degenerated to a single inner child
            while self.root.children is not None and len(self.root.children) == 1:
                self.root = self.root.children[0]
        return found

    def _remove_rec(self, node: Node, item_id: int, env: Envelope) -> bool:
        if node.children is None:
            for i, (stored_id, stored_env) in enumerate(node.entries):
                if stored_id == item_id and stored_env == env:
                    node.entries.pop(i)
                    _recompute(node)
                    return True
            return False
        for i, child in enumerate(node.children):
            if child.box.intersects(env) and self._remove_rec(child, item_id, env):
                if child.box is None:  # emptied
                    node.children.pop(i)
                _recompute(node)
                return True
        return False

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        h = 1
        node = self.root
        while node.children is not None:
            h += 1
            node = node.children[0]
        return h

    # -- bulk loading ------------------------------------------------------------

    @classmethod
    def bulk_load(
        cls, items: Iterable[Tuple[int, Envelope]], max_entries: int = 16
    ) -> "RTree":
        """Sort-Tile-Recursive packing."""
        entries = [(item_id, env) for item_id, env in items]
        tree = cls(max_entries=max_entries)
        tree._size = len(entries)
        if not entries:
            return tree
        level = _str_pack(entries, itemgetter(1), max_entries, leaf=True)
        while len(level) > 1:
            level = _str_pack(level, attrgetter("box"), max_entries, leaf=False)
        tree.root = level[0]
        return tree


def _str_pack(members: list, box_of, max_entries: int, leaf: bool) -> List[Node]:
    """One STR level: tile ``members`` (entries, or the nodes of the level
    below) by the centers of their boxes into nodes of ``max_entries``."""
    n = len(members)
    per_node = max_entries
    node_count = math.ceil(n / per_node)
    slice_count = max(1, math.ceil(math.sqrt(node_count)))
    per_slice = slice_count * per_node
    members = sorted(members, key=lambda m: box_of(m).center[0])
    nodes: List[Node] = []
    for s in range(0, n, per_slice):
        vertical = sorted(
            members[s : s + per_slice], key=lambda m: box_of(m).center[1]
        )
        for t in range(0, len(vertical), per_node):
            group = vertical[t : t + per_node]
            node = Node(None, group) if leaf else Node(None, children=group)
            _recompute(node)
            nodes.append(node)
    return nodes
