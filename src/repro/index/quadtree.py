"""PR quadtree with envelope items.

Models the tessellation-style indexing of the commercial DBMS in the
paper's comparison (the ``ironbark`` profile): space is recursively
quartered and an envelope is stored in the smallest quadrant that fully
contains it. Straddling envelopes stay at inner nodes, which is exactly
the behaviour that makes quadtree filters coarser than R-trees on long
skinny road segments — a shape difference J-A2 exposes.

Only building and maintenance live here: a :class:`Node`'s box is its
quadrant, an inner node keeps its straddlers as entries, and
:class:`SpatialIndex` walks the nodes.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.geometry.base import Envelope
from repro.index.base import Node, SpatialIndex


def _quadrants(b: Envelope) -> List[Envelope]:
    cx, cy = b.center
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
        self.root: Optional[Node] = Node(bounds) if bounds is not None else None
        self._size = 0

    def _ensure_root(self, env: Envelope) -> None:
        if self.root is None:
            # seed with a square around the first envelope
            margin = max(env.width, env.height, 1.0)
            self.root = Node(env.expanded(margin))
        # grow the root while the envelope escapes it
        while not self.root.box.contains(env):
            b = self.root.box
            grown = Envelope(
                b.min_x - b.width if env.min_x < b.min_x else b.min_x,
                b.min_y - b.height if env.min_y < b.min_y else b.min_y,
                b.max_x + b.width if env.max_x > b.max_x else b.max_x,
                b.max_y + b.height if env.max_y > b.max_y else b.max_y,
            )
            # reinsert everything from the old tree
            moved = list(self.items())
            self.root = Node(grown)
            for item in moved:
                self._insert(item)

    def insert(self, item_id: int, envelope: Envelope) -> None:
        self._ensure_root(envelope)
        self._insert((item_id, envelope))
        self._size += 1

    def _insert(self, item: Tuple[int, Envelope]) -> None:
        env = item[1]
        node: Node = self.root  # type: ignore[assignment]
        depth = 0
        while node.children is not None:
            for child in node.children:
                if child.box.contains(env):
                    node, depth = child, depth + 1
                    break
            else:
                node.entries.append(item)  # straddles the split lines
                return
        node.entries.append(item)
        if len(node.entries) > self.max_items and depth < self.max_depth:
            # after a split, straddlers stay; nothing left to push
            _split(node)

    def remove(self, item_id: int, envelope: Envelope) -> bool:
        node = self.root
        while node is not None:
            for i, (stored_id, stored_env) in enumerate(node.entries):
                if stored_id == item_id and stored_env == envelope:
                    node.entries.pop(i)
                    self._size -= 1
                    return True
            node = next(
                (c for c in node.children or () if c.box.contains(envelope)),
                None,
            )
        return False

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
        for item in materialised:
            tree._insert(item)
        tree._size = len(materialised)
        return tree


def _split(node: Node) -> None:
    """Quarter a leaf, pushing every entry a quadrant contains down."""
    node.children = [Node(q) for q in _quadrants(node.box)]  # type: ignore[arg-type]
    keep: List[Tuple[int, Envelope]] = []
    for item in node.entries:
        for child in node.children:
            if child.box.contains(item[1]):
                child.entries.append(item)
                break
        else:
            keep.append(item)
    node.entries = keep
