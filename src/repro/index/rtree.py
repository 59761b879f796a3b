"""R-tree with quadratic-split insertion and STR bulk loading.

This is the index behind the ``greenwood`` and ``bluestem`` engine
profiles (PostGIS and MySQL both use R-tree variants). Bulk loading uses
Sort-Tile-Recursive packing — the strategy a real loader applies during
``CREATE SPATIAL INDEX`` on a populated table, and the reason the loading
micro benchmark (J-T3) separates "load rows" from "build index" timings.

Only building and maintenance live here: a leaf :class:`Node` holds
entries, an inner node children, and :class:`SpatialIndex` walks them.
Maintenance computes on the envelopes' floats and builds an Envelope only
for a box that changes, making the choices the Envelope arithmetic would.
"""

from __future__ import annotations

import math
from operator import attrgetter, itemgetter
from typing import Iterable, List, Optional, Tuple

from repro.geometry.base import Envelope
from repro.index.base import Node, SpatialIndex


def _cover(a: Tuple, b: Tuple) -> Tuple[float, float, float, float]:
    """``Envelope.union`` on ``(min_x, min_y, max_x, max_y)`` tuples."""
    return (min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]))


def _recompute(node: Node) -> None:
    boxes = (
        [env for _i, env in node.entries] if node.children is None
        else [child.box for child in node.children]
    )
    node.box = Envelope.union_all(boxes) if boxes else None


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
        x0, y0, x1, y1 = envelope.as_tuple()
        path = [self.root]
        while path[-1].children is not None:
            # choose-leaf: the first child of least (enlargement, area)
            best = None
            for child in path[-1].children:
                box = child.box
                bx0, by0, bx1, by1 = box.min_x, box.min_y, box.max_x, box.max_y
                area = (bx1 - bx0) * (by1 - by0)
                grow = ((x1 if x1 > bx1 else bx1) - (x0 if x0 < bx0 else bx0)) * (
                    (y1 if y1 > by1 else by1) - (y0 if y0 < by0 else by0)
                ) - area
                if best is None or grow < least or (grow == least and area < best_area):
                    best, least, best_area = child, grow, area
            path.append(best)
        path[-1].entries.append((item_id, envelope))
        self._size += 1
        # bottom up: an overfull node splits and its sibling joins the parent;
        # a box grows to cover the envelope, and above one that covers it
        # nothing changes (an empty root leaf takes the envelope as its box)
        split: Optional[Node] = None
        for node in reversed(path):
            if split is not None:
                node.children.append(split)  # type: ignore[union-attr]
            members = node.entries if node.children is None else node.children
            if len(members) > self.max_entries:
                split = self._split(node, members)
                continue
            split, box = None, node.box
            if box is not None and box.contains(envelope):
                return
            node.box = envelope if box is None else box.union(envelope)
        if split is not None:  # the root itself split: grow the tree
            self.root = Node(None, children=[self.root, split])
            _recompute(self.root)

    def _split(self, node: Node, members: list) -> Node:
        """Quadratic split: seeds are the most wasteful pair, then the first member
        of strongest preference joins the group it enlarges least, until one group
        must take the rest; ``node`` keeps one group, the returned sibling the other."""
        leaf = node.children is None
        rects = [(b.min_x, b.min_y, b.max_x, b.max_y)
                 for b in (m[1] if leaf else m.box for m in members)]
        areas = [(x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in rects]
        worst, seeds = -math.inf, (0, 1)
        for i, (ix0, iy0, ix1, iy1) in enumerate(rects):
            for j in range(i + 1, len(rects)):
                jx0, jy0, jx1, jy1 = rects[j]
                waste = ((jx1 if jx1 > ix1 else ix1) - (jx0 if jx0 < ix0 else ix0)) * (
                    (jy1 if jy1 > iy1 else iy1) - (jy0 if jy0 < iy0 else iy0)
                ) - areas[i] - areas[j]
                if waste > worst:
                    worst, seeds = waste, (i, j)
        groups, boxes = ([seeds[0]], [seeds[1]]), [rects[seeds[0]], rects[seeds[1]]]
        rest = [k for k in range(len(rects)) if k not in seeds]
        while rest:
            # a group that needs every member left takes them in order (the
            # other never comes to need them too: 2 * min_entries <= max_entries)
            if len(groups[0]) + len(rest) <= self.min_entries:
                pick, chosen = 0, 0
            elif len(groups[1]) + len(rest) <= self.min_entries:
                pick, chosen = 0, 1
            else:
                (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = boxes
                area_a, area_b = (ax1 - ax0) * (ay1 - ay0), (bx1 - bx0) * (by1 - by0)
                pick = None
                for position, k in enumerate(rest):
                    x0, y0, x1, y1 = rects[k]
                    grow_a = ((x1 if x1 > ax1 else ax1) - (x0 if x0 < ax0 else ax0)) * (
                        (y1 if y1 > ay1 else ay1) - (y0 if y0 < ay0 else ay0)
                    ) - area_a
                    grow_b = ((x1 if x1 > bx1 else bx1) - (x0 if x0 < bx0 else bx0)) * (
                        (y1 if y1 > by1 else by1) - (y0 if y0 < by0 else by0)
                    ) - area_b
                    if pick is None or abs(grow_a - grow_b) > strongest:
                        pick, strongest = position, abs(grow_a - grow_b)
                        chosen = not (grow_a, area_a, len(groups[0])) <= (
                            grow_b, area_b, len(groups[1]))
            k = rest.pop(pick)
            groups[chosen].append(k)
            boxes[chosen] = _cover(boxes[chosen], rects[k])
        node.box, sibling = Envelope(*boxes[0]), Node(Envelope(*boxes[1]))
        kept, moved = ([members[k] for k in group] for group in groups)
        if leaf:
            node.entries, sibling.entries = kept, moved
        else:
            node.children, sibling.children = kept, moved
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
        """Remove the first entry equal to ``(item_id, env)``, depth first; a
        box is recomputed only where ``env`` touched one of its edges."""
        x0, y0, x1, y1 = env.as_tuple()
        if node.children is None:
            try:
                node.entries.remove((item_id, env))  # the first equal entry
            except ValueError:
                return False
        else:
            for i, child in enumerate(node.children):
                box = child.box
                if not (x0 > box.max_x or x1 < box.min_x or y0 > box.max_y
                        or y1 < box.min_y) and self._remove_rec(child, item_id, env):
                    if child.box is None:  # emptied
                        del node.children[i]
                    break
            else:
                return False
        box = node.box
        if x0 == box.min_x or y0 == box.min_y or x1 == box.max_x or y1 == box.max_y:
            _recompute(node)
        return True

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
    below) by the centers of their boxes (sorted as ``min + max``: halving
    is exact, so in the same order) into nodes of ``max_entries``."""
    n = len(members)
    per_node = max_entries
    node_count = math.ceil(n / per_node)
    slice_count = max(1, math.ceil(math.sqrt(node_count)))
    per_slice = slice_count * per_node
    members = sorted(members, key=lambda m: (b := box_of(m)).min_x + b.max_x)
    nodes: List[Node] = []
    for s in range(0, n, per_slice):
        vertical = sorted(
            members[s : s + per_slice],
            key=lambda m: (b := box_of(m)).min_y + b.max_y,
        )
        for t in range(0, len(vertical), per_node):
            group = vertical[t : t + per_node]
            node = Node(None, group) if leaf else Node(None, children=group)
            _recompute(node)
            nodes.append(node)
    return nodes
