"""Uniform grid spatial index.

The simplest filter structure: hash each envelope into every fixed-size
cell it overlaps. Great on uniformly distributed data, degenerate on
skew — one of the effects experiment J-A2 measures against the R-tree
and quadtree.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Set, Tuple

from repro.geometry.base import Envelope
from repro.index.base import SpatialIndex


class GridIndex(SpatialIndex):
    """Fixed-cell-size uniform grid."""

    kind = "grid"

    def __init__(self, cell_size: float = 1.0):
        if cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self._cells: Dict[Tuple[int, int], List[Tuple[int, Envelope]]] = {}
        self._size = 0

    def _cell_range(self, env: Envelope):
        c = self.cell_size
        x0 = math.floor(env.min_x / c)
        x1 = math.floor(env.max_x / c)
        y0 = math.floor(env.min_y / c)
        y1 = math.floor(env.max_y / c)
        for gx in range(x0, x1 + 1):
            for gy in range(y0, y1 + 1):
                yield (gx, gy)

    def _overlapping_cells(self, env: Envelope):
        """Occupied-aware variant of :meth:`_cell_range` for lookups.

        When the envelope's cell range is larger than the occupied cell
        count — a large query window over a tiny cell size can span
        astronomically many coordinates — probe the occupied cells
        against the range instead of enumerating it. Lookups only ever
        need cells that exist."""
        c = self.cell_size
        x0 = math.floor(env.min_x / c)
        x1 = math.floor(env.max_x / c)
        y0 = math.floor(env.min_y / c)
        y1 = math.floor(env.max_y / c)
        if (x1 - x0 + 1) * (y1 - y0 + 1) > len(self._cells):
            for gx, gy in self._cells:
                if x0 <= gx <= x1 and y0 <= gy <= y1:
                    yield (gx, gy)
            return
        for gx in range(x0, x1 + 1):
            for gy in range(y0, y1 + 1):
                yield (gx, gy)

    def insert(self, item_id: int, envelope: Envelope) -> None:
        for cell in self._cell_range(envelope):
            self._cells.setdefault(cell, []).append((item_id, envelope))
        self._size += 1

    def remove(self, item_id: int, envelope: Envelope) -> bool:
        found = False
        # materialised: empty buckets are deleted mid-loop
        for cell in list(self._overlapping_cells(envelope)):
            bucket = self._cells.get(cell)
            if not bucket:
                continue
            before = len(bucket)
            bucket[:] = [
                (i, e) for i, e in bucket if not (i == item_id and e == envelope)
            ]
            if len(bucket) < before:
                found = True
            if not bucket:
                del self._cells[cell]
        if found:
            self._size -= 1
        return found

    def search(self, envelope: Envelope) -> List[int]:
        seen: Set[int] = set()
        hits: List[int] = []
        for cell in self._overlapping_cells(envelope):
            for item_id, env in self._cells.get(cell, ()):
                if item_id not in seen and env.intersects(envelope):
                    seen.add(item_id)
                    hits.append(item_id)
        return hits

    def items(self):
        """Every ``(item_id, envelope)`` entry, deduplicated across cells."""
        seen: Set[int] = set()
        for bucket in self._cells.values():
            for item_id, env in bucket:
                if item_id not in seen:
                    seen.add(item_id)
                    yield item_id, env

    def __len__(self) -> int:
        return self._size

    @classmethod
    def bulk_load(
        cls, items: Iterable[Tuple[int, Envelope]], cell_size: float = None  # type: ignore[assignment]
    ) -> "GridIndex":
        """Pick a cell size from the data when not given.

        The heuristic is ~2x the mean item extent, floored by a fraction
        of the overall data extent — the floor matters for point layers,
        whose items have zero extent: without it the cell size collapses
        and a window search would have to enumerate astronomically many
        cells.
        """
        materialised = list(items)
        if cell_size is None:
            if materialised:
                spans = [
                    max(env.width, env.height, 1e-9)
                    for _i, env in materialised
                ]
                world = Envelope.union_all(env for _i, env in materialised)
                floor = max(world.width, world.height, 1e-9) / 64.0
                cell_size = max(2.0 * sum(spans) / len(spans), floor)
            else:
                cell_size = 1.0
        index = cls(cell_size=cell_size)
        for item_id, env in materialised:
            index.insert(item_id, env)
        return index
