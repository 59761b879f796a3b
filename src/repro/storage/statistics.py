"""Table statistics for cost-based spatial planning.

Every heap table keeps a :class:`TableStats` with one
:class:`ColumnStats` per geometry column. The cheap summary part (row
count, running envelope-extent sums, a union bounding box) is maintained
incrementally by ``Table.insert_rows``/``delete_row``; the
``ANALYZE`` statement additionally rebuilds an envelope *histogram* per
column, which the planner uses to correct the uniform-distribution join
selectivity estimate for spatially correlated (or anti-correlated)
inputs, and an exact distinct count per non-geometry column, which sizes
an equality join against the spatial one. Distinct counts are not
maintained incrementally: a table never ``ANALYZE``d has none.

The join cardinality model is the classic MBR-intersection estimate:
two envelopes drawn independently inside a universe of width ``W`` and
height ``H`` intersect with probability roughly
``((w_a + w_b) / W) * ((h_a + h_b) / H)`` where ``w``/``h`` are average
extents. With histograms available the estimate is scaled by the
cell-wise correlation of the two densities (1.0 for uniform data,
larger when both inputs cluster in the same cells, ~0 for disjoint
regions).
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter, sub
from typing import Dict, Iterable, List, Optional, Sequence

from repro.geometry.base import EMPTY_ENVELOPE, Envelope

#: default histogram resolution (cells per axis) built by ANALYZE
HISTOGRAM_BINS = 8

_CORNERS = tuple(map(attrgetter, ("min_x", "min_y", "max_x", "max_y")))


class EnvelopeHistogram:
    """Counts of envelope centers over a fixed grid of ``nx * ny`` cells."""

    __slots__ = ("bounds", "nx", "ny", "counts", "total")

    def __init__(self, bounds: Envelope, nx: int, ny: int,
                 counts: List[float], total: float):
        self.bounds = bounds
        self.nx = nx
        self.ny = ny
        self.counts = counts  # row-major, len == nx * ny
        self.total = total

    @classmethod
    def build(cls, corners: Sequence[Sequence[float]], bounds: Envelope,
              nx: int = HISTOGRAM_BINS,
              ny: int = HISTOGRAM_BINS) -> "EnvelopeHistogram":
        """Count the centers of the envelopes whose ``(min_x, min_y, max_x,
        max_y)`` float columns are ``corners`` (``bounds`` covers them all):
        cells unclamped first, then a far-edge center joins the last cell."""
        width = bounds.width or 1.0
        height = bounds.height or 1.0
        left, bottom = bounds.min_x, bounds.min_y
        span = nx + 1
        cells = Counter(
            int(((y0 + y1) / 2.0 - bottom) / height * ny) * span
            + int(((x0 + x1) / 2.0 - left) / width * nx)
            for x0, y0, x1, y1 in zip(*corners)
        )
        counts = [0.0] * (nx * ny)
        for cell, count in cells.items():
            gy, gx = divmod(cell, span)
            counts[min(gy, ny - 1) * nx + min(gx, nx - 1)] += float(count)
        return cls(bounds, nx, ny, counts, float(len(corners[0])))

    def rebinned(self, bounds: Envelope, nx: int, ny: int) -> List[float]:
        """Fractions of the population per cell of a *different* grid.

        Each source cell's count is distributed over the target cells it
        overlaps, proportionally to area — this lets two histograms built
        over different table extents be compared on a common grid.
        """
        out = [0.0] * (nx * ny)
        if self.total <= 0.0:
            return out
        t_width = bounds.width or 1.0
        t_height = bounds.height or 1.0
        s_cell_w = (self.bounds.width or 1.0) / self.nx
        s_cell_h = (self.bounds.height or 1.0) / self.ny
        for sy in range(self.ny):
            for sx in range(self.nx):
                count = self.counts[sy * self.nx + sx]
                if count == 0.0:
                    continue
                cell = Envelope(
                    self.bounds.min_x + sx * s_cell_w,
                    self.bounds.min_y + sy * s_cell_h,
                    self.bounds.min_x + (sx + 1) * s_cell_w,
                    self.bounds.min_y + (sy + 1) * s_cell_h,
                )
                clipped = cell.intersection(bounds)
                if clipped is None:
                    continue
                x0 = min(int((clipped.min_x - bounds.min_x) / t_width * nx), nx - 1)
                x1 = min(int((clipped.max_x - bounds.min_x) / t_width * nx), nx - 1)
                y0 = min(int((clipped.min_y - bounds.min_y) / t_height * ny), ny - 1)
                y1 = min(int((clipped.max_y - bounds.min_y) / t_height * ny), ny - 1)
                span = (x1 - x0 + 1) * (y1 - y0 + 1)
                share = count / self.total / span
                for ty in range(y0, y1 + 1):
                    base = ty * nx
                    for tx in range(x0, x1 + 1):
                        out[base + tx] += share
        return out


class ColumnStats:
    """Incremental summary of one geometry column.

    ``count``/``sum_width``/``sum_height`` track live rows exactly;
    ``bounds`` only ever grows (deletes leave it stale-conservative,
    which keeps estimates valid supersets). ``histogram`` is ``None``
    until ``ANALYZE`` runs.
    """

    __slots__ = ("count", "sum_width", "sum_height", "bounds", "histogram")

    def __init__(self) -> None:
        self.count = 0
        self.sum_width = 0.0
        self.sum_height = 0.0
        self.bounds: Optional[Envelope] = None
        self.histogram: Optional[EnvelopeHistogram] = None

    def add_all(self, envelopes: Iterable[Optional[Envelope]]) -> None:
        """Add a run of envelopes (``None`` is skipped): the sums fold left
        to right, one ``+=`` per envelope, and the bounds grow as a union
        per envelope would; an Envelope is built only when they grew."""
        count, width, height = self.count, self.sum_width, self.sum_height
        box = (self.bounds or EMPTY_ENVELOPE).as_tuple()
        x0, y0, x1, y1 = box
        for env in filter(None, envelopes):
            count += 1
            width += env.max_x - env.min_x
            height += env.max_y - env.min_y
            if not (x0 <= env.min_x and y0 <= env.min_y
                    and env.max_x <= x1 and env.max_y <= y1):
                x0, y0 = min(x0, env.min_x), min(y0, env.min_y)
                x1, y1 = max(x1, env.max_x), max(y1, env.max_y)
        self.count, self.sum_width, self.sum_height = count, width, height
        if (x0, y0, x1, y1) != box:
            self.bounds = Envelope(x0, y0, x1, y1)

    def remove(self, env: Optional[Envelope]) -> None:
        if env is None:
            return
        self.count -= 1
        self.sum_width -= env.width
        self.sum_height -= env.height
        # bounds stays as-is: shrinking would require a rescan

    @property
    def avg_width(self) -> float:
        return self.sum_width / self.count if self.count else 0.0

    @property
    def avg_height(self) -> float:
        return self.sum_height / self.count if self.count else 0.0


class TableStats:
    """Per-table statistics: one :class:`ColumnStats` per geometry column,
    and after ``ANALYZE`` the distinct count of every other column."""

    __slots__ = ("geometry", "distinct", "analyzed")

    def __init__(self, column_names: Sequence[str]) -> None:
        self.geometry: Dict[str, ColumnStats] = {
            name: ColumnStats() for name in column_names
        }
        #: column name -> distinct non-NULL values over live rows, as of
        #: the last ``ANALYZE`` (empty before it)
        self.distinct: Dict[str, int] = {}
        self.analyzed = False

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.geometry.get(name.lower())

    def rebuild(self, envelopes_by_column: Dict[str, List[Optional[Envelope]]],
                distinct: Dict[str, int]) -> None:
        """Exact recomputation + histogram build (the ANALYZE path);
        ``distinct`` replaces the per-column distinct counts."""
        for name, stats in self.geometry.items():
            live = list(filter(None, envelopes_by_column.get(name, ())))
            corners = min_x, min_y, max_x, max_y = [
                list(map(corner, live)) for corner in _CORNERS
            ]
            stats.count = len(live)
            stats.sum_width = sum(map(sub, max_x, min_x))
            stats.sum_height = sum(map(sub, max_y, min_y))
            stats.bounds = stats.histogram = None
            if live:
                box = stats.bounds = Envelope(min(min_x), min(min_y),
                                              max(max_x), max(max_y))
                stats.histogram = EnvelopeHistogram.build(corners, box)
        self.distinct = distinct
        self.analyzed = True


def estimate_join_pairs(a: Optional[ColumnStats],
                        b: Optional[ColumnStats]) -> float:
    """Expected number of envelope-intersecting pairs between two columns.

    Uniform MBR-intersection model, corrected by histogram correlation
    when both sides have been ``ANALYZE``d. Returns 0.0 when either side
    is empty or their bounds are disjoint.
    """
    if a is None or b is None or a.count <= 0 or b.count <= 0:
        return 0.0
    if a.bounds is None or b.bounds is None:
        return 0.0
    if not a.bounds.intersects(b.bounds):
        return 0.0
    universe = a.bounds.union(b.bounds)
    width = universe.width or 1.0
    height = universe.height or 1.0
    p_x = min(1.0, (a.avg_width + b.avg_width) / width)
    p_y = min(1.0, (a.avg_height + b.avg_height) / height)
    # point-like layers still intersect partners of nonzero extent, and
    # even point-point joins self-match: keep a small floor per axis
    p_x = max(p_x, 1.0 / max(a.count * b.count, 1))
    p_y = max(p_y, 1.0 / max(a.count * b.count, 1))
    pairs = a.count * b.count * p_x * p_y
    if a.histogram is not None and b.histogram is not None:
        n = HISTOGRAM_BINS
        pa = a.histogram.rebinned(universe, n, n)
        pb = b.histogram.rebinned(universe, n, n)
        correlation = (n * n) * sum(x * y for x, y in zip(pa, pb))
        pairs *= correlation
    return min(pairs, float(a.count) * float(b.count))
