"""Join operators: nested loop, hash, index nested loop, and the two
spatial joins that answer their predicate inside the candidate loop
(synchronized tree traversal and PBSM).

Every join emits :class:`~repro.sql.executor.Batch` values whose columns
are the outer and inner sides' row lists side by side — a pair of rows
is one position in both, never a merged row.
"""

from __future__ import annotations

import math
from itertools import compress, islice
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SqlPlanError
from repro.faults import FAULTS
from repro.geometry.base import Envelope, Geometry
from repro.obs.waits import CPU_INDEX_PROBE, WAITS
from repro.sql.executor import (
    BATCH_SIZE,
    Batch,
    Evaluator,
    ExecContext,
    PlanNode,
)
from repro.storage.catalog import IndexEntry
from repro.storage.table import Table


def _beside(left: Batch, right: Batch) -> Batch:
    """Two equally long batches as one: row *i* pairs their rows *i*."""
    return Batch({**left.columns, **right.columns}, left.size)


def _cross(outer: Batch, inner: Batch) -> Iterator[Batch]:
    """Every (outer row, inner row) pair, outer-major, in batches of about
    :data:`BATCH_SIZE` pairs; ``inner`` must not be empty."""
    rows = max(1, BATCH_SIZE // inner.size)
    width = min(inner.size, BATCH_SIZE)
    for start in range(0, outer.size, rows):
        part = outer.slice(start, start + rows)
        for first in range(0, inner.size, width):
            piece = inner.slice(first, first + width)
            yield _beside(
                part.take([i for i in range(part.size) for _ in range(piece.size)]),
                piece.take(list(range(piece.size)) * part.size),
            )


class NestedLoopJoin(PlanNode):
    """Materialising nested loop (inner side buffered once)."""

    def __init__(self, outer: PlanNode, inner: PlanNode,
                 condition: Optional[Evaluator], label: str = ""):
        self.outer = outer
        self.inner = inner
        self.condition = condition
        self.label = label

    def batches(self, ctx: ExecContext) -> Iterator[Batch]:
        inner = Batch.concat(self.inner.batches(ctx))
        guard = ctx.guard
        if guard is not None and inner.size:
            guard.reserve(inner.size, inner.row(0))
        condition = self.condition
        stats = ctx.stats
        considered = 0
        emitted = 0
        try:
            for outer in self.outer.batches(ctx):
                considered += outer.size * inner.size
                if not inner.size:
                    continue
                for pairs in _cross(outer, inner):
                    if guard is not None:
                        guard.tick(pairs.size)
                    if condition is not None:
                        pairs = pairs.select(condition(pairs, ctx))
                    if pairs.size:
                        emitted += pairs.size
                        yield pairs
        finally:
            stats.join_pairs_considered += considered
            stats.join_pairs_emitted += emitted

    def describe(self) -> str:
        return f"NestedLoopJoin {self.label}".rstrip()

    def children(self) -> Sequence[PlanNode]:
        return (self.outer, self.inner)


class HashJoin(PlanNode):
    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        outer_key: Evaluator,
        inner_key: Evaluator,
        residual: Optional[Evaluator] = None,
        label: str = "",
    ):
        self.outer = outer
        self.inner = inner
        self.outer_key = outer_key
        self.inner_key = inner_key
        self.residual = residual
        self.label = label

    def batches(self, ctx: ExecContext) -> Iterator[Batch]:
        guard = ctx.guard
        parts: List[Batch] = []
        buckets: Dict[Any, List[int]] = {}
        base = 0
        for batch in self.inner.batches(ctx):
            kept = 0
            for i, key in enumerate(self.inner_key(batch, ctx), base):
                if key is not None:
                    buckets.setdefault(key, []).append(i)
                    kept += 1
            if guard is not None and kept:
                guard.reserve(kept, batch.row(0))
            parts.append(batch)
            base += batch.size
        inner = Batch.concat(parts)
        del parts
        residual = self.residual
        stats = ctx.stats
        considered = 0
        emitted = 0
        try:
            for outer in self.outer.batches(ctx):
                outer_pos: List[int] = []
                inner_pos: List[int] = []
                for i, key in enumerate(self.outer_key(outer, ctx)):
                    matches = buckets.get(key) if key is not None else None
                    if matches:
                        outer_pos.extend([i] * len(matches))
                        inner_pos.extend(matches)
                considered += len(outer_pos)
                if guard is not None:
                    guard.tick(len(outer_pos))
                for start in range(0, len(outer_pos), BATCH_SIZE):
                    stop = start + BATCH_SIZE
                    batch = _beside(
                        outer.take(outer_pos[start:stop]),
                        inner.take(inner_pos[start:stop]),
                    )
                    if residual is not None:
                        batch = batch.select(residual(batch, ctx))
                    if batch.size:
                        emitted += batch.size
                        yield batch
        finally:
            stats.join_pairs_considered += considered
            stats.join_pairs_emitted += emitted
            stats.rows_scanned += considered

    def describe(self) -> str:
        return f"HashJoin {self.label}".rstrip()

    def children(self) -> Sequence[PlanNode]:
        return (self.outer, self.inner)


class IndexNestedLoopJoin(PlanNode):
    """For each outer row, probe the inner table's spatial index."""

    def __init__(
        self,
        outer: PlanNode,
        table: Table,
        alias: str,
        entry: IndexEntry,
        probe: Callable[[Batch, ExecContext], List[Optional[Envelope]]],
        residual: Optional[Evaluator],
        label: str = "",
    ):
        self.outer = outer
        self.table = table
        self.alias = alias
        self.entry = entry
        self.probe = probe
        self.residual = residual
        self.label = label

    def batches(self, ctx: ExecContext) -> Iterator[Batch]:
        alias = self.alias
        residual = self.residual
        probe = self.probe
        # per-probe timing only when the wait monitor was on as the
        # loop started: the wrapper is taken once per execution
        search = WAITS.timed(CPU_INDEX_PROBE, self.entry.index.search)
        heap = self.table.rows
        stats = ctx.stats
        guard = ctx.guard
        snapshot = ctx.snapshot
        row_visible = (
            self.table.row_visible
            if snapshot is not None and self.table.mvcc_versions else None
        )
        probes = 0
        candidates = 0
        emitted = 0
        try:
            for outer in self.outer.batches(ctx):
                positions: List[int] = []
                inner_rows: List[tuple] = []
                before = candidates
                for i, envelope in enumerate(probe(outer, ctx)):
                    if envelope is None:
                        continue
                    if FAULTS.active:
                        FAULTS.hit("index.probe")
                    probes += 1
                    row_ids = search(envelope)
                    candidates += len(row_ids)
                    if row_visible is None:
                        rows = list(map(heap.__getitem__, row_ids))
                    else:
                        # the index keeps versions a snapshot may not see
                        rows = [
                            heap[rid] for rid in row_ids
                            if heap[rid] is not None
                            and row_visible(rid, snapshot)
                        ]
                    positions.extend([i] * len(rows))
                    inner_rows.extend(rows)
                if guard is not None:
                    guard.tick(candidates - before)
                for start in range(0, len(positions), BATCH_SIZE):
                    stop = start + BATCH_SIZE
                    part = inner_rows[start:stop]
                    batch = _beside(
                        outer.take(positions[start:stop]),
                        Batch({alias: part}, len(part)),
                    )
                    if residual is not None:
                        batch = batch.select(residual(batch, ctx))
                    if batch.size:
                        emitted += batch.size
                        yield batch
        finally:
            stats.index_probes += probes
            stats.index_candidates += candidates
            stats.rows_scanned += candidates
            stats.join_pairs_considered += candidates
            stats.join_pairs_emitted += emitted
            self.entry.probes += probes

    def describe(self) -> str:
        return (
            f"IndexNestedLoopJoin {self.table.name} AS {self.alias} "
            f"USING {self.entry.name} {self.label}"
        )

    def children(self) -> Sequence[PlanNode]:
        return (self.outer,)


class SpatialJoinPredicate:
    """The spatial conjunct a tree or PBSM join answers itself.

    ``name`` is the predicate (``None`` for ``&&``, which candidate
    generation alone decides) and ``inner_first`` says the inner side is
    its first argument. On the MBR-only profile the predicate's envelope
    test runs inside the join's candidate loop and is the verdict; on
    exact profiles that loop only intersects envelopes and :meth:`refine`
    runs the kernel over each surviving batch.
    """

    __slots__ = ("name", "inner_first")

    def __init__(self, name: Optional[str], inner_first: bool):
        self.name = name
        self.inner_first = inner_first

    def envelope_test(self, profile) -> Optional[Callable[[Envelope, Envelope], bool]]:
        """The test to fuse, called as ``test(outer_env, inner_env)``."""
        if self.name is None:
            return None
        return profile.join_filter(self.name, swapped=self.inner_first)

    def refines(self, profile) -> bool:
        return self.name is not None and profile.exact

    def refine(self, profile, outer_geoms, inner_geoms, stats) -> List[Optional[bool]]:
        if self.inner_first:
            return profile.refine(self.name, inner_geoms, outer_geoms, stats)
        return profile.refine(self.name, outer_geoms, inner_geoms, stats)


class SpatialTreeJoin(PlanNode):
    """Synchronized index-traversal join of two indexed tables.

    Both sides must be bare table scans with spatial indexes on the
    joined geometry columns; candidate pairs come from
    ``SpatialIndex.join_batches`` (a lockstep descent of both trees, with
    the predicate's fused envelope test), so neither side is re-probed
    per row. Exact profiles refine each candidate batch through the
    engine profile, and any remaining join conjuncts run as a compiled
    residual.
    """

    def __init__(
        self,
        outer_table: Table,
        outer_alias: str,
        outer_entry: IndexEntry,
        inner_table: Table,
        inner_alias: str,
        inner_entry: IndexEntry,
        condition: SpatialJoinPredicate,
        residual: Optional[Evaluator],
        label: str = "",
    ):
        self.outer_table = outer_table
        self.outer_alias = outer_alias
        self.outer_entry = outer_entry
        self.inner_table = inner_table
        self.inner_alias = inner_alias
        self.inner_entry = inner_entry
        self.condition = condition
        self.residual = residual
        self.label = label
        self._outer_geom = outer_table.column_index(outer_entry.column_name)
        self._inner_geom = inner_table.column_index(inner_entry.column_name)

    def batches(self, ctx: ExecContext) -> Iterator[Batch]:
        stats = ctx.stats
        profile = ctx.profile
        self.outer_entry.probes += 1
        self.inner_entry.probes += 1
        outer_heap = self.outer_table.rows
        inner_heap = self.inner_table.rows
        outer_alias = self.outer_alias
        inner_alias = self.inner_alias
        outer_geom = itemgetter(self._outer_geom)
        inner_geom = itemgetter(self._inner_geom)
        condition = self.condition
        refines = condition.refines(profile)
        residual = self.residual
        guard = ctx.guard
        snapshot = ctx.snapshot
        outer_visible = (
            self.outer_table.row_visible
            if snapshot is not None and self.outer_table.mvcc_versions
            else None
        )
        inner_visible = (
            self.inner_table.row_visible
            if snapshot is not None and self.inner_table.mvcc_versions
            else None
        )
        considered = 0
        emitted = 0
        try:
            for ids, other_ids, candidates in self.outer_entry.index.join_batches(
                self.inner_entry.index, condition.envelope_test(profile)
            ):
                considered += candidates
                if guard is not None:
                    guard.tick(candidates)
                if outer_visible is not None or inner_visible is not None:
                    visible = [
                        (a, b) for a, b in zip(ids, other_ids)
                        if (outer_visible is None or outer_visible(a, snapshot))
                        and (inner_visible is None or inner_visible(b, snapshot))
                    ]
                    ids = [a for a, _b in visible]
                    other_ids = [b for _a, b in visible]
                if not ids:
                    continue
                outer_rows = list(map(outer_heap.__getitem__, ids))
                inner_rows = list(map(inner_heap.__getitem__, other_ids))
                batch = Batch(
                    {outer_alias: outer_rows, inner_alias: inner_rows}, len(ids)
                )
                if residual is not None:
                    batch = batch.select(residual(batch, ctx))
                if refines and batch.size:
                    batch = batch.select(condition.refine(
                        profile,
                        list(map(outer_geom, batch.columns[outer_alias])),
                        list(map(inner_geom, batch.columns[inner_alias])),
                        stats,
                    ))
                if batch.size:
                    emitted += batch.size
                    yield batch
        finally:
            stats.join_pairs_considered += considered
            stats.join_pairs_emitted += emitted
            stats.rows_scanned += considered

    def describe(self) -> str:
        return (
            f"SpatialTreeJoin {self.outer_table.name} AS {self.outer_alias} "
            f"x {self.inner_table.name} AS {self.inner_alias} "
            f"USING ({self.outer_entry.name}, {self.inner_entry.name}) "
            f"{self.label}"
        ).rstrip()


class PBSMJoin(PlanNode):
    """Partition-based spatial-merge join (Patel & DeWitt).

    Materialises both inputs, grid-partitions their envelopes over the
    joint extent, plane-sweeps within each cell, and deduplicates pairs
    replicated into several cells with the reference-point test (a pair
    counts only in the cell owning the lower-left corner of its envelope
    intersection). The predicate's fused envelope test runs in the sweep.
    Needs no index on either side.
    """

    #: aim for roughly this many items per grid cell
    TARGET_PER_CELL = 32
    MAX_CELLS_PER_AXIS = 64

    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        outer_geom: Evaluator,
        inner_geom: Evaluator,
        condition: SpatialJoinPredicate,
        residual: Optional[Evaluator],
        label: str = "",
    ):
        self.outer = outer
        self.inner = inner
        self.outer_geom = outer_geom
        self.inner_geom = inner_geom
        self.condition = condition
        self.residual = residual
        self.label = label

    def _materialise(
        self, plan: PlanNode, geom_fn: Evaluator, ctx: ExecContext
    ) -> Tuple[Batch, List[Geometry]]:
        """The input as one batch without its NULL-geometry rows, and
        those rows' geometries."""
        parts: List[Batch] = []
        geoms: List[Geometry] = []
        guard = ctx.guard
        for batch in plan.batches(ctx):
            values = geom_fn(batch, ctx)
            for geom in values:
                if geom is not None and not isinstance(geom, Geometry):
                    raise SqlPlanError(
                        f"spatial join expects geometry operands, got {geom!r}"
                    )
            batch = batch.select([geom is not None for geom in values])
            if not batch.size:
                continue
            if guard is not None:
                guard.reserve(batch.size, batch.row(0))
            parts.append(batch)
            geoms.extend(geom for geom in values if geom is not None)
        return Batch.concat(parts), geoms

    def batches(self, ctx: ExecContext) -> Iterator[Batch]:
        outer, outer_geoms = self._materialise(self.outer, self.outer_geom, ctx)
        inner, inner_geoms = self._materialise(self.inner, self.inner_geom, ctx)
        if not outer.size or not inner.size:
            return
        stats = ctx.stats
        profile = ctx.profile
        condition = self.condition
        refines = condition.refines(profile)
        residual = self.residual
        guard = ctx.guard
        considered = 0
        emitted = 0
        try:
            for outer_pos, inner_pos, candidates in self._candidates(
                [g.envelope for g in outer_geoms],
                [g.envelope for g in inner_geoms],
                condition.envelope_test(profile),
                stats,
            ):
                considered += candidates
                if guard is not None:
                    guard.tick(candidates)
                if not outer_pos:
                    continue
                batch = _beside(outer.take(outer_pos), inner.take(inner_pos))
                if residual is not None:
                    keep = [value is True for value in residual(batch, ctx)]
                    batch = batch.select(keep)
                    outer_pos = list(compress(outer_pos, keep))
                    inner_pos = list(compress(inner_pos, keep))
                if refines and batch.size:
                    batch = batch.select(condition.refine(
                        profile,
                        list(map(outer_geoms.__getitem__, outer_pos)),
                        list(map(inner_geoms.__getitem__, inner_pos)),
                        stats,
                    ))
                if batch.size:
                    emitted += batch.size
                    yield batch
        finally:
            stats.join_pairs_considered += considered
            stats.join_pairs_emitted += emitted

    def _candidates(self, outer_envs, inner_envs, test, stats):
        """``(outer positions, inner positions, candidates)`` per group of
        cells holding about :data:`BATCH_SIZE` candidates."""
        universe = Envelope.union_all(outer_envs + inner_envs)
        total = len(outer_envs) + len(inner_envs)
        per_axis = max(
            1,
            min(
                self.MAX_CELLS_PER_AXIS,
                int(math.sqrt(total / self.TARGET_PER_CELL)) + 1,
            ),
        )
        min_x, min_y = universe.min_x, universe.min_y
        cell_w = (universe.width / per_axis) or 1.0
        cell_h = (universe.height / per_axis) or 1.0
        last = per_axis - 1

        # record = (min_x, max_x, min_y, max_y, cell_x, cell_y, position),
        # (cell_x, cell_y) being the cell of the envelope's lower-left corner
        cells: Dict[Tuple[int, int], Tuple[list, list]] = {}
        for side, envs in ((0, outer_envs), (1, inner_envs)):
            for position, env in enumerate(envs):
                x0 = min(int((env.min_x - min_x) / cell_w), last)
                x1 = min(int((env.max_x - min_x) / cell_w), last)
                y0 = min(int((env.min_y - min_y) / cell_h), last)
                y1 = min(int((env.max_y - min_y) / cell_h), last)
                record = (
                    env.min_x, env.max_x, env.min_y, env.max_y, x0, y0, position
                )
                for gx in range(x0, x1 + 1):
                    for gy in range(y0, y1 + 1):
                        bucket = cells.get((gx, gy))
                        if bucket is None:
                            bucket = ([], [])
                            cells[(gx, gy)] = bucket
                        bucket[side].append(record)
        stats.partitions_built += len(cells)

        outer_pos: List[int] = []
        inner_pos: List[int] = []
        candidates = 0
        for (gx, gy), (cell_outer, cell_inner) in cells.items():
            if not cell_outer or not cell_inner:
                continue
            cell_outer.sort(key=_min_x)
            cell_inner.sort(key=_min_x)
            candidates += _sweep(
                cell_outer, cell_inner, gx, gy, test,
                outer_envs, inner_envs, outer_pos, inner_pos,
            )
            if candidates >= BATCH_SIZE:
                yield outer_pos, inner_pos, candidates
                outer_pos, inner_pos, candidates = [], [], 0
        if candidates:
            yield outer_pos, inner_pos, candidates

    def describe(self) -> str:
        return f"PBSMJoin {self.label}".rstrip()

    def children(self) -> Sequence[PlanNode]:
        return (self.outer, self.inner)


_min_x = itemgetter(0)


def _sweep(side_a, side_b, gx, gy, test, envs_a, envs_b, out_a, out_b) -> int:
    """Forward plane sweep of one PBSM cell over two min_x-sorted record
    lists; returns the number of candidates found.

    Each x/y-overlapping pair is met once — the record with the smaller
    ``min_x`` scans forward through the other list while the x ranges
    overlap — and is a candidate only in the cell owning its reference
    point. That point's cell is the larger of the two lower-left corner
    cells, and both are at most ``(gx, gy)`` here, so the test is whether
    either record's corner lies in this cell's column (and row).
    Candidates ``test(env_a, env_b)`` accepts (all without a test) are
    appended to ``out_a`` / ``out_b`` as positions.
    """
    found = 0
    i = 0
    j = 0
    len_a = len(side_a)
    len_b = len(side_b)
    while i < len_a and j < len_b:
        a = side_a[i]
        b = side_b[j]
        if a[0] <= b[0]:
            _x0, max_x, min_y, max_y, cx, cy, pos = a
            owns_x, owns_y = cx == gx, cy == gy
            for x0, _x1, y0, y1, ox, oy, other in islice(side_b, j, None):
                if x0 > max_x:
                    break
                if (
                    y0 <= max_y and min_y <= y1
                    and (owns_x or ox == gx) and (owns_y or oy == gy)
                ):
                    found += 1
                    if test is None or test(envs_a[pos], envs_b[other]):
                        out_a.append(pos)
                        out_b.append(other)
            i += 1
        else:
            _x0, max_x, min_y, max_y, cx, cy, pos = b
            owns_x, owns_y = cx == gx, cy == gy
            for x0, _x1, y0, y1, ox, oy, other in islice(side_a, i, None):
                if x0 > max_x:
                    break
                if (
                    y0 <= max_y and min_y <= y1
                    and (owns_x or ox == gx) and (owns_y or oy == gy)
                ):
                    found += 1
                    if test is None or test(envs_a[other], envs_b[pos]):
                        out_a.append(other)
                        out_b.append(pos)
            j += 1
    return found


