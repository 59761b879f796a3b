"""Join operators: nested loop, hash, index nested loop, and the
synchronized tree join, which answers its spatial predicate inside the
candidate loop over two indexes (a side without one is packed into a
transient R-tree per execution).

Every join emits :class:`~repro.sql.executor.Batch` values whose columns
are the outer and inner sides' row lists side by side — a pair of rows
is one position in both, never a merged row.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SqlPlanError
from repro.faults import FAULTS
from repro.geometry.base import Envelope, Geometry
from repro.index import RTree, SpatialIndex
from repro.obs.waits import CPU_INDEX_PROBE, WAITS
from repro.sql.executor import (
    BATCH_SIZE,
    Batch,
    Evaluator,
    ExecContext,
    PlanNode,
    SeqScan,
)
from repro.storage.catalog import IndexEntry
from repro.storage.table import Table, stored_envelope


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
    """The spatial conjunct a :class:`SpatialTreeJoin` answers itself.

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
    """Synchronized tree-traversal join, answering its spatial conjunct
    inside the candidate loop.

    Each side is one of two kinds. With an index ``entry``, the side is a
    bare :class:`SeqScan` whose table is read through that spatial index
    on the joined geometry column. Without one, the side is any plan (a
    filter, a prior join, an unindexed table): its rows are gathered once
    per execution and their envelopes STR-packed into a transient
    :class:`RTree`, and that plan is a child of the join. Candidate pairs
    come from ``SpatialIndex.join_batches`` (a lockstep descent of both
    trees, with the predicate's fused envelope test), so neither side is
    re-probed per row. The remaining join conjuncts run as a compiled
    residual before exact profiles refine the surviving pairs through the
    engine profile.
    """

    def __init__(
        self,
        outer: PlanNode,
        outer_geom: Evaluator,
        outer_entry: Optional[IndexEntry],
        inner: PlanNode,
        inner_geom: Evaluator,
        inner_entry: Optional[IndexEntry],
        condition: SpatialJoinPredicate,
        residual: Optional[Evaluator],
        label: str = "",
    ):
        self.outer = outer
        self.outer_geom = outer_geom
        self.outer_entry = outer_entry
        self.inner = inner
        self.inner_geom = inner_geom
        self.inner_entry = inner_entry
        self.condition = condition
        self.residual = residual
        self.label = label
        # named now: tracing later wraps the packed sides in spans
        self._names = " x ".join(
            f"{plan.table.name} AS {plan.alias}" if isinstance(plan, SeqScan)
            else type(plan).__name__
            for plan in (outer, inner)
        )

    def batches(self, ctx: ExecContext) -> Iterator[Batch]:
        outer_index, outer_rows, outer_visible = _open(
            self.outer, self.outer_geom, self.outer_entry, ctx
        )
        inner_index, inner_rows, inner_visible = _open(
            self.inner, self.inner_geom, self.inner_entry, ctx
        )
        if not len(outer_index) or not len(inner_index):
            return
        stats = ctx.stats
        profile = ctx.profile
        outer_geom = self.outer_geom
        inner_geom = self.inner_geom
        condition = self.condition
        refines = condition.refines(profile)
        residual = self.residual
        guard = ctx.guard
        snapshot = ctx.snapshot
        considered = 0
        emitted = 0
        try:
            for ids, other_ids, candidates in outer_index.join_batches(
                inner_index, condition.envelope_test(profile)
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
                batch = _beside(outer_rows(ids), inner_rows(other_ids))
                if residual is not None:
                    batch = batch.select(residual(batch, ctx))
                if refines and batch.size:
                    batch = batch.select(condition.refine(
                        profile,
                        outer_geom(batch, ctx),
                        inner_geom(batch, ctx),
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
        indexes = ", ".join(
            "transient" if entry is None else entry.name
            for entry in (self.outer_entry, self.inner_entry)
        )
        return (
            f"SpatialTreeJoin {self._names} USING ({indexes}) {self.label}"
        ).rstrip()

    def children(self) -> Sequence[PlanNode]:
        sides = ((self.outer, self.outer_entry), (self.inner, self.inner_entry))
        return tuple(plan for plan, entry in sides if entry is None)


def _open(
    plan: PlanNode, geom: Evaluator, entry: Optional[IndexEntry],
    ctx: ExecContext,
) -> Tuple[SpatialIndex, Callable[[List[int]], Batch], Optional[Callable]]:
    """One tree-join side as ``(index, rows, visible)``: ``rows(ids)`` is
    the batch of the rows the index ids name, and ``visible`` the MVCC
    check those ids still need (``None`` when they need none)."""
    if entry is not None:
        table = plan.table
        heap = table.rows
        alias = plan.alias
        entry.probes += 1
        visible = (
            table.row_visible
            if ctx.snapshot is not None and table.mvcc_versions else None
        )
        return entry.index, lambda ids: Batch(
            {alias: list(map(heap.__getitem__, ids))}, len(ids)
        ), visible
    # packed: the rows with a geometry, keyed by position in one batch
    parts: List[Batch] = []
    envelopes: List[Envelope] = []
    guard = ctx.guard
    for batch in plan.batches(ctx):
        values = geom(batch, ctx)
        for value in values:
            if value is not None and not isinstance(value, Geometry):
                raise SqlPlanError(
                    f"spatial join expects geometry operands, got {value!r}"
                )
        # an empty geometry, like NULL, meets nothing and is not packed
        boxes = list(map(stored_envelope, values))
        batch = batch.select([box is not None for box in boxes])
        if not batch.size:
            continue
        if guard is not None:
            guard.reserve(batch.size, batch.row(0))
        parts.append(batch)
        envelopes.extend(box for box in boxes if box is not None)
    packed = Batch.concat(parts)
    return RTree.bulk_load(enumerate(envelopes)), packed.take, None
