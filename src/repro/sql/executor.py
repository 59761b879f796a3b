"""Execution machinery: batches and the batch-at-a-time plan operators.

Plans are trees of operators, each exposing ``batches(ctx)`` as a
restartable generator of :class:`Batch` values — at most about
:data:`BATCH_SIZE` rows each, held as parallel lists with one list of
stored row tuples per table alias, so a join pairs rows without merging
them. ``ctx`` (:class:`ExecContext`) carries parameters, the engine
profile, the function registry, runtime statistics, the guard and the
MVCC snapshot. Expressions are compiled to batch evaluators by
:mod:`repro.sql.compiler`; the join operators live in
:mod:`repro.sql.joins`. There is one executor: every operator, scalar
uses included, runs on batches.
"""

from __future__ import annotations

import time
from itertools import compress
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SqlPlanError
from repro.faults import FAULTS
from repro.geometry.base import Envelope, Geometry
from repro.obs.waits import CPU_INDEX_PROBE, CPU_SORT, WAITS
from repro.sql.functions import AGGREGATES, FunctionRegistry
from repro.storage.catalog import Catalog, IndexEntry
from repro.storage.table import Table

#: rows per batch: large enough that per-batch costs (generator resumes,
#: constant sub-expressions, guard checks) vanish, small enough that no
#: operator but the materialising ones holds more than a few of them
BATCH_SIZE = 1024


class Batch:
    """A bounded group of rows as parallel lists.

    ``columns[alias][i]`` is row *i*'s stored tuple for that table alias;
    aggregation adds an ``"__agg__"`` list (result tuples) and projection
    leaves only ``"__out__"`` (output tuples).
    """

    __slots__ = ("columns", "size")

    def __init__(self, columns: Dict[str, list], size: int):
        self.columns = columns
        self.size = size

    def __len__(self) -> int:
        return self.size

    def select(self, mask: Sequence[Any]) -> "Batch":
        """The rows whose ``mask`` value is ``True`` (NULL drops too)."""
        keep = [value is True for value in mask]
        kept = keep.count(True)
        if kept == self.size:
            return self
        return Batch(
            {key: list(compress(col, keep)) for key, col in self.columns.items()},
            kept,
        )

    def take(self, positions: Sequence[int]) -> "Batch":
        """The rows at ``positions``, in that order (repeats allowed)."""
        return Batch(
            {
                key: list(map(col.__getitem__, positions))
                for key, col in self.columns.items()
            },
            len(positions),
        )

    def slice(self, start: int, stop: int) -> "Batch":
        stop = min(stop, self.size)
        return Batch(
            {key: col[start:stop] for key, col in self.columns.items()},
            stop - start,
        )

    def row(self, i: int) -> Dict[str, Any]:
        """Row *i* as ``{alias: stored tuple}`` (a guard's byte sample)."""
        return {key: col[i] for key, col in self.columns.items()}

    @staticmethod
    def concat(batches: Iterable["Batch"]) -> "Batch":
        columns: Dict[str, list] = {}
        size = 0
        for batch in batches:
            for key, col in batch.columns.items():
                columns.setdefault(key, []).extend(col)
            size += batch.size
        return Batch(columns, size)


#: the one-row batch scalar uses evaluate against: it reads no column
UNIT = Batch({}, 1)

Evaluator = Callable[[Batch, "ExecContext"], List[Any]]


def scalar(fn: Evaluator, ctx: "ExecContext") -> Any:
    """Evaluate a column-free expression once."""
    return fn(UNIT, ctx)[0]


class Stats:
    """Runtime counters, exposed on the connection for the benchmark."""

    __slots__ = (
        "rows_scanned",
        "index_probes",
        "index_candidates",
        "pages_read",
        "join_pairs_considered",
        "join_pairs_emitted",
        "plan_cache_hits",
        "plan_cache_misses",
        "degraded_results",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.rows_scanned = 0
        self.index_probes = 0
        self.index_candidates = 0
        self.pages_read = 0
        self.join_pairs_considered = 0
        self.join_pairs_emitted = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.degraded_results = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "rows_scanned": self.rows_scanned,
            "index_probes": self.index_probes,
            "index_candidates": self.index_candidates,
            "pages_read": self.pages_read,
            "join_pairs_considered": self.join_pairs_considered,
            "join_pairs_emitted": self.join_pairs_emitted,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "degraded_results": self.degraded_results,
        }

    def merge(self, other: "Stats") -> None:
        """Fold a per-statement shard into this (shared) Stats object —
        the caller serialises concurrent merges with a lock."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class ExecContext:
    """Everything an operator needs at run time."""

    __slots__ = ("params", "profile", "registry", "catalog", "stats",
                 "cache", "guard", "snapshot")

    def __init__(self, params, profile, registry: FunctionRegistry,
                 catalog: Catalog, stats: Stats, guard=None, snapshot=None):
        self.params = params
        self.profile = profile
        self.registry = registry
        self.catalog = catalog
        self.stats = stats
        # per-statement memo for expensive pure geometry functions, keyed
        # by (function, argument identities) — geometries are immutable
        self.cache: Dict[tuple, Any] = {}
        #: armed :class:`repro.guard.ExecutionGuard` (None = no limits);
        #: operators skip all accounting when it is None
        self.guard = guard
        #: MVCC :class:`repro.txn.Snapshot` (None = no open transactions
        #: anywhere); scans skip visibility checks when it is None or the
        #: scanned table carries no live version stamps
        self.snapshot = snapshot


# ---------------------------------------------------------------------------
# plan operators
# ---------------------------------------------------------------------------


class PlanNode:
    def batches(self, ctx: ExecContext) -> Iterator[Batch]:
        raise NotImplementedError

    def explain(self, depth: int = 0) -> List[str]:
        lines = ["  " * depth + self.describe()]
        for child in self.children():
            lines.extend(child.explain(depth + 1))
        return lines

    def describe(self) -> str:
        return type(self).__name__

    def children(self) -> Sequence["PlanNode"]:
        return ()


class SpanNode(PlanNode):
    """Wraps a plan node to record a :class:`repro.obs.span.Span`.

    Each wrapper measures emitted rows (the sum of its batch lengths),
    cumulative wall time and the *inclusive* delta of the engine counters
    over the operator's lifetime (children included; exclusive figures
    are derived from the span tree). This is the machinery behind
    ``EXPLAIN ANALYZE`` and ``Database.last_trace()``. Wrapping mutates
    the inner tree's child pointers, so traced executions always plan
    afresh rather than reusing a cached plan.
    """

    __slots__ = ("inner", "span", "_children")

    def __init__(self, inner: PlanNode):
        from repro.obs.span import Span

        self.inner = inner
        self._children = [SpanNode(c) for c in inner.children()]
        _graft_children(self.inner, self._children)
        self.span = Span(
            type(inner).__name__,
            inner.describe(),
            [child.span for child in self._children],
        )

    def batches(self, ctx: ExecContext) -> Iterator[Batch]:
        perf_counter = time.perf_counter
        span = self.span
        stats = ctx.stats
        start = perf_counter()
        span.begin(start, stats.snapshot())
        emitted = 0
        elapsed = 0.0
        inner = self.inner.batches(ctx)
        try:
            for batch in inner:
                elapsed += perf_counter() - start
                emitted += batch.size
                yield batch
                start = perf_counter()
            elapsed += perf_counter() - start
        finally:
            # close the inner generator first so every descendant flushes
            # its buffered counters before this span snapshots them
            inner.close()
            span.finish(emitted, elapsed, stats.snapshot())

    def describe(self) -> str:
        span = self.span
        extras = "".join(
            f", {key}={value}"
            for key, value in sorted(span.exclusive_counters().items())
        )
        return (
            f"{span.detail}  "
            f"(rows={span.rows}, time={span.seconds * 1e3:.2f}ms{extras})"
        )

    def children(self) -> Sequence[PlanNode]:
        return self._children


def _graft_children(node: PlanNode, wrapped: List["SpanNode"]) -> None:
    """Point a node's child references at the instrumented wrappers."""
    originals = list(node.children())
    for attr in ("child", "outer", "inner"):
        if hasattr(node, attr):
            current = getattr(node, attr)
            for original, wrapper in zip(originals, wrapped):
                if current is original:
                    setattr(node, attr, wrapper)


def _row_batches(alias: str, rows: List[tuple]) -> Iterator[Batch]:
    for start in range(0, len(rows), BATCH_SIZE):
        part = rows[start:start + BATCH_SIZE]
        yield Batch({alias: part}, len(part))


class OneRow(PlanNode):
    """Source for SELECT without FROM."""

    def batches(self, ctx: ExecContext) -> Iterator[Batch]:
        yield Batch({}, 1)

    def describe(self) -> str:
        return "Result (no table)"


class SeqScan(PlanNode):
    """Every row of the table visible to the snapshot."""

    def __init__(self, table: Table, alias: str):
        self.table = table
        self.alias = alias

    def batches(self, ctx: ExecContext) -> Iterator[Batch]:
        alias = self.alias
        for _row_ids, rows in self.row_batches(ctx):
            yield Batch({alias: rows}, len(rows))

    def row_batches(
        self, ctx: ExecContext, with_ids: bool = False
    ) -> Iterator[Tuple[Optional[List[int]], List[tuple]]]:
        """``(row ids, rows)`` per batch — the ids only ``with_ids``
        (DELETE and UPDATE read them), else ``None``."""
        table = self.table
        stats = ctx.stats
        stats.pages_read += table.page_count
        table.seq_scans += 1
        guard = ctx.guard
        snapshot = ctx.snapshot
        # read once: a system view produces its rows afresh per access
        heap = table.rows
        versioned = snapshot is not None and table.mvcc_versions
        if versioned:
            xmin, xmax = table.version_arrays()
            row_visible = snapshot.row_visible
        row_ids = None
        scanned = 0
        try:
            for start in range(0, len(heap), BATCH_SIZE):
                stop = start + BATCH_SIZE
                if with_ids:
                    row_ids = [
                        rid for rid in range(start, min(stop, len(heap)))
                        if heap[rid] is not None and (
                            not versioned
                            or row_visible(xmin[rid], xmax[rid])
                        )
                    ]
                    rows = list(map(heap.__getitem__, row_ids))
                elif versioned:
                    rows = [
                        row for row, born, died in zip(
                            heap[start:stop], xmin[start:stop], xmax[start:stop]
                        )
                        if row is not None and row_visible(born, died)
                    ]
                else:
                    rows = [row for row in heap[start:stop] if row is not None]
                if not rows:
                    continue
                scanned += len(rows)
                if guard is not None:
                    guard.tick(len(rows))
                yield row_ids, rows
        finally:
            stats.rows_scanned += scanned

    def describe(self) -> str:
        return f"SeqScan {self.table.name} AS {self.alias}"


class _RowIdScan(PlanNode):
    """An access path that finds row ids in an index, then fetches the
    versions of them the snapshot may see: the index keeps superseded
    versions until vacuum, and may hold uncommitted inserts from open
    transactions, so fetches apply the same visibility rule as scans."""

    table: Table
    alias: str
    entry: IndexEntry

    def row_ids(self, ctx: ExecContext) -> Optional[List[int]]:
        """The candidate ids, ``None`` when the probe value is NULL."""
        raise NotImplementedError

    def batches(self, ctx: ExecContext) -> Iterator[Batch]:
        alias = self.alias
        for _row_ids, rows in self.row_batches(ctx):
            yield Batch({alias: rows}, len(rows))

    def row_batches(
        self, ctx: ExecContext, with_ids: bool = False
    ) -> Iterator[Tuple[Optional[List[int]], List[tuple]]]:
        """``(row ids, rows)`` per batch, as :meth:`SeqScan.row_batches`."""
        candidates = self.row_ids(ctx)
        if candidates is None:
            return
        stats = ctx.stats
        stats.index_candidates += len(candidates)
        per_page = self.table.ROWS_PER_PAGE
        stats.pages_read += len({rid // per_page for rid in candidates})
        heap = self.table.rows
        guard = ctx.guard
        snapshot = ctx.snapshot
        row_visible = (
            self.table.row_visible
            if snapshot is not None and self.table.mvcc_versions else None
        )
        ids = None
        scanned = 0
        try:
            for start in range(0, len(candidates), BATCH_SIZE):
                ids = candidates[start:start + BATCH_SIZE]
                if row_visible is not None:
                    ids = [
                        rid for rid in ids
                        if heap[rid] is not None and row_visible(rid, snapshot)
                    ]
                rows = list(map(heap.__getitem__, ids))
                if not rows:
                    continue
                scanned += len(rows)
                if guard is not None:
                    guard.tick(len(rows))
                yield (ids if with_ids else None), rows
        finally:
            stats.rows_scanned += scanned


class IndexScan(_RowIdScan):
    """Envelope probe of a spatial index, yielding candidate rows.

    The probe envelope comes from a compiled expression evaluated once per
    execution (it may reference parameters but no tables).
    """

    def __init__(
        self,
        table: Table,
        alias: str,
        entry: IndexEntry,
        probe: Callable[[ExecContext], Optional[Envelope]],
        label: str = "",
    ):
        self.table = table
        self.alias = alias
        self.entry = entry
        self.probe = probe
        self.label = label

    def row_ids(self, ctx: ExecContext) -> Optional[List[int]]:
        envelope = self.probe(ctx)
        if envelope is None:
            return None
        if FAULTS.active:
            FAULTS.hit("index.probe")
        ctx.stats.index_probes += 1
        self.entry.probes += 1
        return WAITS.timed(CPU_INDEX_PROBE, self.entry.index.search)(envelope)

    def describe(self) -> str:
        return (
            f"IndexScan {self.table.name} AS {self.alias} "
            f"USING {self.entry.name} ({self.entry.index.kind}) {self.label}"
        )


class IndexLookup(_RowIdScan):
    """Equality lookup in a key index (:class:`~repro.index.key.KeyIndex`).

    ``keys(ctx)`` evaluates, once per execution, every key the WHERE
    clause allows: one for ``col = ?``, one per option of ``col IN
    (…)``, the combinations for a key of several columns.
    """

    def __init__(
        self,
        table: Table,
        alias: str,
        entry: IndexEntry,
        keys: Callable[[ExecContext], List[Any]],
        label: str = "",
    ):
        self.table = table
        self.alias = alias
        self.entry = entry
        self.keys = keys
        self.label = label

    def row_ids(self, ctx: ExecContext) -> Optional[List[int]]:
        keys = self.keys(ctx)
        if FAULTS.active:
            FAULTS.hit("index.probe")
        ctx.stats.index_probes += 1
        self.entry.probes += 1
        return self.entry.index.lookup(keys)

    def describe(self) -> str:
        return (
            f"IndexLookup {self.table.name} AS {self.alias} "
            f"USING {self.entry.name} ({self.entry.index.kind}) {self.label}"
        ).rstrip()


class KNNScan(PlanNode):
    """Exact k-nearest-neighbour scan (Hjaltason-Samet best-first).

    Streams index entries in envelope-distance order (a lower bound on the
    exact geometry distance) and holds back each candidate until no
    unseen entry could beat it — producing rows in *exact* distance order
    without ranking the whole table. Serves ``ORDER BY geom <-> <point>
    LIMIT k`` over an indexed column.
    """

    def __init__(
        self,
        table,
        alias: str,
        entry,
        geom_index: int,
        probe: Callable[[ExecContext], Any],
        k_fn: Callable[[ExecContext], int],
    ):
        self.table = table
        self.alias = alias
        self.entry = entry
        self.geom_index = geom_index
        self.probe = probe
        self.k_fn = k_fn

    def batches(self, ctx: ExecContext) -> Iterator[Batch]:
        from repro.algorithms.distance import distance as exact_distance
        from repro.geometry.point import Point

        probe_geom = self.probe(ctx)
        if probe_geom is None:
            return
        if not isinstance(probe_geom, Geometry):
            raise SqlPlanError("KNN probe must be a geometry")
        k = self.k_fn(ctx)
        if k <= 0:
            return
        if isinstance(probe_geom, Point):
            row_ids = self._nearest(ctx, probe_geom, k)
        else:
            # envelope-to-point bounds only hold for point probes; fall
            # back to an exact full ranking for other probe geometries
            ranked = sorted(
                (exact_distance(row[self.geom_index], probe_geom), row_id)
                for row_id, row in self.table.scan(ctx.snapshot)
                if isinstance(row[self.geom_index], Geometry)
            )
            row_ids = [row_id for _d, row_id in ranked[:k]]
            ctx.stats.rows_scanned += len(row_ids)
        yield from _row_batches(
            self.alias, [self.table.get_row(row_id) for row_id in row_ids]
        )

    def _nearest(self, ctx: ExecContext, probe: Any, k: int) -> List[int]:
        """Row ids of the ``k`` rows nearest ``probe``, nearest first."""
        import heapq

        from repro.algorithms.distance import distance as exact_distance

        ctx.stats.index_probes += 1
        self.entry.probes += 1
        guard = ctx.guard
        snapshot = ctx.snapshot
        versioned = snapshot is not None and self.table.mvcc_versions
        ranked: List[int] = []
        pending: List[tuple] = []  # (exact_dist, seq, row_id)
        seq = 0
        visited = 0
        for row_id, lower_bound in self.entry.index.nearest_iter(
            probe.x, probe.y
        ):
            visited += 1
            if visited == BATCH_SIZE and guard is not None:
                guard.tick(visited)
                visited = 0
            if versioned and not self.table.row_visible(row_id, snapshot):
                continue
            while pending and pending[0][0] <= lower_bound:
                ranked.append(heapq.heappop(pending)[2])
                if len(ranked) >= k:
                    if guard is not None:
                        guard.tick(visited)
                    return ranked
            ctx.stats.rows_scanned += 1
            geom = self.table.get_row(row_id)[self.geom_index]
            if not isinstance(geom, Geometry):
                continue
            seq += 1
            heapq.heappush(pending, (exact_distance(geom, probe), seq, row_id))
        while pending and len(ranked) < k:
            ranked.append(heapq.heappop(pending)[2])
        if guard is not None and visited:
            guard.tick(visited)
        return ranked

    def describe(self) -> str:
        return (
            f"KNNScan {self.table.name} AS {self.alias} "
            f"USING {self.entry.name} ({self.entry.index.kind})"
        )


class Filter(PlanNode):
    def __init__(self, child: PlanNode, predicate: Evaluator, label: str = ""):
        self.child = child
        self.predicate = predicate
        self.label = label

    def batches(self, ctx: ExecContext) -> Iterator[Batch]:
        predicate = self.predicate
        for batch in self.child.batches(ctx):
            batch = batch.select(predicate(batch, ctx))
            if batch.size:
                yield batch

    def describe(self) -> str:
        return f"Filter {self.label}".rstrip()

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


class Aggregate(PlanNode):
    """Hash aggregation with optional grouping."""

    def __init__(
        self,
        child: PlanNode,
        group_keys: List[Evaluator],
        agg_specs: List[Tuple[str, Optional[Evaluator], bool]],
        # (name, argument evaluator or None for COUNT(*), distinct)
        always_one_group: bool,
    ):
        self.child = child
        self.group_keys = group_keys
        self.agg_specs = agg_specs
        self.always_one_group = always_one_group

    def _accumulators(self) -> list:
        return [
            AGGREGATES[name](distinct) if name == "count" else AGGREGATES[name]()
            for name, _arg, distinct in self.agg_specs
        ]

    def batches(self, ctx: ExecContext) -> Iterator[Batch]:
        guard = ctx.guard
        group_keys = self.group_keys
        # key -> (first row of the group, accumulators)
        groups: Dict[Any, Tuple[Dict[str, Any], list]] = {}
        for batch in self.child.batches(ctx):
            if group_keys:
                members: Dict[Any, Optional[List[int]]] = {}
                key_columns = [
                    [_hashable(v) for v in key(batch, ctx)] for key in group_keys
                ]
                for i, key in enumerate(zip(*key_columns)):
                    rows = members.get(key)
                    if rows is None:
                        members[key] = [i]
                    else:
                        rows.append(i)
            else:
                members = {(): None}  # None: the whole batch
            arguments = [
                None if arg is None else arg(batch, ctx)
                for _name, arg, _distinct in self.agg_specs
            ]
            for key, rows in members.items():
                group = groups.get(key)
                if group is None:
                    first = batch.row(0 if rows is None else rows[0])
                    if guard is not None:
                        guard.reserve(1, first)
                    group = groups[key] = (first, self._accumulators())
                for values, acc in zip(arguments, group[1]):
                    if values is None:
                        acc.add_rows(batch.size if rows is None else len(rows))
                    elif rows is None:
                        acc.add_all(values)
                    else:
                        acc.add_all([values[i] for i in rows])
        if not groups and self.always_one_group:
            groups[()] = ({}, self._accumulators())
        results = list(groups.values())
        for start in range(0, len(results), BATCH_SIZE):
            part = results[start:start + BATCH_SIZE]
            columns = {
                key: [first[key] for first, _accs in part]
                for key in part[0][0]
            }
            columns["__agg__"] = [
                tuple(acc.result() for acc in accs) for _first, accs in part
            ]
            yield Batch(columns, len(part))

    def describe(self) -> str:
        kind = "grouped" if self.group_keys else "plain"
        return f"Aggregate ({kind}, {len(self.agg_specs)} aggs)"

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


def _hashable(value: Any) -> Any:
    if isinstance(value, Geometry):
        return value.wkb()
    return value


class Project(PlanNode):
    def __init__(self, child: PlanNode, outputs: List[Tuple[str, Evaluator]]):
        self.child = child
        self.outputs = outputs

    def batches(self, ctx: ExecContext) -> Iterator[Batch]:
        outputs = [fn for _name, fn in self.outputs]
        for batch in self.child.batches(ctx):
            columns = [fn(batch, ctx) for fn in outputs]
            yield Batch({"__out__": list(zip(*columns))}, batch.size)

    @property
    def column_names(self) -> List[str]:
        return [name for name, _fn in self.outputs]

    def describe(self) -> str:
        return f"Project [{', '.join(self.column_names)}]"

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


class Sort(PlanNode):
    def __init__(self, child: PlanNode,
                 keys: List[Tuple[Evaluator, bool]]):
        self.child = child
        self.keys = keys  # (evaluator, descending)

    def batches(self, ctx: ExecContext) -> Iterator[Batch]:
        guard = ctx.guard
        parts: List[Batch] = []
        for batch in self.child.batches(ctx):
            if guard is not None:
                guard.reserve(batch.size, batch.row(0))
            parts.append(batch)
        materialised = Batch.concat(parts)
        del parts
        if not materialised.size:
            return
        order = WAITS.timed(CPU_SORT, self._order)(materialised, ctx)
        for start in range(0, len(order), BATCH_SIZE):
            yield materialised.take(order[start:start + BATCH_SIZE])

    def _order(self, materialised: Batch, ctx: ExecContext) -> List[int]:
        # stable multi-key sort: apply keys right-to-left
        order = list(range(materialised.size))
        for evaluator, descending in reversed(self.keys):
            keys = [_sort_key(v) for v in evaluator(materialised, ctx)]
            order.sort(key=keys.__getitem__, reverse=descending)
        return order

    def describe(self) -> str:
        return f"Sort ({len(self.keys)} keys)"

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


def _sort_key(value: Any) -> tuple:
    # None sorts first ascending (→ last descending); mixed types by name
    if value is None:
        return (0, "", 0)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (1, "", value)
    return (2, str(value), 0)


class Distinct(PlanNode):
    def __init__(self, child: PlanNode):
        self.child = child

    def batches(self, ctx: ExecContext) -> Iterator[Batch]:
        seen = set()
        for batch in self.child.batches(ctx):
            fresh = []
            for out in batch.columns["__out__"]:
                key = tuple(_hashable(v) for v in out)
                fresh.append(key not in seen)
                seen.add(key)
            batch = batch.select(fresh)
            if batch.size:
                yield batch

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


class Limit(PlanNode):
    def __init__(self, child: PlanNode, limit: Optional[Evaluator],
                 offset: Optional[Evaluator]):
        self.child = child
        self.limit = limit
        self.offset = offset

    def batches(self, ctx: ExecContext) -> Iterator[Batch]:
        n = scalar(self.limit, ctx) if self.limit is not None else None
        skip = scalar(self.offset, ctx) if self.offset is not None else 0
        if n is not None and (not isinstance(n, int) or n < 0):
            raise SqlPlanError(f"LIMIT must be a non-negative integer, got {n!r}")
        if not isinstance(skip, int) or skip < 0:
            raise SqlPlanError(f"OFFSET must be a non-negative integer, got {skip!r}")
        if n == 0:
            return
        for batch in self.child.batches(ctx):
            if skip >= batch.size:
                skip -= batch.size
                continue
            stop = batch.size if n is None else skip + n
            if skip or stop < batch.size:
                batch = batch.slice(skip, stop)
                skip = 0
            yield batch
            if n is not None:
                n -= batch.size
                if n == 0:
                    return

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

