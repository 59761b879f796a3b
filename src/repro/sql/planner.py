"""Logical planner: AST → operator tree.

The planner implements the filter-refine architecture every spatial DBMS
in the paper uses: a WHERE or JOIN conjunct of the shape
``ST_Predicate(geom_column, <expr>)`` is answered by probing the column's
spatial index with the expression's envelope (filter step) and
re-evaluating the original predicate on each candidate row (refinement
step — whose cost and exactness differ per engine profile). Equality
conjuncts on the columns of a key index (``CREATE INDEX``) are answered
by a lookup in it when that costs less. Everything else runs as
sequential scans, hash joins on equality conjuncts, or nested loops.
UPDATE and DELETE find their rows through the same access-path choice
(:meth:`Planner.plan_rows`).
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SqlPlanError
from repro.geometry.base import Envelope, Geometry
from repro.sql import ast
from repro.sql.compiler import (
    Compiler,
    Scope,
    contains_aggregate,
    is_aggregate_call,
    referenced_aliases,
)
from repro.sql.executor import (
    Aggregate,
    Batch,
    Distinct,
    Evaluator,
    ExecContext,
    Filter,
    IndexLookup,
    IndexScan,
    KNNScan,
    Limit,
    OneRow,
    PlanNode,
    Project,
    SeqScan,
    Sort,
    scalar,
)
from repro.sql.joins import (
    HashJoin,
    IndexNestedLoopJoin,
    NestedLoopJoin,
    SpatialJoinPredicate,
    SpatialTreeJoin,
)
from repro.sql.functions import SPATIAL_PREDICATES, FunctionRegistry
from repro.storage.catalog import Catalog
from repro.storage.statistics import ColumnStats, estimate_join_pairs
from repro.storage.table import Column, ColumnType, Table, stored_envelope

#: predicates whose candidates can be produced by an envelope-intersects
#: index probe (the probe envelope may be expanded, e.g. for ST_DWithin)
_INDEXABLE_PREDICATES = SPATIAL_PREDICATES - {"st_disjoint"}

#: spatial join strategies the planner can be forced into
JOIN_STRATEGIES = ("auto", "inlj", "tree", "nlj")

#: transaction-control statements: no plan tree — the database routes
#: them straight to the transaction manager (they still flow through the
#: same lexer/parser/parse-cache pipeline as everything else)
TXN_CONTROL = (ast.Begin, ast.Commit, ast.Rollback)


def is_txn_control(stmt: ast.Statement) -> bool:
    return isinstance(stmt, TXN_CONTROL)

# -- cost model weights (abstract units per basic operation) ---------------
# per outer row: one index descent of depth ~log2(n_inner)
_COST_PROBE = 1.5
# per candidate pair refined through the compiled-expression INLJ residual
_COST_CAND_INLJ = 1.4
# per candidate pair refined directly via the profile (tree join)
_COST_CAND = 1.0
# per index entry touched by the synchronized tree traversal
_COST_TREE = 0.4
# per input row gathered and STR-packed when a tree-join side has no index
_COST_PACK = 1.6
# per pair evaluated by a plain nested loop
_COST_NLJ = 2.2
# per row a sequential scan reads, and per row a lookup fetches; and
# per key a key-index lookup probes
_COST_SCAN_ROW = 1.0
_COST_KEY_PROBE = 2.0
# per row hashed (inner side) or probed (outer side) by a hash join, and
# per key-matching pair taken and run through its residual. Measured on
# the bluestem edges self-join at scale 8 (8 477 rows a side), in units of
# one tree-join candidate (0.32-0.44 us there): 0.14 us a row, 0.12 us to
# take a pair and 0.48 us for the residual `gid <` + MBR touches
_COST_HASH_ROW = 0.35
_COST_HASH_PAIR = 1.5


def split_conjuncts(expr: Optional[ast.Expr]) -> List[ast.Expr]:
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: Sequence[ast.Expr]) -> Optional[ast.Expr]:
    """The conjuncts as one left-deep ``AND``, cheapest first (by
    :func:`_rank`, ties in the given order): the compiled ``AND`` runs
    its right side only where the left is not ``False``, so an expensive
    conjunct sees just the rows the cheap ones let through."""
    result: Optional[ast.Expr] = None
    for c in sorted(conjuncts, key=_rank):
        result = c if result is None else ast.BinaryOp("and", result, c)
    return result


def _rank(expr: ast.Expr) -> int:
    """0 for plain comparisons and column tests, 1 when a non-spatial
    function is called, 2 with a spatial operator or ``st_*`` call."""
    if isinstance(expr, ast.FuncCall):
        return max(
            [2 if expr.name.startswith("st_") else 1]
            + [_rank(arg) for arg in expr.args]
        )
    if isinstance(expr, ast.BinaryOp):
        own = 2 if expr.op in ("&&", "<->") else 0
        return max(own, _rank(expr.left), _rank(expr.right))
    if isinstance(expr, ast.UnaryOp):
        return _rank(expr.operand)
    if isinstance(expr, ast.Between):
        return max(_rank(expr.value), _rank(expr.low), _rank(expr.high))
    if isinstance(expr, ast.InList):
        return max([_rank(expr.value)] + [_rank(o) for o in expr.options])
    if isinstance(expr, ast.IsNull):
        return _rank(expr.value)
    return 0


#: an equality join conjunct with its outer-side and inner-side operands
_EquiKey = Tuple[ast.Expr, ast.Expr, ast.Expr]


class _IndexableConjunct:
    """A conjunct answerable through a spatial index on ``alias.column``."""

    __slots__ = ("conjunct", "alias", "column", "other", "radius_expr",
                 "col_first")

    def __init__(self, conjunct: ast.Expr, alias: str, column: str,
                 other: ast.Expr, radius_expr: Optional[ast.Expr] = None,
                 col_first: bool = True):
        self.conjunct = conjunct
        self.alias = alias
        self.column = column
        self.other = other
        self.radius_expr = radius_expr
        # True when the indexed column is the predicate's first argument
        # (or the left '&&' operand) — needed to refine with the original
        # argument order, which matters for asymmetric predicates
        self.col_first = col_first


class Planner:
    def __init__(self, catalog: Catalog, registry: FunctionRegistry, profile):
        self.catalog = catalog
        self.registry = registry
        self.profile = profile
        #: "auto" = cost-based; "inlj"/"tree"/"nlj" force a spatial join
        #: algorithm (falling back to auto when inapplicable)
        self.join_strategy = "auto"

    # -- entry point ------------------------------------------------------

    def plan_select(self, stmt: ast.Select) -> Tuple[PlanNode, List[str]]:
        scope = Scope()
        refs: List[ast.TableRef] = []
        if stmt.source is not None:
            refs.append(stmt.source)
            refs.extend(join.table for join in stmt.joins)
            for ref in refs:
                scope.add(ref.alias, self.catalog.table(ref.name))

        conjuncts = split_conjuncts(stmt.where)
        for join in stmt.joins:
            conjuncts.extend(split_conjuncts(join.condition))

        knn = self._try_plan_knn(stmt, scope, refs, conjuncts)
        if knn is not None:
            return knn

        plan = self._plan_from(stmt, scope, refs, conjuncts)
        plan, outputs, order_sorted = self._plan_output(stmt, scope, plan)
        names = [name for name, _fn in outputs]
        if stmt.distinct:
            plan = Distinct(plan)
        if stmt.limit is not None or stmt.offset is not None:
            top = Compiler(scope, self.registry, self.profile)
            limit_fn = top.compile(stmt.limit) if stmt.limit is not None else None
            offset_fn = (
                top.compile(stmt.offset) if stmt.offset is not None else None
            )
            plan = Limit(plan, limit_fn, offset_fn)
        del order_sorted
        return plan, names

    # -- KNN rewrite -----------------------------------------------------

    def _try_plan_knn(
        self,
        stmt: ast.Select,
        scope: Scope,
        refs: List[ast.TableRef],
        conjuncts: List[ast.Expr],
    ) -> Optional[Tuple[PlanNode, List[str]]]:
        """Rewrite ``SELECT ... FROM t ORDER BY t.geom <-> <expr> LIMIT k``
        into an exact best-first KNN scan over t's spatial index."""
        if (
            len(refs) != 1
            or conjuncts
            or stmt.group_by
            or stmt.having is not None
            or stmt.distinct
            or stmt.limit is None
            or len(stmt.order_by) != 1
            or stmt.order_by[0].descending
        ):
            return None
        order_expr = stmt.order_by[0].expr
        if not (isinstance(order_expr, ast.BinaryOp) and order_expr.op == "<->"):
            return None
        alias = refs[0].alias.lower()
        table = self.catalog.table(refs[0].name)
        column = None
        probe_expr = None
        for col_side, other_side in (
            (order_expr.left, order_expr.right),
            (order_expr.right, order_expr.left),
        ):
            column = self._geometry_column(col_side, scope, alias)
            if column is not None:
                probe_expr = other_side
                break
        if column is None or probe_expr is None:
            return None
        if referenced_aliases(probe_expr, scope):
            return None  # probe must be row-independent
        entry = self.catalog.index_for(refs[0].name, column)
        if entry is None:
            return None
        items = self._expand_stars(stmt.items, scope)
        if any(contains_aggregate(i.expr) for i in items):
            return None

        compiler = Compiler(scope, self.registry, self.profile)
        probe_fn = compiler.compile(probe_expr)
        limit_fn = compiler.compile(stmt.limit)
        offset_fn = (
            compiler.compile(stmt.offset) if stmt.offset is not None else None
        )

        def k_fn(ctx: ExecContext,
                 limit_fn=limit_fn, offset_fn=offset_fn) -> int:
            limit = scalar(limit_fn, ctx)
            offset = scalar(offset_fn, ctx) if offset_fn is not None else 0
            if not isinstance(limit, int) or limit < 0:
                raise SqlPlanError(f"LIMIT must be a non-negative int, got {limit!r}")
            return limit + (offset or 0)

        scan = KNNScan(
            table,
            alias,
            entry,
            table.column_index(column),
            lambda ctx, probe_fn=probe_fn: scalar(probe_fn, ctx),
            k_fn,
        )
        outputs = [
            (self._item_name(item, index), compiler.compile(item.expr))
            for index, item in enumerate(items)
        ]
        plan: PlanNode = Project(scan, outputs)
        plan = Limit(plan, limit_fn, offset_fn)
        return plan, [name for name, _fn in outputs]

    # -- FROM / WHERE / JOIN ------------------------------------------------

    def _plan_from(
        self,
        stmt: ast.Select,
        scope: Scope,
        refs: List[ast.TableRef],
        conjuncts: List[ast.Expr],
    ) -> PlanNode:
        if not refs:
            if conjuncts:
                raise SqlPlanError("WHERE without FROM")
            return OneRow()
        compiler = Compiler(scope, self.registry, self.profile)
        remaining = list(conjuncts)
        bound: Set[str] = set()

        first = refs[0]
        plan = self._plan_base_table(first, scope, compiler, remaining, bound)
        bound.add(first.alias.lower())
        plan = self._apply_bound_filters(plan, scope, compiler, remaining, bound)

        for ref in refs[1:]:
            alias = ref.alias.lower()
            newly = [
                c
                for c in remaining
                if referenced_aliases(c, scope) <= bound | {alias}
                and alias in referenced_aliases(c, scope)
            ]
            plan = self._plan_join(plan, ref, scope, compiler, newly, bound)
            for c in newly:
                remaining.remove(c)
            bound.add(alias)
            plan = self._apply_bound_filters(
                plan, scope, compiler, remaining, bound
            )
        if remaining:
            residual = conjoin(remaining)
            assert residual is not None
            plan = Filter(plan, compiler.compile(residual), "residual")
        return plan

    def _apply_bound_filters(
        self,
        plan: PlanNode,
        scope: Scope,
        compiler: Compiler,
        remaining: List[ast.Expr],
        bound: Set[str],
    ) -> PlanNode:
        ready = [c for c in remaining if referenced_aliases(c, scope) <= bound]
        for c in ready:
            remaining.remove(c)
        if ready:
            combined = conjoin(ready)
            assert combined is not None
            plan = Filter(plan, compiler.compile(combined))
        return plan

    def plan_rows(
        self, table_name: str, where: Optional[ast.Expr]
    ) -> Tuple[PlanNode, Optional[Evaluator]]:
        """The rows a DELETE or UPDATE targets: the access path a SELECT
        of the same WHERE would read (whose ``row_batches(ctx,
        with_ids=True)`` yields row ids), and the whole WHERE compiled,
        to run on what the access path fetched. The alias is the
        table's name."""
        table = self.catalog.table(table_name)
        scope = Scope()
        scope.add(table.name, table)
        compiler = Compiler(scope, self.registry, self.profile)
        conjuncts = split_conjuncts(where)
        access = self._plan_base_table(
            ast.TableRef(table.name, table.name), scope, compiler,
            conjuncts, set(),
        )
        predicate = compiler.compile(where) if where is not None else None
        return access, predicate

    def _plan_base_table(
        self,
        ref: ast.TableRef,
        scope: Scope,
        compiler: Compiler,
        remaining: List[ast.Expr],
        bound: Set[str],
    ) -> PlanNode:
        """The access path for one table: a spatial ``IndexScan`` when a
        conjunct can probe a spatial index, else a ``SeqScan`` — and in
        either case an ``IndexLookup`` instead when key conjuncts bind
        every column of a key index and its estimated cost is lower. The
        conjuncts stay in ``remaining``: the caller filters on them."""
        table = self.catalog.table(ref.name)
        alias = ref.alias.lower()
        spatial = self._spatial_scan(table, alias, scope, compiler, remaining)
        plan: PlanNode = spatial or SeqScan(table, alias)
        key_indexes = self.catalog.key_indexes(table.name)
        options = (
            self._key_options(remaining, scope, alias) if key_indexes else {}
        )
        entries = [e for e in key_indexes if options.keys() >= set(e.columns)]
        if not entries:
            return plan
        n_rows = float(max(len(table), 1))
        cost = (
            self._estimate_rows(spatial) if spatial is not None
            else n_rows * _COST_SCAN_ROW
        )
        for entry in entries:
            n_keys = math.prod(len(options[c]) for c in entry.columns)
            est = max(1.0, n_keys * n_rows / self._key_distinct(table, entry))
            lookup_cost = n_keys * _COST_KEY_PROBE + est * _COST_SCAN_ROW
            if lookup_cost < cost:
                plan = self._build_lookup(table, alias, compiler, entry,
                                          options)
                plan.est_rows = est
                cost = lookup_cost
        return plan

    def _spatial_scan(
        self,
        table: Table,
        alias: str,
        scope: Scope,
        compiler: Compiler,
        remaining: List[ast.Expr],
    ) -> Optional[IndexScan]:
        """An ``IndexScan`` on the first conjunct that can probe a
        spatial index of ``table`` with a row-independent envelope."""
        for conjunct in remaining:
            indexable = self._match_indexable(conjunct, scope, alias)
            if indexable is None:
                continue
            # the probe expression must be evaluable before any table binds
            if referenced_aliases(indexable.other, scope):
                continue
            if indexable.radius_expr is not None and referenced_aliases(
                indexable.radius_expr, scope
            ):
                continue
            entry = self.catalog.index_for(table.name, indexable.column)
            if entry is None:
                continue
            other_fn = compiler.compile(indexable.other)
            radius_fn = (
                compiler.compile(indexable.radius_expr)
                if indexable.radius_expr is not None
                else None
            )

            def probe(ctx: ExecContext,
                      other_fn=other_fn, radius_fn=radius_fn) -> Optional[Envelope]:
                return _probe_envelope(
                    scalar(other_fn, ctx),
                    scalar(radius_fn, ctx) if radius_fn else None,
                )

            return IndexScan(table, alias, entry, probe, label="filter")
        return None

    def _key_options(
        self, conjuncts: List[ast.Expr], scope: Scope, alias: str
    ) -> Dict[str, List[ast.Expr]]:
        """Column -> the row-independent values a conjunct pins it to:
        ``col = expr`` gives one, ``col IN (…)`` one per option (the
        first conjunct on a column wins)."""
        options: Dict[str, List[ast.Expr]] = {}
        for conjunct in conjuncts:
            if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
                sides = ((conjunct.left, [conjunct.right]),
                         (conjunct.right, [conjunct.left]))
            elif isinstance(conjunct, ast.InList) and not conjunct.negated:
                sides = ((conjunct.value, list(conjunct.options)),)
            else:
                continue
            for column_side, values in sides:
                column = self._own_column(column_side, scope, alias)
                if (column is None or column.type is ColumnType.GEOMETRY
                        or column.name in options):
                    continue
                if any(referenced_aliases(v, scope) for v in values):
                    continue
                options[column.name] = values
                break
        return options

    @staticmethod
    def _key_distinct(table: Table, entry) -> float:
        """Distinct keys of a key index: the product of its columns'
        ``ANALYZE`` distinct counts, at most one per row — or, for a
        table never analyzed, the keys the index holds."""
        counts = [table.stats.distinct.get(c) for c in entry.columns]
        if None in counts:
            return float(max(entry.index.key_count, 1))
        return float(max(1, min(math.prod(counts), len(table))))

    def _build_lookup(
        self,
        table: Table,
        alias: str,
        compiler: Compiler,
        entry,
        options: Dict[str, List[ast.Expr]],
    ) -> IndexLookup:
        per_column = [
            [compiler.compile(value) for value in options[column]]
            for column in entry.columns
        ]
        label = " AND ".join(
            f"{column} = {_show(options[column][0])}"
            if len(options[column]) == 1
            else f"{column} IN ({', '.join(map(_show, options[column]))})"
            for column in entry.columns
        )

        def keys(ctx: ExecContext, per_column=per_column) -> List[Any]:
            values = [[scalar(fn, ctx) for fn in fns] for fns in per_column]
            if len(values) == 1:
                return values[0]
            return list(itertools.product(*values))

        return IndexLookup(table, alias, entry, keys, label=label)

    def _plan_join(
        self,
        outer: PlanNode,
        ref: ast.TableRef,
        scope: Scope,
        compiler: Compiler,
        conjuncts: List[ast.Expr],
        bound: Set[str],
    ) -> PlanNode:
        table = self.catalog.table(ref.name)
        alias = ref.alias.lower()
        equi = [
            keys for keys in (
                self._match_equi(c, scope, alias, bound) for c in conjuncts
            ) if keys is not None
        ]

        # cost-based spatial join on an indexable spatial conjunct, with
        # the equality keys (if any) costed as a hash join beside it
        for conjunct in conjuncts:
            indexable = self._match_indexable(conjunct, scope, alias)
            if indexable is None:
                continue
            if not referenced_aliases(indexable.other, scope) <= bound:
                continue
            if indexable.radius_expr is not None and not referenced_aliases(
                indexable.radius_expr, scope
            ) <= bound:
                continue
            plan = self._plan_spatial_join(
                outer, table, alias, scope, compiler, conjuncts, indexable,
                equi,
            )
            if plan is not None:
                return plan

        # hash join on every equality conjunct as one composite key
        if equi:
            plan = self._build_hash(outer, table, alias, compiler, conjuncts,
                                    equi, label="")
            plan.est_rows = max(self._estimate_rows(outer), float(len(table)))
            return plan

        condition = conjoin(conjuncts)
        plan = NestedLoopJoin(
            outer,
            SeqScan(table, alias),
            compiler.compile(condition) if condition is not None else None,
        )
        product = self._estimate_rows(outer) * max(len(table), 1)
        plan.est_rows = product if condition is None else max(1.0, product / 3.0)
        return plan

    # -- cost-based spatial join selection ---------------------------------

    def _plan_spatial_join(
        self,
        outer: PlanNode,
        table: Table,
        alias: str,
        scope: Scope,
        compiler: Compiler,
        conjuncts: List[ast.Expr],
        indexable: _IndexableConjunct,
        equi: List[_EquiKey],
    ) -> Optional[PlanNode]:
        """Choose INLJ vs synchronized tree join for one spatial conjunct
        — or a hash join on the ``equi`` keys, when ``ANALYZE`` has
        counted their distinct values — by estimated cost (or the forced
        ``join_strategy``, which never picks the hash join).

        Returns ``None`` when a plain nested loop is the best (or only)
        option, letting ``_plan_join`` fall through to its generic paths.
        """
        inner_entry = self.catalog.index_for(table.name, indexable.column)

        # ST_DWithin expands the probe envelope per row: only INLJ applies
        if indexable.radius_expr is not None:
            if inner_entry is None:
                return None
            return self._build_inlj(
                outer, table, alias, compiler, conjuncts, indexable,
                inner_entry, label="spatial",
            )

        # outer side of the conjunct: a bare indexed geometry column over
        # an unfiltered scan lets the tree join read the outer through its
        # index; any other outer is packed into a transient R-tree
        outer_table: Optional[Table] = None
        outer_column: Optional[str] = None
        outer_alias: Optional[str] = None
        outer_entry = None
        other = indexable.other
        if isinstance(other, ast.ColumnRef):
            try:
                outer_alias, idx = scope.resolve(other)
            except SqlPlanError:
                outer_alias = None
            if outer_alias is not None:
                candidate = scope.table(outer_alias)
                if candidate.columns[idx].type is ColumnType.GEOMETRY:
                    outer_table = candidate
                    outer_column = candidate.columns[idx].name
                    outer_entry = self.catalog.index_for(
                        candidate.name, outer_column
                    )
        if not (isinstance(outer, SeqScan) and outer.alias == outer_alias):
            outer_entry = None

        n_out = self._estimate_rows(outer)
        n_in = float(max(len(table), 1))
        inner_stats = table.stats.column(indexable.column)
        outer_stats = (
            outer_table.stats.column(outer_column)
            if outer_table is not None and outer_column is not None
            else None
        )
        pairs = self._estimate_pairs(n_out, outer_table, outer_stats,
                                     inner_stats, n_in)

        costs: Dict[str, float] = {}
        if inner_entry is not None:
            costs["inlj"] = (
                n_out * _COST_PROBE * math.log2(n_in + 2.0)
                + pairs * _COST_CAND_INLJ
            )
        if outer_entry is not None and inner_entry is not None:
            costs["tree"] = (
                _COST_TREE * (len(outer_table) + n_in) + pairs * _COST_CAND
            )
        else:
            costs["tree"] = _COST_PACK * (n_out + n_in) + pairs * _COST_CAND
            if inner_entry is None:
                costs["nlj"] = _COST_NLJ * n_out * n_in
        key_values = self._key_values(equi, scope)
        if key_values is not None:
            # independence estimate, clamped so every row finds a partner
            hash_pairs = n_out * n_in / min(key_values, max(n_out, n_in))
            costs["hash"] = (
                _COST_HASH_ROW * (n_out + n_in) + _COST_HASH_PAIR * hash_pairs
            )

        forced = self.join_strategy
        if forced == "nlj":
            return None
        if forced != "auto" and forced in costs:
            choice = forced
        else:
            choice = min(
                (k for k in costs if forced == "auto" or k != "hash"),
                key=costs.__getitem__,
            )
        if choice == "nlj":
            return None
        label = (
            "spatial cost("
            + " ".join(f"{k}={v:.0f}" for k, v in sorted(costs.items()))
            + f") -> {choice}"
        )

        est = max(1.0, pairs * 0.5)
        if choice == "hash":
            plan = self._build_hash(outer, table, alias, compiler, conjuncts,
                                    equi, label=label)
            plan.est_rows = est
            return plan
        if choice == "inlj":
            assert inner_entry is not None
            plan = self._build_inlj(
                outer, table, alias, compiler, conjuncts, indexable,
                inner_entry, label=label,
            )
            plan.est_rows = est
            return plan

        residual = conjoin(
            [c for c in conjuncts if c is not indexable.conjunct]
        )
        plan = SpatialTreeJoin(
            outer, compiler.compile(indexable.other), outer_entry,
            SeqScan(table, alias),
            compiler.compile(ast.ColumnRef(indexable.column, table=alias)),
            inner_entry,
            self._join_predicate(indexable),
            compiler.compile(residual) if residual is not None else None,
            label=label,
        )
        plan.est_rows = est
        return plan

    def _build_inlj(
        self,
        outer: PlanNode,
        table: Table,
        alias: str,
        compiler: Compiler,
        conjuncts: List[ast.Expr],
        indexable: _IndexableConjunct,
        entry,
        label: str,
    ) -> IndexNestedLoopJoin:
        other_fn = compiler.compile(indexable.other)
        radius_fn = (
            compiler.compile(indexable.radius_expr)
            if indexable.radius_expr is not None
            else None
        )

        def probe(batch: Batch, ctx: ExecContext, other_fn=other_fn,
                  radius_fn=radius_fn) -> List[Optional[Envelope]]:
            radii = radius_fn(batch, ctx) if radius_fn else [None] * batch.size
            return [
                _probe_envelope(value, radius)
                for value, radius in zip(other_fn(batch, ctx), radii)
            ]

        residual = conjoin(conjuncts)
        residual_fn = (
            compiler.compile(residual) if residual is not None else None
        )
        return IndexNestedLoopJoin(
            outer, table, alias, entry, probe, residual_fn, label=label
        )

    def _build_hash(
        self,
        outer: PlanNode,
        table: Table,
        alias: str,
        compiler: Compiler,
        conjuncts: List[ast.Expr],
        equi: List[_EquiKey],
        label: str,
    ) -> HashJoin:
        """A hash join keyed on every ``equi`` conjunct at once (a tuple
        when there are several, NULL when any part is); the other
        conjuncts run as its residual."""
        keyed = {id(conjunct) for conjunct, _outer, _inner in equi}
        residual = conjoin([c for c in conjuncts if id(c) not in keyed])
        keys = " AND ".join(f"{o} = {i}" for _c, o, i in equi)
        return HashJoin(
            outer,
            SeqScan(table, alias),
            _composite_key([compiler.compile(o) for _c, o, _i in equi]),
            _composite_key([compiler.compile(i) for _c, _o, i in equi]),
            compiler.compile(residual) if residual is not None else None,
            label=f"{keys} {label}".rstrip(),
        )

    def _key_values(self, equi: List[_EquiKey], scope: Scope
                    ) -> Optional[float]:
        """Distinct values of the composite key, assuming independent
        parts: the product over the keys of the larger side's distinct
        count. ``None`` without keys or when a key has no count (a side
        that is not a bare column, or a table never ``ANALYZE``d)."""
        if not equi:
            return None
        product = 1.0
        for _conjunct, outer_key, inner_key in equi:
            counts = [
                count for count in (
                    self._distinct_count(outer_key, scope),
                    self._distinct_count(inner_key, scope),
                ) if count is not None
            ]
            if not counts:
                return None
            product *= max(1, max(counts))
        return product

    @staticmethod
    def _distinct_count(expr: ast.Expr, scope: Scope) -> Optional[int]:
        if not isinstance(expr, ast.ColumnRef):
            return None
        alias, idx = scope.resolve(expr)
        table = scope.table(alias)
        return table.stats.distinct.get(table.columns[idx].name)

    def _join_predicate(
        self, indexable: _IndexableConjunct
    ) -> SpatialJoinPredicate:
        """What a tree join answers of the conjunct itself.

        Candidate pairs from that join already have intersecting
        envelopes, so an ``&&`` conjunct needs nothing more; a named
        predicate keeps the conjunct's original argument order, which
        matters for the asymmetric ones.
        """
        conjunct = indexable.conjunct
        if isinstance(conjunct, ast.BinaryOp):  # '&&'
            return SpatialJoinPredicate(None, indexable.col_first)
        self.profile.check_supported(conjunct.name)
        return SpatialJoinPredicate(conjunct.name, indexable.col_first)

    def _estimate_rows(self, plan: PlanNode) -> float:
        """Rough output-cardinality estimate for a built subplan."""
        est = getattr(plan, "est_rows", None)
        if est is not None:
            return float(est)
        if isinstance(plan, SeqScan):
            return float(max(len(plan.table), 1))
        if isinstance(plan, IndexScan):
            return float(max(1, len(plan.table) // 10))
        if isinstance(plan, Filter):
            return max(1.0, self._estimate_rows(plan.child) / 3.0)
        return 100.0

    @staticmethod
    def _estimate_pairs(
        n_out: float,
        outer_table: Optional[Table],
        outer_stats: Optional[ColumnStats],
        inner_stats: Optional[ColumnStats],
        n_in: float,
    ) -> float:
        """Expected candidate pairs for the spatial conjunct."""
        if outer_stats is not None:
            pairs = estimate_join_pairs(outer_stats, inner_stats)
            if outer_table is not None and len(outer_table) > 0:
                # outer side may be pre-filtered below the join
                pairs *= min(1.0, n_out / len(outer_table))
            return pairs
        # expression probe: only the inner side's density is known; assume
        # each probe envelope behaves like an average inner envelope
        if (
            inner_stats is None
            or inner_stats.count == 0
            or inner_stats.bounds is None
        ):
            return n_out
        width = inner_stats.bounds.width or 1.0
        height = inner_stats.bounds.height or 1.0
        p_x = min(1.0, 2.0 * inner_stats.avg_width / width)
        p_y = min(1.0, 2.0 * inner_stats.avg_height / height)
        return n_out * max(1.0, inner_stats.count * p_x * p_y)

    # -- conjunct pattern matching ---------------------------------------------

    def _match_indexable(
        self, conjunct: ast.Expr, scope: Scope, alias: str
    ) -> Optional[_IndexableConjunct]:
        """Recognise ``pred(t.geom, other)`` / ``other && t.geom`` shapes."""
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "&&":
            for col_side, other_side, col_first in (
                (conjunct.left, conjunct.right, True),
                (conjunct.right, conjunct.left, False),
            ):
                col = self._geometry_column(col_side, scope, alias)
                if col is not None:
                    return _IndexableConjunct(
                        conjunct, alias, col, other_side, col_first=col_first
                    )
            return None
        if not isinstance(conjunct, ast.FuncCall):
            return None
        name = conjunct.name
        if name == "st_dwithin" and len(conjunct.args) == 3:
            for col_side, other_side, col_first in (
                (conjunct.args[0], conjunct.args[1], True),
                (conjunct.args[1], conjunct.args[0], False),
            ):
                col = self._geometry_column(col_side, scope, alias)
                if col is not None:
                    return _IndexableConjunct(
                        conjunct, alias, col, other_side,
                        radius_expr=conjunct.args[2], col_first=col_first,
                    )
            return None
        if name not in _INDEXABLE_PREDICATES or len(conjunct.args) != 2:
            return None
        for col_side, other_side, col_first in (
            (conjunct.args[0], conjunct.args[1], True),
            (conjunct.args[1], conjunct.args[0], False),
        ):
            col = self._geometry_column(col_side, scope, alias)
            if col is not None:
                return _IndexableConjunct(
                    conjunct, alias, col, other_side, col_first=col_first
                )
        return None

    def _geometry_column(
        self, expr: ast.Expr, scope: Scope, alias: str
    ) -> Optional[str]:
        column = self._own_column(expr, scope, alias)
        if column is None or column.type is not ColumnType.GEOMETRY:
            return None
        return column.name

    @staticmethod
    def _own_column(
        expr: ast.Expr, scope: Scope, alias: str
    ) -> Optional[Column]:
        """The column of ``alias`` that ``expr`` names, if it is one."""
        if not isinstance(expr, ast.ColumnRef):
            return None
        try:
            resolved_alias, idx = scope.resolve(expr)
        except SqlPlanError:
            return None
        if resolved_alias != alias:
            return None
        return scope.table(resolved_alias).columns[idx]

    def _match_equi(
        self, conjunct: ast.Expr, scope: Scope, alias: str, bound: Set[str]
    ) -> Optional[_EquiKey]:
        """``(conjunct, outer key, inner key)`` for ``outer = inner``."""
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        left_refs = referenced_aliases(conjunct.left, scope)
        right_refs = referenced_aliases(conjunct.right, scope)
        if left_refs <= bound and right_refs == {alias}:
            return conjunct, conjunct.left, conjunct.right
        if right_refs <= bound and left_refs == {alias}:
            return conjunct, conjunct.right, conjunct.left
        return None

    # -- output: aggregation, projection, ordering --------------------------------

    def _plan_output(
        self, stmt: ast.Select, scope: Scope, plan: PlanNode
    ) -> Tuple[PlanNode, List[Tuple[str, Evaluator]], bool]:
        items = self._expand_stars(stmt.items, scope)
        has_aggregates = (
            bool(stmt.group_by)
            or any(contains_aggregate(i.expr) for i in items)
            or (stmt.having is not None and contains_aggregate(stmt.having))
        )
        if has_aggregates:
            return self._plan_aggregate(stmt, scope, plan, items)

        compiler = Compiler(scope, self.registry, self.profile)
        outputs = [
            (self._item_name(item, index), compiler.compile(item.expr))
            for index, item in enumerate(items)
        ]
        if stmt.having is not None:
            raise SqlPlanError("HAVING requires GROUP BY or aggregates")
        if stmt.order_by:
            keys = self._order_keys(stmt.order_by, items, compiler)
            plan = Sort(plan, keys)
        return Project(plan, outputs), outputs, bool(stmt.order_by)

    def _plan_aggregate(
        self,
        stmt: ast.Select,
        scope: Scope,
        plan: PlanNode,
        items: List[ast.SelectItem],
    ) -> Tuple[PlanNode, List[Tuple[str, Evaluator]], bool]:
        base_compiler = Compiler(scope, self.registry, self.profile)

        agg_nodes: List[ast.FuncCall] = []

        def collect(expr: ast.Expr) -> None:
            if isinstance(expr, ast.FuncCall):
                if is_aggregate_call(expr):
                    agg_nodes.append(expr)
                    return
                for arg in expr.args:
                    collect(arg)
            elif isinstance(expr, ast.BinaryOp):
                collect(expr.left)
                collect(expr.right)
            elif isinstance(expr, ast.UnaryOp):
                collect(expr.operand)
            elif isinstance(expr, ast.Between):
                for e in (expr.value, expr.low, expr.high):
                    collect(e)
            elif isinstance(expr, ast.InList):
                collect(expr.value)
                for option in expr.options:
                    collect(option)
            elif isinstance(expr, ast.IsNull):
                collect(expr.value)

        for item in items:
            collect(item.expr)
        if stmt.having is not None:
            collect(stmt.having)
        for order in stmt.order_by:
            collect(order.expr)

        agg_slots: Dict[int, int] = {}
        agg_specs: List[Tuple[str, Optional[Evaluator], bool]] = []
        for node in agg_nodes:
            if id(node) in agg_slots:
                continue
            agg_slots[id(node)] = len(agg_specs)
            if len(node.args) == 1 and isinstance(node.args[0], ast.Star):
                arg_fn: Optional[Evaluator] = None
            elif len(node.args) == 1:
                arg_fn = base_compiler.compile(node.args[0])
            else:
                raise SqlPlanError(
                    f"aggregate {node.name}() takes exactly one argument"
                )
            agg_specs.append((node.name, arg_fn, node.distinct))

        group_keys = [base_compiler.compile(e) for e in stmt.group_by]
        plan = Aggregate(
            plan, group_keys, agg_specs, always_one_group=not stmt.group_by
        )

        out_compiler = Compiler(
            scope, self.registry, self.profile, agg_slots=agg_slots
        )
        outputs = [
            (self._item_name(item, index), out_compiler.compile(item.expr))
            for index, item in enumerate(items)
        ]
        if stmt.having is not None:
            plan = Filter(plan, out_compiler.compile(stmt.having), "having")
        if stmt.order_by:
            keys = self._order_keys(stmt.order_by, items, out_compiler)
            plan = Sort(plan, keys)
        return Project(plan, outputs), outputs, bool(stmt.order_by)

    def _order_keys(
        self,
        order_by: List[ast.OrderItem],
        items: List[ast.SelectItem],
        compiler: Compiler,
    ) -> List[Tuple[Evaluator, bool]]:
        keys: List[Tuple[Evaluator, bool]] = []
        alias_map = {
            item.alias: item.expr for item in items if item.alias is not None
        }
        for order in order_by:
            expr = order.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                position = expr.value
                if not 1 <= position <= len(items):
                    raise SqlPlanError(
                        f"ORDER BY position {position} out of range"
                    )
                expr = items[position - 1].expr
            elif (
                isinstance(expr, ast.ColumnRef)
                and expr.table is None
                and expr.name in alias_map
            ):
                expr = alias_map[expr.name]
            keys.append((compiler.compile(expr), order.descending))
        return keys

    def _expand_stars(
        self, items: List[ast.SelectItem], scope: Scope
    ) -> List[ast.SelectItem]:
        expanded: List[ast.SelectItem] = []
        for item in items:
            if not isinstance(item.expr, ast.Star):
                expanded.append(item)
                continue
            aliases = (
                [item.expr.table.lower()] if item.expr.table else scope.aliases()
            )
            if not aliases:
                raise SqlPlanError("SELECT * requires a FROM clause")
            for alias in aliases:
                table = scope.table(alias)
                for column in table.columns:
                    expanded.append(
                        ast.SelectItem(
                            ast.ColumnRef(column.name, table=alias),
                            alias=column.name,
                        )
                    )
        return expanded

    @staticmethod
    def _item_name(item: ast.SelectItem, index: int) -> str:
        if item.alias:
            return item.alias
        expr = item.expr
        if isinstance(expr, ast.ColumnRef):
            return expr.name
        if isinstance(expr, ast.FuncCall):
            return expr.name
        return f"column{index + 1}"


def _composite_key(parts: List[Evaluator]) -> Evaluator:
    """One hash key per row: the single part's value, or the parts as a
    tuple, NULL when any part is NULL."""
    if len(parts) == 1:
        return parts[0]

    def key(batch: Batch, ctx: ExecContext) -> List[Optional[tuple]]:
        return [
            None if None in values else values
            for values in zip(*[part(batch, ctx) for part in parts])
        ]

    return key


def _show(expr: ast.Expr) -> str:
    """A lookup key as ``EXPLAIN`` prints it."""
    if isinstance(expr, ast.Param):
        return "?"
    if isinstance(expr, ast.Literal):
        return repr(expr.value)
    return "expr"


def _probe_envelope(value, radius) -> Optional[Envelope]:
    if value is not None and not isinstance(value, Geometry):
        raise SqlPlanError(
            f"spatial index probe expects a geometry, got {value!r}"
        )
    envelope = stored_envelope(value)  # None: an empty geometry meets nothing
    if envelope is not None and radius is not None:
        envelope = envelope.expanded(float(radius))
    return envelope
