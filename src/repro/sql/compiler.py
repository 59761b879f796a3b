"""Expression compilation: AST expressions to batch evaluators.

A batch evaluator is a closure over ``(batch, ctx)`` returning one value
per row of the :class:`~repro.sql.executor.Batch`. Each expression is
compiled once per plan; a sub-expression that reads no column, such as
``ST_MakeEnvelope(?, ?, ?, ?)``, is computed once per batch and
broadcast, and scalar uses (probe envelopes, LIMIT, INSERT values)
evaluate a one-row batch — one compiler for every use.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SqlPlanError
from repro.geometry.base import Envelope, Geometry
from repro.sql import ast
from repro.sql.executor import UNIT, Batch, Evaluator, ExecContext
from repro.sql.functions import (
    AGGREGATES,
    DUAL_ROLE_AGGREGATES,
    SPATIAL_PREDICATES,
    FunctionRegistry,
)
from repro.storage.table import Table

#: expensive pure geometry functions memoised per statement execution
_CACHEABLE_FUNCTIONS = frozenset(
    {
        "st_buffer",
        "st_convexhull",
        "st_simplify",
        "st_union",
        "st_intersection",
        "st_difference",
        "st_symdifference",
        "st_centroid",
        "st_pointonsurface",
        "st_boundary",
    }
)


class Scope:
    """Alias → table map used during compilation for name resolution."""

    def __init__(self) -> None:
        self._aliases: Dict[str, Table] = {}
        self.order: List[str] = []

    def add(self, alias: str, table: Table) -> None:
        key = alias.lower()
        if key in self._aliases:
            raise SqlPlanError(f"duplicate table alias {alias!r}")
        self._aliases[key] = table
        self.order.append(key)

    def resolve(self, ref: ast.ColumnRef) -> Tuple[str, int]:
        if ref.table is not None:
            alias = ref.table.lower()
            if alias not in self._aliases:
                raise SqlPlanError(f"unknown table alias {ref.table!r}")
            return alias, self._aliases[alias].column_index(ref.name)
        hits = [
            (alias, table.column_index(ref.name))
            for alias, table in self._aliases.items()
            if table.has_column(ref.name)
        ]
        if not hits:
            raise SqlPlanError(f"unknown column {ref.name!r}")
        if len(hits) > 1:
            raise SqlPlanError(f"ambiguous column {ref.name!r}")
        return hits[0]

    def table(self, alias: str) -> Table:
        return self._aliases[alias.lower()]

    def aliases(self) -> List[str]:
        return list(self.order)



def _like_matcher(pattern: str) -> Callable[[str], bool]:
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    compiled = re.compile(f"^{regex}$", re.IGNORECASE | re.DOTALL)
    return lambda text: compiled.match(text) is not None


def referenced_aliases(expr: ast.Expr, scope: Scope) -> set:
    """All table aliases an expression touches (for placement decisions)."""
    found: set = set()

    def walk(node: ast.Expr) -> None:
        if isinstance(node, ast.ColumnRef):
            alias, _idx = scope.resolve(node)
            found.add(alias)
        elif isinstance(node, ast.FuncCall):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, ast.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.UnaryOp):
            walk(node.operand)
        elif isinstance(node, ast.Between):
            walk(node.value)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, ast.InList):
            walk(node.value)
            for option in node.options:
                walk(option)
        elif isinstance(node, ast.IsNull):
            walk(node.value)
        elif isinstance(node, ast.Star):
            raise SqlPlanError("'*' is only valid in the select list or COUNT(*)")

    walk(expr)
    return found


def contains_aggregate(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.FuncCall):
        if is_aggregate_call(expr):
            return True
        return any(contains_aggregate(a) for a in expr.args)
    if isinstance(expr, ast.BinaryOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, ast.UnaryOp):
        return contains_aggregate(expr.operand)
    if isinstance(expr, ast.Between):
        return any(
            contains_aggregate(e) for e in (expr.value, expr.low, expr.high)
        )
    if isinstance(expr, ast.InList):
        return contains_aggregate(expr.value) or any(
            contains_aggregate(o) for o in expr.options
        )
    if isinstance(expr, ast.IsNull):
        return contains_aggregate(expr.value)
    return False


def is_aggregate_call(expr: ast.FuncCall) -> bool:
    name = expr.name
    if name not in AGGREGATES:
        return False
    if name in DUAL_ROLE_AGGREGATES:
        return len(expr.args) == 1
    return True


class Compiler:
    """Compiles AST expressions into batch evaluators."""

    def __init__(self, scope: Scope, registry: FunctionRegistry, profile,
                 agg_slots: Optional[Dict[int, int]] = None):
        self.scope = scope
        self.registry = registry
        self.profile = profile
        # id(FuncCall-node) -> slot index in the "__agg__" result tuples
        self.agg_slots = agg_slots

    def compile(self, expr: ast.Expr) -> Evaluator:
        fn = self._compile(expr)
        if isinstance(expr, (ast.Literal, ast.Param)) or self._reads_columns(expr):
            return fn
        # reads no column: compute once per batch, broadcast to every row
        return lambda batch, ctx: fn(UNIT, ctx) * batch.size

    def _reads_columns(self, expr: ast.Expr) -> bool:
        if isinstance(expr, ast.ColumnRef):
            return True
        if isinstance(expr, ast.FuncCall):
            if self.agg_slots is not None and id(expr) in self.agg_slots:
                return True
            return any(self._reads_columns(a) for a in expr.args)
        if isinstance(expr, ast.BinaryOp):
            return self._reads_columns(expr.left) or self._reads_columns(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return self._reads_columns(expr.operand)
        if isinstance(expr, ast.Between):
            return any(
                self._reads_columns(e) for e in (expr.value, expr.low, expr.high)
            )
        if isinstance(expr, ast.InList):
            return self._reads_columns(expr.value) or any(
                self._reads_columns(o) for o in expr.options
            )
        if isinstance(expr, ast.IsNull):
            return self._reads_columns(expr.value)
        return False

    def _compile(self, expr: ast.Expr) -> Evaluator:
        if isinstance(expr, ast.Literal):
            value = expr.value
            return lambda batch, ctx: [value] * batch.size
        if isinstance(expr, ast.Param):
            index = expr.index
            return lambda batch, ctx: [ctx.params[index]] * batch.size
        if isinstance(expr, ast.ColumnRef):
            alias, idx = self.scope.resolve(expr)
            get = operator.itemgetter(idx)
            return lambda batch, ctx: list(map(get, batch.columns[alias]))
        if isinstance(expr, ast.FuncCall):
            return self._compile_func(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._compile_binary(expr)
        if isinstance(expr, ast.UnaryOp):
            operand = self.compile(expr.operand)
            if expr.op == "-":
                def negate(batch: Batch, ctx: ExecContext) -> List[Any]:
                    values = operand(batch, ctx)
                    try:
                        return [None if v is None else -v for v in values]
                    except TypeError as exc:
                        raise SqlPlanError(f"unary '-': {exc}") from None

                return negate
            if expr.op == "not":
                return lambda batch, ctx: [
                    None if v is None else not v for v in operand(batch, ctx)
                ]
            raise SqlPlanError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, ast.Between):
            value = self.compile(expr.value)
            low = self.compile(expr.low)
            high = self.compile(expr.high)
            negated = expr.negated

            def between(batch: Batch, ctx: ExecContext) -> List[Optional[bool]]:
                return [
                    None if v is None or lo is None or hi is None
                    else (lo <= v <= hi) != negated
                    for v, lo, hi in zip(
                        value(batch, ctx), low(batch, ctx), high(batch, ctx)
                    )
                ]

            return between
        if isinstance(expr, ast.InList):
            value = self.compile(expr.value)
            options = [self.compile(o) for o in expr.options]
            negated = expr.negated

            def in_list(batch: Batch, ctx: ExecContext) -> List[Optional[bool]]:
                candidates = zip(*[o(batch, ctx) for o in options])
                return [
                    None if v is None else any(v == o for o in row) != negated
                    for v, row in zip(value(batch, ctx), candidates)
                ]

            return in_list
        if isinstance(expr, ast.IsNull):
            value = self.compile(expr.value)
            negated = expr.negated
            return lambda batch, ctx: [
                (v is None) != negated for v in value(batch, ctx)
            ]
        if isinstance(expr, ast.Star):
            raise SqlPlanError("'*' is only valid in the select list or COUNT(*)")
        raise SqlPlanError(f"cannot compile {type(expr).__name__}")

    def _compile_func(self, expr: ast.FuncCall) -> Evaluator:
        if self.agg_slots is not None and id(expr) in self.agg_slots:
            get = operator.itemgetter(self.agg_slots[id(expr)])
            return lambda batch, ctx: list(map(get, batch.columns["__agg__"]))
        if is_aggregate_call(expr):
            raise SqlPlanError(
                f"aggregate {expr.name}() not allowed in this clause"
            )
        name = expr.name
        if name in SPATIAL_PREDICATES:
            self.profile.check_supported(name)
            if len(expr.args) != 2:
                raise SqlPlanError(f"{name} takes exactly two arguments")
            arg_a = self.compile(expr.args[0])
            arg_b = self.compile(expr.args[1])

            def predicate(batch: Batch, ctx: ExecContext) -> List[Optional[bool]]:
                firsts = arg_a(batch, ctx)
                seconds = arg_b(batch, ctx)
                for values in (firsts, seconds):
                    for g in values:
                        if g is not None and not isinstance(g, Geometry):
                            raise SqlPlanError(
                                f"{name} expects geometry arguments"
                            )
                return ctx.profile.refine(name, firsts, seconds, ctx.stats)

            return predicate
        if name.startswith("st_"):
            self.profile.check_supported(name)
        impl = self.registry.lookup(name)
        arg_fns = [self.compile(a) for a in expr.args]

        def arg_rows(batch: Batch, ctx: ExecContext):
            if not arg_fns:
                return [()] * batch.size
            return zip(*[fn(batch, ctx) for fn in arg_fns])

        if name in _CACHEABLE_FUNCTIONS:
            def cached_call(batch: Batch, ctx: ExecContext) -> List[Any]:
                cache = ctx.cache
                out = []
                for args in arg_rows(batch, ctx):
                    key = (name,) + tuple(
                        id(a) if isinstance(a, Geometry) else a for a in args
                    )
                    try:
                        value = cache[key]
                    except KeyError:
                        value = impl(*args)
                        cache[key] = value
                    out.append(value)
                return out

            return cached_call

        return lambda batch, ctx: [impl(*args) for args in arg_rows(batch, ctx)]

    def _compile_binary(self, expr: ast.BinaryOp) -> Evaluator:
        op = expr.op
        left = self.compile(expr.left)
        right = self.compile(expr.right)

        def pairs(batch: Batch, ctx: ExecContext):
            return zip(left(batch, ctx), right(batch, ctx))

        if op == "and":
            return _short_circuit(left, right, False, lambda a, b: (
                False if b is False
                else None if a is None or b is None
                else bool(a) and bool(b)
            ))
        if op == "or":
            return _short_circuit(left, right, True, lambda a, b: (
                True if b is True
                else None if a is None or b is None
                else bool(a) or bool(b)
            ))
        if op == "like":
            return lambda batch, ctx: [
                None if text is None or pattern is None
                else _like_matcher(str(pattern))(str(text))
                for text, pattern in pairs(batch, ctx)
            ]
        if op == "&&":
            return lambda batch, ctx: [
                None if a is None or b is None
                else _as_envelope(a).intersects(_as_envelope(b))
                for a, b in pairs(batch, ctx)
            ]
        if op == "<->":
            from repro.algorithms.distance import distance

            def knn_distance(a: Any, b: Any) -> Optional[float]:
                if a is None or b is None:
                    return None
                if not isinstance(a, Geometry) or not isinstance(b, Geometry):
                    raise SqlPlanError("'<->' expects geometry operands")
                return distance(a, b)

            return lambda batch, ctx: [
                knn_distance(a, b) for a, b in pairs(batch, ctx)
            ]
        if op == "||":
            return lambda batch, ctx: [
                None if a is None or b is None else str(a) + str(b)
                for a, b in pairs(batch, ctx)
            ]

        simple = {
            "=": operator.eq,
            "<>": operator.ne,
            "<": operator.lt,
            "<=": operator.le,
            ">": operator.gt,
            ">=": operator.ge,
            "+": operator.add,
            "-": operator.sub,
            "*": operator.mul,
            "/": operator.truediv,
            "%": operator.mod,
        }
        if op not in simple:
            raise SqlPlanError(f"unknown operator {op!r}")
        fn = simple[op]

        def apply(batch: Batch, ctx: ExecContext) -> List[Any]:
            operands = pairs(batch, ctx)
            try:
                return [
                    None if a is None or b is None else fn(a, b)
                    for a, b in operands
                ]
            except (ZeroDivisionError, TypeError) as exc:
                # a typed statement error, so an open transaction aborts
                raise SqlPlanError(f"'{op}': {exc}") from None

        return apply


def _short_circuit(left: Evaluator, right: Evaluator, decided: bool,
                   combine: Callable[[Any, Any], Any]) -> Evaluator:
    """Three-valued ``AND`` (``decided=False``) or ``OR`` (``True``): the
    right side runs only on the rows whose left value is not ``decided``
    already; ``combine(a, b)`` answers the others."""

    def evaluate(batch: Batch, ctx: ExecContext) -> List[Any]:
        lefts = left(batch, ctx)
        open_rows = [a is not decided for a in lefts]
        if not any(open_rows):
            return lefts
        rights = iter(right(batch.select(open_rows), ctx))
        return [
            decided if a is decided else combine(a, next(rights))
            for a in lefts
        ]

    return evaluate


def _as_envelope(value: Any) -> Envelope:
    if isinstance(value, Geometry):
        return value.envelope
    if isinstance(value, Envelope):
        return value
    raise SqlPlanError(f"expected a geometry for '&&', got {value!r}")


