"""Abstract syntax tree for the spatial SQL dialect."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple


# -- expressions -------------------------------------------------------------


class Expr:
    """Base class for expression nodes."""


@dataclass(frozen=True)
class Literal(Expr):
    value: Any  # int, float, str, bool or None


@dataclass(frozen=True)
class Param(Expr):
    index: int  # zero-based position of the '?' placeholder


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    table: Optional[str] = None  # alias qualifier

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    table: Optional[str] = None  # alias.* or bare *


@dataclass(frozen=True)
class FuncCall(Expr):
    name: str  # lower-case
    args: Tuple[Expr, ...]
    distinct: bool = False  # COUNT(DISTINCT x)


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # '=', '<>', '<', '<=', '>', '>=', '+', '-', '*', '/', '%',
    # 'and', 'or', 'like', '&&'
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # '-', 'not'
    operand: Expr


@dataclass(frozen=True)
class Between(Expr):
    value: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class InList(Expr):
    value: Expr
    options: Tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expr):
    value: Expr
    negated: bool = False


# -- statements ---------------------------------------------------------------


class Statement:
    """Base class for statement nodes."""


@dataclass
class ColumnDef:
    name: str
    type_name: str


@dataclass
class CreateTable(Statement):
    name: str
    columns: List[ColumnDef]
    if_not_exists: bool = False


@dataclass
class CreateSpatialIndex(Statement):
    name: str
    table: str
    column: str
    using: Optional[str] = None  # index kind override


@dataclass
class CreateIndex(Statement):
    """A key (hash) index over one or more non-geometry columns."""

    name: str
    table: str
    columns: List[str]


@dataclass
class DropTable(Statement):
    name: str
    if_exists: bool = False


@dataclass
class DropIndex(Statement):
    name: str
    if_exists: bool = False


@dataclass
class Analyze(Statement):
    table: Optional[str] = None  # None = every table in the catalog


@dataclass
class Begin(Statement):
    """BEGIN [WORK | TRANSACTION] / START TRANSACTION."""


@dataclass
class Commit(Statement):
    """COMMIT [WORK | TRANSACTION] / END [WORK | TRANSACTION]."""


@dataclass
class Rollback(Statement):
    """ROLLBACK [WORK | TRANSACTION]."""


@dataclass
class Insert(Statement):
    table: str
    columns: Optional[List[str]]  # None = all, in declaration order
    rows: List[List[Expr]]


@dataclass
class Delete(Statement):
    table: str
    where: Optional[Expr] = None


@dataclass
class Update(Statement):
    table: str
    assignments: List[Tuple[str, Expr]]  # (column, value expression)
    where: Optional[Expr] = None


@dataclass
class TableRef:
    name: str
    alias: str  # defaults to the table name


@dataclass
class Join:
    table: TableRef
    condition: Optional[Expr]  # None = CROSS JOIN


@dataclass
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass
class Select(Statement):
    items: List[SelectItem]
    source: Optional[TableRef] = None  # None = SELECT without FROM
    joins: List[Join] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: List[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[Expr] = None
    offset: Optional[Expr] = None
    distinct: bool = False
