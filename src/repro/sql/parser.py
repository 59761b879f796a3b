"""Recursive-descent parser for the spatial SQL dialect.

Grammar (simplified)::

    statement   := select | insert | delete | create_table
                 | create_index | create_spatial_index | drop_table
                 | drop_index | analyze
    create_index := CREATE INDEX name ON table ( column [, column]* )
    select      := SELECT [DISTINCT] items [FROM table_ref join*]
                   [WHERE expr] [GROUP BY expr_list] [HAVING expr]
                   [ORDER BY order_list] [LIMIT expr [OFFSET expr]]
    join        := [INNER|CROSS] JOIN table_ref [ON expr]
    expr        := or_expr, with precedence
                   OR < AND < NOT < comparison < additive < multiplicative
                   < unary minus < primary
    comparison  := = <> != < <= > >= LIKE BETWEEN IN IS [NOT] NULL &&

``&&`` is the envelope-overlap operator (PostGIS-style); spatial work is
otherwise expressed through ``ST_*`` function calls resolved at plan time.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SqlSyntaxError
from repro.sql import ast
from repro.sql.lexer import Token, TokenType, tokenize

_COMPARISONS = {"=", "<>", "!=", "<", "<=", ">", ">=", "&&"}

_CLAUSE_KEYWORDS = {
    "from", "where", "group", "having", "order", "limit", "offset",
    "join", "inner", "cross", "left", "on", "and", "or", "not",
    "as", "asc", "desc", "union", "values",
}


class Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0
        self.param_count = 0

    # -- token helpers -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.END:
            self.pos += 1
        return token

    def accept_ident(self, *names: str) -> bool:
        if self.peek().is_ident(*names):
            self.advance()
            return True
        return False

    def expect_ident(self, *names: str) -> Token:
        token = self.peek()
        if not token.is_ident(*names):
            raise SqlSyntaxError(
                f"expected {' or '.join(n.upper() for n in names)} "
                f"near offset {token.pos} in {self.sql!r}"
            )
        return self.advance()

    def accept_punct(self, value: str) -> bool:
        token = self.peek()
        if token.type is TokenType.PUNCT and token.value == value:
            self.advance()
            return True
        return False

    def expect_punct(self, value: str) -> None:
        if not self.accept_punct(value):
            token = self.peek()
            raise SqlSyntaxError(
                f"expected {value!r} near offset {token.pos} in {self.sql!r}"
            )

    def accept_operator(self, *values: str) -> Optional[str]:
        token = self.peek()
        if token.type is TokenType.OPERATOR and token.value in values:
            self.advance()
            return token.value
        return None

    def identifier(self, what: str) -> str:
        token = self.peek()
        if token.type is not TokenType.IDENT:
            raise SqlSyntaxError(
                f"expected {what} near offset {token.pos} in {self.sql!r}"
            )
        return self.advance().value

    # -- statements ----------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        token = self.peek()
        if token.is_ident("select"):
            stmt: ast.Statement = self.parse_select()
        elif token.is_ident("insert"):
            stmt = self.parse_insert()
        elif token.is_ident("delete"):
            stmt = self.parse_delete()
        elif token.is_ident("update"):
            stmt = self.parse_update()
        elif token.is_ident("create"):
            stmt = self.parse_create()
        elif token.is_ident("drop"):
            stmt = self.parse_drop()
        elif token.is_ident("analyze"):
            stmt = self.parse_analyze()
        elif token.is_ident("begin", "start", "commit", "end", "rollback"):
            stmt = self.parse_txn_control()
        else:
            raise SqlSyntaxError(
                f"unsupported statement starting with {token.value!r}"
            )
        self.accept_punct(";")
        tail = self.peek()
        if tail.type is not TokenType.END:
            raise SqlSyntaxError(
                f"trailing input near offset {tail.pos} in {self.sql!r}"
            )
        return stmt

    def parse_create(self) -> ast.Statement:
        self.expect_ident("create")
        if self.accept_ident("table"):
            if_not_exists = False
            if self.accept_ident("if"):
                self.expect_ident("not")
                self.expect_ident("exists")
                if_not_exists = True
            name = self.identifier("table name")
            self.expect_punct("(")
            columns: List[ast.ColumnDef] = []
            while True:
                col_name = self.identifier("column name")
                type_name = self.identifier("column type")
                # swallow VARCHAR(30)-style size suffixes
                if self.accept_punct("("):
                    while not self.accept_punct(")"):
                        self.advance()
                columns.append(ast.ColumnDef(col_name, type_name))
                if not self.accept_punct(","):
                    break
            self.expect_punct(")")
            return ast.CreateTable(name, columns, if_not_exists)
        if self.accept_ident("spatial"):
            self.expect_ident("index")
            name = self.identifier("index name")
            self.expect_ident("on")
            table = self.identifier("table name")
            self.expect_punct("(")
            column = self.identifier("column name")
            self.expect_punct(")")
            using = None
            if self.accept_ident("using"):
                using = self.identifier("index kind")
            return ast.CreateSpatialIndex(name, table, column, using)
        if self.accept_ident("index"):
            name = self.identifier("index name")
            self.expect_ident("on")
            table = self.identifier("table name")
            self.expect_punct("(")
            columns = [self.identifier("column name")]
            while self.accept_punct(","):
                columns.append(self.identifier("column name"))
            self.expect_punct(")")
            return ast.CreateIndex(name, table, columns)
        raise SqlSyntaxError(
            "expected TABLE, INDEX or SPATIAL INDEX after CREATE"
        )

    def parse_analyze(self) -> ast.Statement:
        self.expect_ident("analyze")
        table = None
        if self.peek().type is TokenType.IDENT:
            table = self.identifier("table name")
        return ast.Analyze(table)

    def parse_txn_control(self) -> ast.Statement:
        """BEGIN/START TRANSACTION, COMMIT/END and ROLLBACK, with the
        optional WORK/TRANSACTION noise words SQL allows."""
        keyword = self.expect_ident(
            "begin", "start", "commit", "end", "rollback"
        ).value.lower()
        if keyword == "start":
            self.expect_ident("transaction")
            return ast.Begin()
        self.accept_ident("work", "transaction")
        if keyword == "begin":
            return ast.Begin()
        if keyword == "rollback":
            return ast.Rollback()
        return ast.Commit()

    def parse_drop(self) -> ast.Statement:
        self.expect_ident("drop")
        kind = self.expect_ident("table", "index").value
        if_exists = False
        if self.accept_ident("if"):
            self.expect_ident("exists")
            if_exists = True
        name = self.identifier(f"{kind} name")
        if kind == "table":
            return ast.DropTable(name, if_exists)
        return ast.DropIndex(name, if_exists)

    def parse_insert(self) -> ast.Insert:
        self.expect_ident("insert")
        self.expect_ident("into")
        table = self.identifier("table name")
        columns: Optional[List[str]] = None
        if self.accept_punct("("):
            columns = [self.identifier("column name")]
            while self.accept_punct(","):
                columns.append(self.identifier("column name"))
            self.expect_punct(")")
        self.expect_ident("values")
        rows: List[List[ast.Expr]] = []
        while True:
            self.expect_punct("(")
            row = [self.parse_expr()]
            while self.accept_punct(","):
                row.append(self.parse_expr())
            self.expect_punct(")")
            rows.append(row)
            if not self.accept_punct(","):
                break
        return ast.Insert(table, columns, rows)

    def parse_delete(self) -> ast.Delete:
        self.expect_ident("delete")
        self.expect_ident("from")
        table = self.identifier("table name")
        where = self.parse_expr() if self.accept_ident("where") else None
        return ast.Delete(table, where)

    def parse_update(self) -> ast.Update:
        self.expect_ident("update")
        table = self.identifier("table name")
        self.expect_ident("set")
        assignments = [self._parse_assignment()]
        while self.accept_punct(","):
            assignments.append(self._parse_assignment())
        where = self.parse_expr() if self.accept_ident("where") else None
        return ast.Update(table, assignments, where)

    def _parse_assignment(self):
        column = self.identifier("column name")
        token = self.peek()
        if not (token.type is TokenType.OPERATOR and token.value == "="):
            raise SqlSyntaxError(
                f"expected '=' in SET near offset {token.pos} in {self.sql!r}"
            )
        self.advance()
        return (column, self.parse_expr())

    def parse_select(self) -> ast.Select:
        self.expect_ident("select")
        distinct = bool(self.accept_ident("distinct"))
        self.accept_ident("all")
        items = [self.parse_select_item()]
        while self.accept_punct(","):
            items.append(self.parse_select_item())
        select = ast.Select(items=items, distinct=distinct)
        if self.accept_ident("from"):
            select.source = self.parse_table_ref()
            while True:
                if self.accept_ident("join") or (
                    self.accept_ident("inner") and self.expect_ident("join")
                ):
                    table = self.parse_table_ref()
                    self.expect_ident("on")
                    condition: Optional[ast.Expr] = self.parse_expr()
                elif self.accept_ident("cross"):
                    self.expect_ident("join")
                    table = self.parse_table_ref()
                    condition = None
                elif self.accept_punct(","):
                    table = self.parse_table_ref()
                    condition = None
                else:
                    break
                select.joins.append(ast.Join(table, condition))
        if self.accept_ident("where"):
            select.where = self.parse_expr()
        if self.accept_ident("group"):
            self.expect_ident("by")
            select.group_by.append(self.parse_expr())
            while self.accept_punct(","):
                select.group_by.append(self.parse_expr())
        if self.accept_ident("having"):
            select.having = self.parse_expr()
        if self.accept_ident("order"):
            self.expect_ident("by")
            select.order_by.append(self.parse_order_item())
            while self.accept_punct(","):
                select.order_by.append(self.parse_order_item())
        if self.accept_ident("limit"):
            select.limit = self.parse_expr()
        if self.accept_ident("offset"):
            select.offset = self.parse_expr()
        return select

    def parse_select_item(self) -> ast.SelectItem:
        token = self.peek()
        if token.type is TokenType.OPERATOR and token.value == "*":
            self.advance()
            return ast.SelectItem(ast.Star())
        # alias.* needs two-token lookahead
        if (
            token.type is TokenType.IDENT
            and self.tokens[self.pos + 1].type is TokenType.PUNCT
            and self.tokens[self.pos + 1].value == "."
            and self.tokens[self.pos + 2].type is TokenType.OPERATOR
            and self.tokens[self.pos + 2].value == "*"
        ):
            self.advance()
            self.advance()
            self.advance()
            return ast.SelectItem(ast.Star(table=token.value))
        expr = self.parse_expr()
        alias = None
        if self.accept_ident("as"):
            alias = self.identifier("alias")
        elif (
            self.peek().type is TokenType.IDENT
            and self.peek().value not in _CLAUSE_KEYWORDS
        ):
            alias = self.advance().value
        return ast.SelectItem(expr, alias)

    def parse_table_ref(self) -> ast.TableRef:
        name = self.identifier("table name")
        alias = name
        if self.accept_ident("as"):
            alias = self.identifier("alias")
        elif (
            self.peek().type is TokenType.IDENT
            and self.peek().value not in _CLAUSE_KEYWORDS
        ):
            alias = self.advance().value
        return ast.TableRef(name, alias)

    def parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expr()
        descending = False
        if self.accept_ident("desc"):
            descending = True
        else:
            self.accept_ident("asc")
        return ast.OrderItem(expr, descending)

    # -- expressions -------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self.parse_or()

    def parse_or(self) -> ast.Expr:
        left = self.parse_and()
        while self.accept_ident("or"):
            left = ast.BinaryOp("or", left, self.parse_and())
        return left

    def parse_and(self) -> ast.Expr:
        left = self.parse_not()
        while self.accept_ident("and"):
            left = ast.BinaryOp("and", left, self.parse_not())
        return left

    def parse_not(self) -> ast.Expr:
        if self.accept_ident("not"):
            return ast.UnaryOp("not", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> ast.Expr:
        left = self.parse_additive()
        op = self.accept_operator(*_COMPARISONS)
        if op is not None:
            if op == "!=":
                op = "<>"
            return ast.BinaryOp(op, left, self.parse_additive())
        if self.accept_ident("like"):
            return ast.BinaryOp("like", left, self.parse_additive())
        negated = False
        if self.peek().is_ident("not"):
            nxt = self.tokens[self.pos + 1]
            if nxt.is_ident("like", "between", "in"):
                self.advance()
                negated = True
        if self.accept_ident("like"):
            inner = ast.BinaryOp("like", left, self.parse_additive())
            return ast.UnaryOp("not", inner)
        if self.accept_ident("between"):
            low = self.parse_additive()
            self.expect_ident("and")
            high = self.parse_additive()
            return ast.Between(left, low, high, negated)
        if self.accept_ident("in"):
            self.expect_punct("(")
            options = [self.parse_expr()]
            while self.accept_punct(","):
                options.append(self.parse_expr())
            self.expect_punct(")")
            return ast.InList(left, tuple(options), negated)
        if self.accept_ident("is"):
            neg = bool(self.accept_ident("not"))
            self.expect_ident("null")
            return ast.IsNull(left, neg)
        return left

    def parse_additive(self) -> ast.Expr:
        left = self.parse_multiplicative()
        while True:
            op = self.accept_operator("+", "-", "||", "<->")
            if op is None:
                return left
            left = ast.BinaryOp(op, left, self.parse_multiplicative())

    def parse_multiplicative(self) -> ast.Expr:
        left = self.parse_unary()
        while True:
            op = self.accept_operator("*", "/", "%")
            if op is None:
                return left
            left = ast.BinaryOp(op, left, self.parse_unary())

    def parse_unary(self) -> ast.Expr:
        if self.accept_operator("-"):
            return ast.UnaryOp("-", self.parse_unary())
        if self.accept_operator("+"):
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.type is TokenType.NUMBER:
            self.advance()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return ast.Literal(float(text))
            return ast.Literal(int(text))
        if token.type is TokenType.STRING:
            self.advance()
            return ast.Literal(token.value)
        if token.type is TokenType.PARAM:
            self.advance()
            param = ast.Param(self.param_count)
            self.param_count += 1
            return param
        if token.type is TokenType.PUNCT and token.value == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        if token.type is TokenType.IDENT:
            if token.value == "null":
                self.advance()
                return ast.Literal(None)
            if token.value == "true":
                self.advance()
                return ast.Literal(True)
            if token.value == "false":
                self.advance()
                return ast.Literal(False)
            name = self.advance().value
            if self.accept_punct("("):
                distinct = bool(self.accept_ident("distinct"))
                args: List[ast.Expr] = []
                star = self.peek()
                if star.type is TokenType.OPERATOR and star.value == "*":
                    self.advance()
                    args.append(ast.Star())
                elif not (
                    self.peek().type is TokenType.PUNCT
                    and self.peek().value == ")"
                ):
                    args.append(self.parse_expr())
                    while self.accept_punct(","):
                        args.append(self.parse_expr())
                self.expect_punct(")")
                return ast.FuncCall(name, tuple(args), distinct)
            if self.accept_punct("."):
                column = self.identifier("column name")
                return ast.ColumnRef(column, table=name)
            return ast.ColumnRef(name)
        raise SqlSyntaxError(
            f"unexpected token {token.value!r} at offset {token.pos} "
            f"in {self.sql!r}"
        )


def parse(sql: str) -> ast.Statement:
    """Parse one SQL statement."""
    return Parser(sql).parse_statement()
