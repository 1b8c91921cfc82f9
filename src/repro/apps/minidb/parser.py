"""Recursive-descent SQL parser for minidb."""

from __future__ import annotations

from typing import Any

from repro.apps.minidb import ast_nodes as ast
from repro.apps.minidb.lexer import SqlError, Token, tokenize


class Parser:
    def __init__(self, sql: str) -> None:
        self.tokens = tokenize(sql)
        self.pos = 0

    # -- token helpers ------------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.advance()
        if token.kind != kind or (value is not None
                                  and token.value != value):
            wanted = value or kind
            raise SqlError(
                f"expected {wanted}, got {token.value!r} at "
                f"{token.position}")
        return token

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        token = self.peek()
        if token.kind == kind and (value is None or token.value == value):
            return self.advance()
        return None

    # -- entry ---------------------------------------------------------------
    def parse(self):
        token = self.peek()
        if token.kind != "KEYWORD":
            raise SqlError(f"statement must start with a keyword, got "
                           f"{token.value!r}")
        handler = {
            "CREATE": self._create,
            "DROP": self._drop,
            "INSERT": self._insert,
            "SELECT": self._select,
            "UPDATE": self._update,
            "DELETE": self._delete,
            "BEGIN": self._begin,
            "COMMIT": self._commit,
            "ROLLBACK": self._rollback,
        }.get(token.value)
        if handler is None:
            raise SqlError(f"unsupported statement {token.value}")
        statement = handler()
        self.accept("SYMBOL", ";")
        self.expect("EOF")
        return statement

    # -- statements --------------------------------------------------------
    def _create(self):
        self.expect("KEYWORD", "CREATE")
        if self.accept("KEYWORD", "INDEX"):
            name = self.expect("IDENT").value
            self.expect("KEYWORD", "ON")
            table = self.expect("IDENT").value
            self.expect("SYMBOL", "(")
            column = self.expect("IDENT").value
            self.expect("SYMBOL", ")")
            return ast.CreateIndex(name=name, table=table, column=column)
        self.expect("KEYWORD", "TABLE")
        table = self.expect("IDENT").value
        self.expect("SYMBOL", "(")
        columns = []
        while True:
            col_name = self.expect("IDENT").value
            type_token = self.expect("KEYWORD")
            if type_token.value not in ("INTEGER", "TEXT", "REAL"):
                raise SqlError(f"unknown column type {type_token.value}")
            primary = False
            if self.accept("KEYWORD", "PRIMARY"):
                self.expect("KEYWORD", "KEY")
                primary = True
            columns.append(ast.ColumnDef(col_name, type_token.value,
                                         primary))
            if not self.accept("SYMBOL", ","):
                break
        self.expect("SYMBOL", ")")
        if sum(c.primary_key for c in columns) > 1:
            raise SqlError("at most one PRIMARY KEY column")
        return ast.CreateTable(table=table, columns=tuple(columns))

    def _drop(self):
        self.expect("KEYWORD", "DROP")
        self.expect("KEYWORD", "TABLE")
        return ast.DropTable(table=self.expect("IDENT").value)

    def _insert(self):
        self.expect("KEYWORD", "INSERT")
        self.expect("KEYWORD", "INTO")
        table = self.expect("IDENT").value
        self.expect("KEYWORD", "VALUES")
        self.expect("SYMBOL", "(")
        values = [self._literal()]
        while self.accept("SYMBOL", ","):
            values.append(self._literal())
        self.expect("SYMBOL", ")")
        return ast.Insert(table=table, values=tuple(values))

    _AGG_FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")

    def _aggregate(self):
        token = self.peek()
        if token.kind != "KEYWORD" or token.value not in self._AGG_FUNCS:
            return None
        func = self.advance().value
        self.expect("SYMBOL", "(")
        if func == "COUNT" and self.accept("SYMBOL", "*"):
            column = "*"
        else:
            column = self.expect("IDENT").value
        self.expect("SYMBOL", ")")
        return ast.Aggregate(func=func, column=column)

    def _select(self):
        self.expect("KEYWORD", "SELECT")
        count = False
        aggregates: list = []
        columns: tuple[str, ...]
        first_agg = self._aggregate()
        if first_agg is not None:
            aggregates.append(first_agg)
            while self.accept("SYMBOL", ","):
                next_agg = self._aggregate()
                if next_agg is None:
                    raise SqlError(
                        "cannot mix aggregates and plain columns")
                aggregates.append(next_agg)
            columns = ()
            if aggregates == [ast.Aggregate("COUNT", "*")]:
                count = True   # legacy COUNT(*) fast path
                aggregates = []
        elif self.accept("SYMBOL", "*"):
            columns = ("*",)
        else:
            names = [self.expect("IDENT").value]
            while self.accept("SYMBOL", ","):
                names.append(self.expect("IDENT").value)
            columns = tuple(names)
        self.expect("KEYWORD", "FROM")
        table = self.expect("IDENT").value
        where = self._where()
        order_by, descending = None, False
        if self.accept("KEYWORD", "ORDER"):
            self.expect("KEYWORD", "BY")
            order_by = self.expect("IDENT").value
            if self.accept("KEYWORD", "DESC"):
                descending = True
            else:
                self.accept("KEYWORD", "ASC")
        limit = None
        if self.accept("KEYWORD", "LIMIT"):
            limit = self._number(self.expect("INT"))
        return ast.Select(table=table, columns=columns, where=where,
                          order_by=order_by, descending=descending,
                          limit=limit, count=count,
                          aggregates=tuple(aggregates))

    def _update(self):
        self.expect("KEYWORD", "UPDATE")
        table = self.expect("IDENT").value
        self.expect("KEYWORD", "SET")
        assignments = [self._assignment()]
        while self.accept("SYMBOL", ","):
            assignments.append(self._assignment())
        return ast.Update(table=table, assignments=tuple(assignments),
                          where=self._where())

    def _delete(self):
        self.expect("KEYWORD", "DELETE")
        self.expect("KEYWORD", "FROM")
        table = self.expect("IDENT").value
        return ast.Delete(table=table, where=self._where())

    def _begin(self):
        self.expect("KEYWORD", "BEGIN")
        return ast.Begin()

    def _commit(self):
        self.expect("KEYWORD", "COMMIT")
        return ast.Commit()

    def _rollback(self):
        self.expect("KEYWORD", "ROLLBACK")
        return ast.Rollback()

    # -- expressions ------------------------------------------------------
    def _assignment(self) -> tuple[str, Any]:
        column = self.expect("IDENT").value
        self.expect("SYMBOL", "=")
        return (column, self._literal())

    def _where(self):
        if not self.accept("KEYWORD", "WHERE"):
            return None
        return self._or_expr()

    def _or_expr(self):
        left = self._and_expr()
        while self.accept("KEYWORD", "OR"):
            left = ast.BoolExpr("OR", left, self._and_expr())
        return left

    def _and_expr(self):
        left = self._comparison()
        while self.accept("KEYWORD", "AND"):
            left = ast.BoolExpr("AND", left, self._comparison())
        return left

    def _comparison(self):
        if self.accept("SYMBOL", "("):
            expr = self._or_expr()
            self.expect("SYMBOL", ")")
            return expr
        column = self.expect("IDENT").value
        if self.accept("KEYWORD", "LIKE"):
            pattern = self._literal()
            if not isinstance(pattern, str):
                raise SqlError("LIKE pattern must be a string")
            return ast.Comparison(column=column, op="LIKE",
                                  value=pattern)
        op_token = self.expect("SYMBOL")
        if op_token.value not in ("=", "!=", "<>", "<", "<=", ">", ">="):
            raise SqlError(f"bad comparison operator {op_token.value}")
        op = "!=" if op_token.value == "<>" else op_token.value
        return ast.Comparison(column=column, op=op, value=self._literal())

    def _literal(self) -> Any:
        token = self.advance()
        if token.kind in ("INT", "FLOAT"):
            return self._number(token)
        if token.kind == "STRING":
            return token.value
        if token.kind == "KEYWORD" and token.value == "NULL":
            return None
        raise SqlError(f"expected a literal, got {token.value!r} at "
                       f"{token.position}")

    @staticmethod
    def _number(token: Token) -> int | float:
        """The lexer's digits are ``str.isdigit``'s, which include
        non-decimal ones such as ``²`` that ``int``/``float`` refuse."""
        try:
            return (float if token.kind == "FLOAT" else int)(token.value)
        except ValueError:
            raise SqlError(f"bad number {token.value!r} at "
                           f"{token.position}") from None


def parse(sql: str):
    """Parse one SQL statement into its AST node."""
    return Parser(sql).parse()
