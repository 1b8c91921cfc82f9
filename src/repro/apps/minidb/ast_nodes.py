"""AST node types for minidb statements and expressions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str           # INTEGER | TEXT | REAL
    primary_key: bool = False


@dataclass(frozen=True)
class Comparison:
    column: str
    op: str                  # = != < <= > >= LIKE
    value: Any


@dataclass(frozen=True)
class BoolExpr:
    """Conjunction/disjunction tree over comparisons."""

    op: str                  # AND | OR
    left: "BoolExpr | Comparison"
    right: "BoolExpr | Comparison"


Predicate = "BoolExpr | Comparison | None"


@dataclass(frozen=True)
class CreateTable:
    table: str
    columns: tuple[ColumnDef, ...]


@dataclass(frozen=True)
class DropTable:
    table: str


@dataclass(frozen=True)
class CreateIndex:
    name: str
    table: str
    column: str


@dataclass(frozen=True)
class Insert:
    table: str
    values: tuple[Any, ...]


@dataclass(frozen=True)
class Aggregate:
    """One aggregate projection, e.g. SUM(score)."""

    func: str                     # COUNT | SUM | AVG | MIN | MAX
    column: str                   # "*" only for COUNT


@dataclass(frozen=True)
class Select:
    table: str
    columns: tuple[str, ...]      # ("*",) for all
    where: Any = None
    order_by: str | None = None
    descending: bool = False
    limit: int | None = None
    count: bool = False           # SELECT COUNT(*) (legacy fast path)
    aggregates: tuple["Aggregate", ...] = ()


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Any], ...]
    where: Any = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: Any = None


@dataclass(frozen=True)
class Begin:
    pass


@dataclass(frozen=True)
class Commit:
    pass


@dataclass(frozen=True)
class Rollback:
    pass


Statement = (CreateTable, DropTable, CreateIndex, Insert, Select, Update,
             Delete, Begin, Commit, Rollback)
