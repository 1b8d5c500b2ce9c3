"""SQLite as an independent oracle for final answers (Theorem 1).

:class:`SQLiteOracle` loads a catalog into an in-memory SQLite database
(stdlib ``sqlite3``) and answers a logical plan by printing it as one
SQL query. It evaluates nothing with engine code: plan nodes,
expressions and aggregate specs are only read to print them, and catalog
relations only to load them. What it shares with the engine is the
workload's scalar UDF callables (``Func.fn``, e.g. the Conviva
``join_time_bucket`` and ``engagement_score``), registered with
``create_function``. The aggregates SQL lacks (``var``, ``stddev``,
``geomean``, the quantiles) are written here from their definitions with
``math.fsum``; ``COUNT``, ``SUM``, ``AVG``, ``MIN`` and ``MAX`` are
SQLite's own.

Semantics the printer pins:

* ``/`` is REAL division (``1.0 * a / b``); ``%`` is Python's modulo
  (SQLite's casts REAL operands to INTEGER);
* a result NULL reads as NaN (SQLite stores a loaded NaN as NULL, and
  its ``AVG`` of no rows is NULL where the engine's is NaN);
* base tables are bags of unit multiplicity, as the workload catalogs
  are; a catalog with other multiplicities is refused at load.

Known gaps, none reached by the workload or property plans: SQLite's
``SUM`` of no rows is NULL where the engine's is 0; ``x / 0`` is NULL
where the engine's is ±inf or NaN; a comparison with a NULL operand is
NULL (false under ``NOT`` too) where NumPy's ``NaN != x`` is true;
user-defined UDAFs have no SQL definition and are refused.

A plan prints as flat SQL as long as it stays one select-project-join-
aggregate block (the nine flat workload queries do), so ``repro.sql``
can parse it back; a nested block becomes a derived table.
"""

from __future__ import annotations

import itertools
import math
import sqlite3
from dataclasses import dataclass, field, replace

import numpy as np

from repro.relational.aggregates import (
    Avg,
    Count,
    GeometricMean,
    Max,
    Min,
    Quantile,
    Stddev,
    Sum,
    Variance,
)
from repro.relational.algebra import (
    Aggregate,
    Distinct,
    Join,
    PlanNode,
    Project,
    Rename,
    Scan,
    Select,
    Union,
)
from repro.relational.expressions import (
    And,
    Arith,
    Col,
    Comparison,
    Func,
    InList,
    Literal,
    Not,
    Or,
)
from repro.relational.schema import ColumnType

#: Relative tolerance of an answer against SQLite's.
REL_TOL = 1e-9

_SQL_TYPES = {
    ColumnType.INT: "INTEGER",
    ColumnType.FLOAT: "REAL",
    ColumnType.STRING: "TEXT",
    ColumnType.BOOL: "INTEGER",
}
_CMP = {"==": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_NATIVE_AGGS = {Sum: "SUM", Avg: "AVG", Min: "MIN", Max: "MAX"}


class _ValuesAggregate:
    """A ``create_aggregate`` class that collects its non-NULL inputs."""

    def __init__(self) -> None:
        self.values: list[float] = []

    def step(self, value: float | None) -> None:
        if value is not None:
            self.values.append(float(value))

    def finalize(self) -> float | None:
        return self.result(self.values) if self.values else None


class _Variance(_ValuesAggregate):
    """Population variance: the mean squared deviation from the mean."""

    @staticmethod
    def result(xs: list[float]) -> float:
        mean = math.fsum(xs) / len(xs)
        return math.fsum((x - mean) ** 2 for x in xs) / len(xs)


class _Stddev(_ValuesAggregate):
    @staticmethod
    def result(xs: list[float]) -> float:
        return math.sqrt(_Variance.result(xs))


class _GeometricMean(_ValuesAggregate):
    """``exp`` of the mean log; defined for positive inputs only."""

    @staticmethod
    def result(xs: list[float]) -> float:
        if min(xs) <= 0.0:
            raise ValueError("geomean requires strictly positive values")
        return math.exp(math.fsum(math.log(x) for x in xs) / len(xs))


def _quantile_aggregate(q: float) -> type:
    """The smallest value whose rank ``k`` (1-based, ascending) reaches
    ``q·n``: ``k = max(1, ceil(q·n))``."""

    class _Quantile(_ValuesAggregate):
        @staticmethod
        def result(xs: list[float]) -> float:
            return sorted(xs)[max(1, math.ceil(q * len(xs))) - 1]

    return _Quantile


def _sql_udf(fn):
    """A UDF as SQLite calls it: NULL arguments read as NaN, and the
    result (a NumPy scalar or 0-d array from a vectorized UDF) becomes a
    Python scalar; NaN goes back as NULL."""

    def call(*args):
        out = np.asarray(fn(*(math.nan if a is None else a for a in args))).item()
        return None if isinstance(out, float) and math.isnan(out) else out

    return call


def _py_mod(a, b):
    return None if a is None or b is None else a % b


def _literal(value: object) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"no SQL literal for {value!r}")
        return repr(float(value))
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    raise ValueError(f"no SQL literal for {value!r}")


@dataclass
class _Block:
    """One SELECT under construction: FROM items, the output columns as
    SQL expressions over them, and the clauses so far."""

    sources: list[str]
    cols: dict[str, str]
    where: list[str] = field(default_factory=list)
    #: ``None`` until the block aggregates; ``[]`` for a scalar aggregate.
    group_by: list[str] | None = None
    having: list[str] = field(default_factory=list)
    distinct: bool = False

    def sql(self) -> str:
        items = ", ".join(f"{expr} AS {name}" for name, expr in self.cols.items())
        text = f"SELECT {'DISTINCT ' if self.distinct else ''}{items} FROM {', '.join(self.sources)}"
        if self.where:
            text += " WHERE " + " AND ".join(self.where)
        if self.group_by:
            text += " GROUP BY " + ", ".join(self.group_by)
        if self.having:
            text += " HAVING " + " AND ".join(self.having)
        return text


class SQLiteOracle:
    """A catalog loaded into SQLite, answering plans printed as SQL."""

    def __init__(self, catalog) -> None:
        self.db = sqlite3.connect(":memory:")
        self._aliases = itertools.count()
        for name in catalog:
            rel = catalog.get(name)
            if not np.all(rel.mult == 1.0):
                raise ValueError(f"table {name!r} is not a bag of unit multiplicity")
            decl = ", ".join(f"{c.name} {_SQL_TYPES[c.ctype]}" for c in rel.schema)
            self.db.execute(f"CREATE TABLE {name} ({decl})")
            marks = ", ".join("?" * len(rel.schema))
            columns = [rel.columns[c].tolist() for c in rel.schema.names]
            self.db.executemany(f"INSERT INTO {name} VALUES ({marks})", zip(*columns))
        self.db.create_function("py_mod", 2, _py_mod, deterministic=True)
        for udaf, cls in (("var", _Variance), ("stddev", _Stddev), ("geomean", _GeometricMean)):
            self.db.create_aggregate(udaf, 1, cls)

    def query(self, plan: PlanNode) -> list[tuple]:
        """The plan's answer rows, in SQLite's order, NULL read as NaN."""
        rows = self.db.execute(self.to_sql(plan)).fetchall()
        return [tuple(math.nan if v is None else v for v in row) for row in rows]

    def to_sql(self, plan: PlanNode) -> str:
        return self._block(plan).sql()

    # -- plans ------------------------------------------------------------------

    def _block(self, node: PlanNode) -> _Block:
        if isinstance(node, Scan):
            alias = f"t{next(self._aliases)}"
            return _Block([f"{node.table} AS {alias}"], {c: f"{alias}.{c}" for c in node.schema.names})
        if isinstance(node, Select):
            b = self._open(node.child, aggregated_ok=True)
            if b.group_by == []:  # SQLite before 3.39 has no HAVING without GROUP BY
                b = self._derived(b.sql(), list(b.cols))
            cond = self._expr(node.predicate, b.cols)
            (b.having if b.group_by is not None else b.where).append(cond)
            return b
        if isinstance(node, Project):
            b = self._open(node.child, aggregated_ok=True)
            return replace(b, cols={name: self._expr(e, b.cols) for name, e in node.outputs})
        if isinstance(node, Rename):
            b = self._block(node.child)
            return replace(b, cols={node.mapping.get(n, n): e for n, e in b.cols.items()})
        if isinstance(node, Join):
            left, right = self._open(node.left), self._open(node.right)
            drop = set(node.right_keys)
            return _Block(
                left.sources + right.sources,
                {**left.cols, **{n: e for n, e in right.cols.items() if n not in drop}},
                left.where
                + right.where
                + [f"{left.cols[lk]} = {right.cols[rk]}" for lk, rk in node.keys],
            )
        if isinstance(node, Union):
            left, right = self._block(node.left), self._block(node.right)
            return self._derived(f"{left.sql()} UNION ALL {right.sql()}", list(left.cols))
        if isinstance(node, Aggregate):
            b = self._open(node.child)
            cols = {g: b.cols[g] for g in node.group_by}
            cols.update({spec.name: self._agg(spec, b.cols) for spec in node.aggs})
            return replace(b, cols=cols, group_by=[b.cols[g] for g in node.group_by])
        if isinstance(node, Distinct):
            b = self._open(node.child, aggregated_ok=True)
            return replace(b, cols={c: b.cols[c] for c in node.columns}, distinct=True)
        raise ValueError(f"cannot print plan node {type(node).__name__}")

    def _open(self, node: PlanNode, aggregated_ok: bool = False) -> _Block:
        """``node``'s block, wrapped as a derived table when the next
        clause could not be added to it: after DISTINCT always, after an
        aggregation unless the clause is a HAVING or a select list."""
        b = self._block(node)
        if b.distinct or (b.group_by is not None and not aggregated_ok):
            return self._derived(b.sql(), list(b.cols))
        return b

    def _derived(self, text: str, names: list[str]) -> _Block:
        alias = f"d{next(self._aliases)}"
        return _Block([f"({text}) AS {alias}"], {n: f"{alias}.{n}" for n in names})

    # -- expressions and aggregates ---------------------------------------------

    def _expr(self, e, cols: dict[str, str]) -> str:
        if isinstance(e, Col):
            return cols[e.name]
        if isinstance(e, Literal):
            return _literal(e.value)
        if isinstance(e, Arith):
            lhs, rhs = self._expr(e.left, cols), self._expr(e.right, cols)
            if e.op == "/":
                return f"(1.0 * {lhs} / {rhs})"
            if e.op == "%":
                return f"py_mod({lhs}, {rhs})"
            return f"({lhs} {e.op} {rhs})"
        if isinstance(e, Comparison):
            return f"({self._expr(e.left, cols)} {_CMP[e.op]} {self._expr(e.right, cols)})"
        if isinstance(e, (And, Or)):
            op = "AND" if isinstance(e, And) else "OR"
            return f"({self._expr(e.left, cols)} {op} {self._expr(e.right, cols)})"
        if isinstance(e, Not):
            return f"(NOT {self._expr(e.child, cols)})"
        if isinstance(e, InList):
            values = ", ".join(_literal(v) for v in e.values)
            return f"({self._expr(e.child, cols)} IN ({values}))"
        if isinstance(e, Func):
            self.db.create_function(e.name, len(e.args), _sql_udf(e.fn), deterministic=True)
            return f"{e.name}({', '.join(self._expr(a, cols) for a in e.args)})"
        raise ValueError(f"cannot print expression {type(e).__name__}")

    def _agg(self, spec, cols: dict[str, str]) -> str:
        func = spec.func
        if isinstance(func, Count):
            return "COUNT(*)"
        arg = self._expr(spec.arg, cols)
        native = _NATIVE_AGGS.get(type(func))
        if native is not None:
            return f"{native}({arg})"
        if isinstance(func, Quantile):
            self.db.create_aggregate(func.name, 1, _quantile_aggregate(func.q))
        elif type(func) not in (Variance, Stddev, GeometricMean):
            raise ValueError(f"aggregate {func.name!r} has no SQL definition")
        return f"{func.name}({arg})"


def rows_of(rel) -> list[tuple]:
    """An engine result as value tuples, one per row (unit multiplicity)."""
    if not np.all(rel.mult == 1.0):
        raise ValueError("result rows must have unit multiplicity")
    return list(zip(*(rel.columns[n].tolist() for n in rel.schema.names)))


def mismatch(got: list[tuple], want: list[tuple], rel_tol: float = REL_TOL) -> str | None:
    """``None`` when the two bags of rows agree (numbers at ``rel_tol``,
    NaN equal to NaN), else the first difference."""
    if len(got) != len(want):
        return f"{len(got)} rows != SQLite's {len(want)}"
    for a, b in zip(sorted(got, key=_order), sorted(want, key=_order)):
        if len(a) != len(b) or not all(_same(x, y, rel_tol) for x, y in zip(a, b)):
            return f"row {a} != SQLite's {b}"
    return None


def _order(row: tuple) -> tuple:
    return tuple(
        (1, 0.0, v) if isinstance(v, str) else (0, -math.inf if math.isnan(v) else v, "")
        for v in row
    )


def _same(a, b, rel_tol: float) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rel_tol)
