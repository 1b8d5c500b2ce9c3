"""Lowering SQL statements to logical plans.

The planner implements the rewrites the paper's examples assume:

* FROM/WHERE equality predicates become equi-joins (left-deep);
* an uncorrelated scalar aggregate subquery becomes a scalar AGGREGATE
  subplan cross-joined with the outer block (the paper's Figure 2(a));
* a correlated scalar aggregate subquery (correlated through equality
  predicates) becomes a grouped AGGREGATE joined on the correlation keys;
* ``x IN (SELECT k ... [GROUP BY/HAVING])`` becomes a semi-join against
  the DISTINCT membership view;
* GROUP BY / HAVING / post-aggregation expressions become
  AGGREGATE → SELECT → PROJECT.

Name scoping: columns may be qualified by table alias. When two joined
inputs would collide on a non-key column, the right side's column is
renamed ``<binding>_<column>`` automatically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SQLError
from repro.relational.aggregates import AGG_FUNCTIONS, AggSpec, Count
from repro.relational.algebra import Distinct, PlanNode, Rename, Scan
from repro.relational.expressions import (
    And,
    Arith,
    Col,
    Comparison,
    Expression,
    Func,
    InList as EngineInList,
    Literal,
    Not,
    Or,
    conjoin,
)
from repro.relational.schema import ColumnType, Schema
from repro.sql import ast
from repro.sql.parser import parse

_fresh = itertools.count()


@dataclass
class UDF:
    """A registered scalar user-defined function."""

    fn: Callable
    out_type: ColumnType = ColumnType.FLOAT
    vectorized: bool = False


@dataclass
class _Scope:
    """Column resolution scope: binding → physical column names."""

    #: (binding, column) -> physical column name in the current plan
    qualified: dict[tuple[str, str], str] = field(default_factory=dict)
    #: column -> physical name, or None when ambiguous
    unqualified: dict[str, str | None] = field(default_factory=dict)
    parent: "_Scope | None" = None
    #: correlated references collected while planning a subquery:
    #: (outer physical column) per use.
    correlated_uses: list[str] = field(default_factory=list)

    def add(self, binding: str, column: str, physical: str) -> None:
        self.qualified[(binding, column)] = physical
        if column in self.unqualified and self.unqualified[column] != physical:
            self.unqualified[column] = None
        else:
            self.unqualified[column] = physical

    def resolve(self, ref: ast.ColumnRef) -> tuple[str, bool]:
        """Resolve to a physical name; returns (name, is_correlated)."""
        local = self._resolve_local(ref)
        if local is not None:
            return local, False
        if self.parent is not None:
            name, _ = self.parent.resolve(ref)
            self.correlated_uses.append(name)
            return name, True
        raise SQLError(f"unknown column {ref!r}")

    def _resolve_local(self, ref: ast.ColumnRef) -> str | None:
        if ref.table is not None:
            return self.qualified.get((ref.table, ref.name))
        if ref.name in self.unqualified:
            name = self.unqualified[ref.name]
            if name is None:
                raise SQLError(f"ambiguous column {ref.name!r}; qualify it")
            return name
        return None


class SQLPlanner:
    """Plans parsed SQL statements against a catalog of schemas."""

    def __init__(
        self,
        schemas: dict[str, Schema],
        udfs: dict[str, UDF] | None = None,
    ):
        self.schemas = schemas
        self.udfs = udfs or {}

    def plan_sql(self, text: str) -> PlanNode:
        return self.plan(parse(text))

    def plan(self, stmt: ast.SelectStatement, outer: _Scope | None = None) -> PlanNode:
        scope = _Scope(parent=outer)
        where_conjuncts = _conjuncts(stmt.where) if stmt.where else []
        join_eqs, subquery_preds, filters = self._split_where(where_conjuncts)
        plan, leftover_eqs = self._plan_from(stmt, scope, join_eqs)
        filters = leftover_eqs + filters

        # Subquery predicates add joins to the plan, then become filters.
        for pred in subquery_preds:
            plan, rewritten = self._plan_subquery_predicate(plan, pred, scope)
            if rewritten is not None:
                filters.append(rewritten)

        if filters:
            plan = plan.select(conjoin([self._expr(f, scope) for f in filters]))

        plan = self._plan_aggregation(plan, stmt, scope)
        if stmt.distinct:
            plan = Distinct(plan, [self._item_name(it, i) for i, it in enumerate(stmt.items)])
        return plan

    # -- FROM clause -------------------------------------------------------------------

    def _plan_from(
        self,
        stmt: ast.SelectStatement,
        scope: _Scope,
        join_eqs: list[ast.BinaryOp],
    ) -> tuple[PlanNode, list[ast.SqlExpr]]:
        """Left-deep join of the FROM list, consuming WHERE equalities
        that connect each new table to the tables already planned. Unused
        equalities are returned to become ordinary filters (e.g. the
        dimension-dimension equality of TPC-H Q5)."""
        remaining = list(join_eqs)
        plan: PlanNode | None = None
        for table in stmt.tables:
            keys: list[tuple[str, str]] = []
            if plan is not None:
                keys, remaining = self._keys_for(table, remaining, scope)
            plan = self._join_table(plan, table, scope, keys=keys)
        for join in stmt.joins:
            keys = self._explicit_join_keys(join, scope)
            plan = self._join_table(plan, join.table, scope, keys=keys)
        assert plan is not None
        return plan, remaining

    def _keys_for(
        self,
        table: ast.TableRef,
        eqs: list[ast.BinaryOp],
        scope: _Scope,
    ) -> tuple[list[tuple[str, str]], list[ast.BinaryOp]]:
        schema = self.schemas.get(table.name)
        if schema is None:
            raise SQLError(f"unknown table {table.name!r}")
        keys: list[tuple[str, str]] = []
        leftover: list[ast.BinaryOp] = []
        for eq in eqs:
            pair = self._link(eq, table, schema, scope)
            if pair is None:
                leftover.append(eq)
            else:
                keys.append(pair)
        return keys, leftover

    def _link(
        self,
        eq: ast.BinaryOp,
        table: ast.TableRef,
        schema,
        scope: _Scope,
    ) -> tuple[str, str] | None:
        """Match ``planned.col = newtable.col`` (either orientation)."""

        def binds_new(ref: ast.ColumnRef) -> bool:
            if ref.table is not None:
                return ref.table == table.binding and ref.name in schema
            return ref.name in schema and scope._resolve_local(ref) is None

        left, right = eq.left, eq.right
        if binds_new(right) and not binds_new(left):
            inner, outer = right, left
        elif binds_new(left) and not binds_new(right):
            inner, outer = left, right
        else:
            return None
        resolved = scope._resolve_local(outer)
        if resolved is None:
            return None
        return resolved, inner.name

    def _join_table(
        self,
        plan: PlanNode | None,
        table: ast.TableRef,
        scope: _Scope,
        keys: list[tuple[str, str]],
        pending: ast.ExplicitJoin | None = None,
    ) -> PlanNode:
        if table.name not in self.schemas:
            raise SQLError(f"unknown table {table.name!r}")
        schema = self.schemas[table.name]
        node: PlanNode = Scan(table.name, schema)
        if plan is None:
            for column in schema.names:
                scope.add(table.binding, column, column)
            return node
        # Rename collisions on the incoming side (except join key columns,
        # which the join will drop anyway).
        existing = {p for p in scope.unqualified}
        mapping = {}
        key_cols = {rk for _, rk in keys}
        for column in schema.names:
            if column in existing and column not in key_cols:
                mapping[column] = f"{table.binding}_{column}"
        if mapping:
            node = Rename(node, mapping)
        for column in schema.names:
            if column in key_cols:
                continue
            scope.add(table.binding, column, mapping.get(column, column))
        for lk, rk in keys:
            scope.add(table.binding, rk, lk)
        return plan.join(node, keys=keys)

    def _explicit_join_keys(
        self, join: ast.ExplicitJoin, scope: _Scope
    ) -> list[tuple[str, str]]:
        keys = []
        for conj in _conjuncts(join.condition):
            if not (
                isinstance(conj, ast.BinaryOp)
                and conj.op == "="
                and isinstance(conj.left, ast.ColumnRef)
                and isinstance(conj.right, ast.ColumnRef)
            ):
                raise SQLError("JOIN ... ON supports only column equalities")
            left, right = conj.left, conj.right
            # The new table's column is whichever side binds to it.
            if right.table == join.table.binding or (
                right.table is None and right.name in self.schemas[join.table.name]
            ):
                outer_ref, inner_ref = left, right
            else:
                outer_ref, inner_ref = right, left
            outer_name, _ = scope.resolve(outer_ref)
            keys.append((outer_name, inner_ref.name))
        return keys

    # -- WHERE clause ----------------------------------------------------------------------

    def _split_where(
        self, conjuncts: list[ast.SqlExpr]
    ) -> tuple[list[ast.BinaryOp], list[ast.SqlExpr], list[ast.SqlExpr]]:
        join_eqs: list[ast.BinaryOp] = []
        subqueries: list[ast.SqlExpr] = []
        filters: list[ast.SqlExpr] = []
        for conj in conjuncts:
            if _contains_subquery(conj):
                subqueries.append(conj)
            elif (
                isinstance(conj, ast.BinaryOp)
                and conj.op == "="
                and isinstance(conj.left, ast.ColumnRef)
                and isinstance(conj.right, ast.ColumnRef)
            ):
                join_eqs.append(conj)
            else:
                filters.append(conj)
        return join_eqs, subqueries, filters

    # -- subqueries -------------------------------------------------------------------------

    def _plan_subquery_predicate(
        self, plan: PlanNode, pred: ast.SqlExpr, scope: _Scope
    ) -> tuple[PlanNode, ast.SqlExpr | None]:
        if isinstance(pred, ast.InSubquery):
            if pred.negated:
                raise SQLError(
                    "NOT IN (subquery) needs set difference, which is outside "
                    "the positive algebra the engine supports"
                )
            if not isinstance(pred.child, ast.ColumnRef):
                raise SQLError("IN (subquery) requires a plain column on the left")
            outer_col, _ = scope.resolve(pred.child)
            sub_plan, out_col = self._plan_membership(pred.query, scope)
            alias = f"__in{next(_fresh)}"
            sub_plan = Rename(sub_plan, {out_col: alias})
            return plan.join(sub_plan, keys=[(outer_col, alias)]), None

        # Scalar subqueries may be nested anywhere inside the predicate
        # expression (e.g. ``quantity < 0.7 * (SELECT AVG ...)``): attach
        # each one as a join and substitute a column reference in place.
        plan, rewritten = self._replace_scalar_subqueries(plan, pred, scope)
        return plan, rewritten

    def _replace_scalar_subqueries(
        self, plan: PlanNode, expr: ast.SqlExpr, scope: _Scope
    ) -> tuple[PlanNode, ast.SqlExpr]:
        if isinstance(expr, ast.ScalarSubquery):
            return self._attach_scalar_subquery(plan, expr.query, scope)
        if isinstance(expr, ast.InSubquery):
            raise SQLError(
                "IN (subquery) must be a top-level WHERE conjunct"
            )
        for attr in ("left", "right", "child", "low", "high"):
            if hasattr(expr, attr):
                plan, replaced = self._replace_scalar_subqueries(
                    plan, getattr(expr, attr), scope
                )
                setattr(expr, attr, replaced)
        if isinstance(expr, ast.FuncCall):
            new_args = []
            for arg in expr.args:
                plan, replaced = self._replace_scalar_subqueries(plan, arg, scope)
                new_args.append(replaced)
            expr.args = new_args
        return plan, expr

    def _attach_scalar_subquery(
        self, plan: PlanNode, sub: ast.SelectStatement, scope: _Scope
    ) -> tuple[PlanNode, ast.ColumnRef]:
        """Decorrelate and join a scalar aggregate subquery; returns the
        column reference standing in for its value."""
        if len(sub.items) != 1:
            raise SQLError("scalar subquery must select exactly one expression")
        # Pull correlation equalities out of the subquery's WHERE.
        inner_tables = {t.binding for t in sub.tables}
        corr_keys: list[tuple[str, str]] = []  # (outer physical, inner column)
        remaining: list[ast.SqlExpr] = []
        for conj in _conjuncts(sub.where) if sub.where else []:
            pair = self._correlation_pair(conj, inner_tables, scope)
            if pair is not None:
                corr_keys.append(pair)
            else:
                remaining.append(conj)
        inner_stmt = ast.SelectStatement(
            items=sub.items,
            tables=sub.tables,
            joins=sub.joins,
            where=_conjoin_ast(remaining),
            group_by=[ast.ColumnRef(ic) for _, ic in corr_keys],
            having=sub.having,
        )
        value_alias = f"__sub{next(_fresh)}"
        inner_stmt.items = [ast.SelectItem(sub.items[0].expr, value_alias)] + [
            ast.SelectItem(ast.ColumnRef(ic), ic) for _, ic in corr_keys
        ]
        inner_plan = self.plan(inner_stmt, outer=scope)
        if corr_keys:
            mapping = {ic: f"__ck{next(_fresh)}_{ic}" for _, ic in corr_keys}
            inner_plan = Rename(inner_plan, mapping)
            keys = [(outer, mapping[ic]) for outer, ic in corr_keys]
            plan = plan.join(inner_plan, keys=keys)
        else:
            plan = plan.join(inner_plan, keys=[])
        scope.add("", value_alias, value_alias)
        return plan, ast.ColumnRef(value_alias)

    def _correlation_pair(
        self, conj: ast.SqlExpr, inner_tables: set[str], outer: _Scope
    ) -> tuple[str, str] | None:
        """Detect ``inner.col = outer.col`` equality; returns the pair."""
        if not (
            isinstance(conj, ast.BinaryOp)
            and conj.op == "="
            and isinstance(conj.left, ast.ColumnRef)
            and isinstance(conj.right, ast.ColumnRef)
        ):
            return None
        left, right = conj.left, conj.right
        left_inner = left.table in inner_tables
        right_inner = right.table in inner_tables
        if left_inner == right_inner:
            return None
        inner_ref, outer_ref = (left, right) if left_inner else (right, left)
        try:
            outer_name, _ = outer.resolve(outer_ref)
        except SQLError:
            return None
        return outer_name, inner_ref.name

    def _plan_membership(
        self, sub: ast.SelectStatement, scope: _Scope
    ) -> tuple[PlanNode, str]:
        if len(sub.items) != 1:
            raise SQLError("IN subquery must select exactly one column")
        item = sub.items[0]
        if not isinstance(item.expr, ast.ColumnRef):
            raise SQLError("IN subquery must select a plain column")
        plan = self.plan(sub, outer=scope)
        out_col = item.alias or item.expr.name
        return Distinct(plan, [out_col]), out_col

    # -- aggregation ----------------------------------------------------------------------------

    def _plan_aggregation(
        self, plan: PlanNode, stmt: ast.SelectStatement, scope: _Scope
    ) -> PlanNode:
        aggs: list[AggSpec] = []
        rewritten_items: list[tuple[str, ast.SqlExpr]] = []
        for i, item in enumerate(stmt.items):
            name = self._item_name(item, i)
            rewritten_items.append((name, self._extract_aggs(item.expr, aggs, scope)))
        having_expr = (
            self._extract_aggs(stmt.having, aggs, scope) if stmt.having else None
        )

        if not aggs and not stmt.group_by:
            # Pure projection.
            return plan.project(
                [(name, self._expr(e, scope)) for name, e in rewritten_items]
            )

        group_cols = []
        for ref in stmt.group_by:
            physical, _ = scope.resolve(ref)
            group_cols.append(physical)
        plan = plan.aggregate(group_cols, aggs)
        agg_scope = _Scope(parent=scope.parent)
        for column in group_cols + [a.name for a in aggs]:
            agg_scope.add("", column, column)
        # A grouping column may also be named as GROUP BY qualifies it.
        for ref, column in zip(stmt.group_by, group_cols):
            if ref.table is not None:
                agg_scope.qualified[(ref.table, ref.name)] = column
        if having_expr is not None:
            plan = plan.select(self._expr(having_expr, agg_scope))
        return plan.project(
            [(name, self._expr(e, agg_scope)) for name, e in rewritten_items]
        )

    def _item_name(self, item: ast.SelectItem, index: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.ColumnRef):
            return item.expr.name
        if isinstance(item.expr, ast.FuncCall):
            return item.expr.name
        return f"col{index}"

    def _extract_aggs(
        self, expr: ast.SqlExpr, aggs: list[AggSpec], scope: _Scope
    ) -> ast.SqlExpr:
        """Replace aggregate calls with references to generated columns."""
        if isinstance(expr, ast.FuncCall) and expr.name in AGG_FUNCTIONS:
            func = AGG_FUNCTIONS[expr.name]()
            if expr.star or not expr.args:
                if not isinstance(func, Count):
                    raise SQLError(f"{expr.name.upper()} requires an argument")
                spec = AggSpec(f"__agg{next(_fresh)}", func)
            else:
                if len(expr.args) != 1:
                    raise SQLError(f"{expr.name.upper()} takes one argument")
                spec = AggSpec(
                    f"__agg{next(_fresh)}", func, self._expr(expr.args[0], scope)
                )
            aggs.append(spec)
            return ast.ColumnRef(spec.name)
        for attr in ("left", "right", "child"):
            if hasattr(expr, attr):
                setattr(
                    expr, attr, self._extract_aggs(getattr(expr, attr), aggs, scope)
                )
        if isinstance(expr, ast.FuncCall):
            expr.args = [self._extract_aggs(a, aggs, scope) for a in expr.args]
        return expr

    # -- expression lowering ----------------------------------------------------------------------

    def _expr(self, node: ast.SqlExpr, scope: _Scope) -> Expression:
        if isinstance(node, ast.ColumnRef):
            name, _ = scope.resolve(node)
            return Col(name)
        if isinstance(node, ast.NumberLit):
            return Literal(node.value)
        if isinstance(node, ast.StringLit):
            return Literal(node.value)
        if isinstance(node, ast.BoolLit):
            return Literal(node.value)
        if isinstance(node, ast.BinaryOp):
            left = self._expr(node.left, scope)
            right = self._expr(node.right, scope)
            if node.op in ("+", "-", "*", "/", "%"):
                return Arith(node.op, left, right)
            op = {"=": "==", "<>": "!=", "!=": "!="}.get(node.op, node.op)
            return Comparison(op, left, right)
        if isinstance(node, ast.BoolOp):
            left = self._expr(node.left, scope)
            right = self._expr(node.right, scope)
            return And(left, right) if node.op == "AND" else Or(left, right)
        if isinstance(node, ast.NotOp):
            return Not(self._expr(node.child, scope))
        if isinstance(node, ast.Between):
            child = self._expr(node.child, scope)
            low = self._expr(node.low, scope)
            high = self._expr(node.high, scope)
            return And(Comparison(">=", child, low), Comparison("<=", child, high))
        if isinstance(node, ast.InList):
            child = self._expr(node.child, scope)
            values = []
            for v in node.values:
                if not isinstance(v, (ast.NumberLit, ast.StringLit, ast.BoolLit)):
                    raise SQLError("IN list values must be literals")
                values.append(v.value)
            inner = EngineInList(child, values)
            return Not(inner) if node.negated else inner
        if isinstance(node, ast.FuncCall):
            if node.name in self.udfs:
                udf = self.udfs[node.name]
                args = [self._expr(a, scope) for a in node.args]
                return Func(node.name, udf.fn, args, udf.out_type, udf.vectorized)
            if node.name in AGG_FUNCTIONS:
                raise SQLError(
                    f"aggregate {node.name.upper()} is only allowed in SELECT "
                    "items, HAVING, or subqueries"
                )
            raise SQLError(f"unknown function {node.name!r}")
        if isinstance(node, (ast.ScalarSubquery, ast.InSubquery)):
            raise SQLError(
                "subqueries are only supported as top-level WHERE conjuncts"
            )
        raise SQLError(f"cannot lower expression {node!r}")


def _conjuncts(expr: ast.SqlExpr | None) -> list[ast.SqlExpr]:
    if expr is None:
        return []
    if isinstance(expr, ast.BoolOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _conjoin_ast(parts: list[ast.SqlExpr]) -> ast.SqlExpr | None:
    if not parts:
        return None
    out = parts[0]
    for p in parts[1:]:
        out = ast.BoolOp("AND", out, p)
    return out


def _contains_subquery(expr: ast.SqlExpr) -> bool:
    if isinstance(expr, (ast.ScalarSubquery, ast.InSubquery)):
        return True
    for attr in ("left", "right", "child", "low", "high"):
        if hasattr(expr, attr) and _contains_subquery(getattr(expr, attr)):
            return True
    if isinstance(expr, ast.FuncCall):
        return any(_contains_subquery(a) for a in expr.args)
    return False


def plan_sql(
    text: str,
    schemas: dict[str, Schema],
    udfs: dict[str, UDF] | None = None,
) -> PlanNode:
    """Parse and plan one SQL statement."""
    return SQLPlanner(schemas, udfs).plan_sql(text)
