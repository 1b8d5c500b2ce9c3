"""Logical query plans for the positive relational algebra.

The plan language mirrors the paper's Section 3.3: any composition of
SELECT, PROJECT, JOIN (equi/natural), UNION, and AGGREGATE over base-table
scans. Nested subqueries are expressed structurally, exactly as in the
paper's Figure 2(a): a scalar aggregate subquery becomes an AGGREGATE
subplan cross-joined (or, when correlated, key-joined) with the outer
block — the SQL planner performs that lowering automatically.

Plans are immutable trees; nodes offer fluent builders so queries read
top-down::

    plan = (
        scan("sessions", schema)
        .join(scan("sessions", schema).aggregate([], [avg("buffer_time", "ab")]), keys=[])
        .select(col("buffer_time") > col("ab"))
        .aggregate([], [avg("play_time", "apt")])
    )
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Sequence

from repro.errors import PlanError
from repro.relational.aggregates import AggSpec
from repro.relational.expressions import Expression, lift
from repro.relational.schema import Column, Schema

#: Catalog schemas: table name → schema, used for schema inference.
CatalogSchemas = dict[str, Schema]

_node_ids = itertools.count()


class PlanNode:
    """Base class of logical plan nodes."""

    def __init__(self) -> None:
        #: Stable id used by the online rewriter to key operator state.
        self.node_id = next(_node_ids)

    def children(self) -> Sequence["PlanNode"]:
        return ()

    def output_schema(self, catalog: CatalogSchemas) -> Schema:
        raise NotImplementedError

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the plan tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def base_tables(self) -> set[str]:
        return {n.table for n in self.walk() if isinstance(n, Scan)}

    # -- fluent builders -------------------------------------------------------

    def select(self, predicate: Expression) -> "Select":
        return Select(self, predicate)

    def project(self, outputs: Sequence[tuple[str, Expression | str]]) -> "Project":
        return Project(self, outputs)

    def join(
        self, other: "PlanNode", keys: Sequence[tuple[str, str] | str] = ()
    ) -> "Join":
        return Join(self, other, keys)

    def union(self, other: "PlanNode") -> "Union":
        return Union(self, other)

    def rename(self, mapping: dict[str, str]) -> "Rename":
        return Rename(self, mapping)

    def distinct(self, columns: Sequence[str]) -> "Distinct":
        return Distinct(self, columns)

    def aggregate(
        self, group_by: Sequence[str], aggs: Sequence[AggSpec]
    ) -> "Aggregate":
        return Aggregate(self, group_by, aggs)

    def describe(self, indent: int = 0) -> str:
        """Readable multi-line plan rendering (used in docs and debugging)."""
        head = "  " * indent + self._describe_line()
        lines = [head]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def _describe_line(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return f"<{type(self).__name__} #{self.node_id}>"


class Scan(PlanNode):
    """Read a base table from the catalog."""

    def __init__(self, table: str, schema: Schema):
        super().__init__()
        self.table = table
        self.schema = schema

    def output_schema(self, catalog: CatalogSchemas) -> Schema:
        return self.schema

    def _describe_line(self) -> str:
        return f"Scan({self.table})"


def scan(table: str, schema: Schema) -> Scan:
    return Scan(table, schema)


class Select(PlanNode):
    """Filter rows by a boolean predicate (σ)."""

    def __init__(self, child: PlanNode, predicate: Expression):
        super().__init__()
        self.child = child
        self.predicate = lift(predicate)

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def output_schema(self, catalog: CatalogSchemas) -> Schema:
        schema = self.child.output_schema(catalog)
        missing = self.predicate.attrs() - set(schema.names)
        if missing:
            raise PlanError(
                f"select predicate references missing columns {sorted(missing)}"
            )
        return schema

    def _describe_line(self) -> str:
        return f"Select({self.predicate!r})"


class Project(PlanNode):
    """SQL-style projection without duplicate elimination (π)."""

    def __init__(self, child: PlanNode, outputs: Sequence[tuple[str, Expression | str]]):
        super().__init__()
        self.child = child
        self.outputs: list[tuple[str, Expression]] = []
        for name, expr in outputs:
            if isinstance(expr, str):
                from repro.relational.expressions import Col

                expr = Col(expr)
            self.outputs.append((name, lift(expr)))
        if not self.outputs:
            raise PlanError("projection must keep at least one column")

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def output_schema(self, catalog: CatalogSchemas) -> Schema:
        schema = self.child.output_schema(catalog)
        cols = []
        for name, expr in self.outputs:
            missing = expr.attrs() - set(schema.names)
            if missing:
                raise PlanError(
                    f"projection {name!r} references missing columns {sorted(missing)}"
                )
            cols.append(Column(name, expr.output_type(schema)))
        return Schema(cols)

    def _describe_line(self) -> str:
        parts = ", ".join(name for name, _ in self.outputs)
        return f"Project({parts})"


class Join(PlanNode):
    """Equi-join (keys given) or cross join (no keys).

    Key columns of the right input are dropped from the output (their
    values equal the left's), which also makes same-named natural joins
    well-formed. Any other name collision is a planning error — rename
    first.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        keys: Sequence[tuple[str, str] | str] = (),
    ):
        super().__init__()
        self.left = left
        self.right = right
        self.keys: list[tuple[str, str]] = [
            (k, k) if isinstance(k, str) else (k[0], k[1]) for k in keys
        ]

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)

    @property
    def left_keys(self) -> list[str]:
        return [lk for lk, _ in self.keys]

    @property
    def right_keys(self) -> list[str]:
        return [rk for _, rk in self.keys]

    def output_schema(self, catalog: CatalogSchemas) -> Schema:
        ls = self.left.output_schema(catalog)
        rs = self.right.output_schema(catalog)
        for lk, rk in self.keys:
            if lk not in ls:
                raise PlanError(f"left join key {lk!r} not in {ls.names}")
            if rk not in rs:
                raise PlanError(f"right join key {rk!r} not in {rs.names}")
            if ls.type_of(lk) is not rs.type_of(rk):
                raise PlanError(
                    f"join key type mismatch: {lk}:{ls.type_of(lk).value} vs "
                    f"{rk}:{rs.type_of(rk).value}"
                )
        kept_right = [c for c in rs if c.name not in self.right_keys]
        clash = {c.name for c in kept_right} & set(ls.names)
        if clash:
            raise PlanError(
                f"join would duplicate columns {sorted(clash)}; rename one side"
            )
        return Schema(list(ls.columns) + kept_right)

    def _describe_line(self) -> str:
        if not self.keys:
            return "Join(cross)"
        keys = ", ".join(f"{lk}={rk}" for lk, rk in self.keys)
        return f"Join({keys})"


class Union(PlanNode):
    """Bag union without duplicate elimination (∪)."""

    def __init__(self, left: PlanNode, right: PlanNode):
        super().__init__()
        self.left = left
        self.right = right

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)

    def output_schema(self, catalog: CatalogSchemas) -> Schema:
        ls = self.left.output_schema(catalog)
        rs = self.right.output_schema(catalog)
        if ls != rs:
            raise PlanError(f"union schema mismatch: {ls} vs {rs}")
        return ls

    def _describe_line(self) -> str:
        return "Union"


class Aggregate(PlanNode):
    """Group-by aggregation (γ). ``group_by=[]`` yields a single scalar row."""

    def __init__(self, child: PlanNode, group_by: Sequence[str], aggs: Sequence[AggSpec]):
        super().__init__()
        self.child = child
        self.group_by = list(group_by)
        self.aggs = list(aggs)
        if not self.aggs:
            raise PlanError("aggregate must compute at least one function")
        names = self.group_by + [a.name for a in self.aggs]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate output names in aggregate: {names}")

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def output_schema(self, catalog: CatalogSchemas) -> Schema:
        schema = self.child.output_schema(catalog)
        cols = []
        for g in self.group_by:
            cols.append(schema[g])
        for a in self.aggs:
            missing = a.attrs() - set(schema.names)
            if missing:
                raise PlanError(
                    f"aggregate {a.name!r} references missing columns {sorted(missing)}"
                )
            cols.append(Column(a.name, a.func.output_type))
        return Schema(cols)

    def _describe_line(self) -> str:
        aggs = ", ".join(f"{a.name}={a.func.name}" for a in self.aggs)
        if self.group_by:
            return f"Aggregate(by={self.group_by}, {aggs})"
        return f"Aggregate(scalar, {aggs})"


class Rename(PlanNode):
    """Rename columns — a projection specialization kept explicit for joins."""

    def __init__(self, child: PlanNode, mapping: dict[str, str]):
        super().__init__()
        self.child = child
        self.mapping = dict(mapping)

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def output_schema(self, catalog: CatalogSchemas) -> Schema:
        schema = self.child.output_schema(catalog)
        missing = set(self.mapping) - set(schema.names)
        if missing:
            raise PlanError(f"rename of missing columns {sorted(missing)}")
        return schema.rename(self.mapping)

    def _describe_line(self) -> str:
        return f"Rename({self.mapping})"


class Distinct(PlanNode):
    """Duplicate elimination over a set of columns.

    Expressed in the paper via AGGREGATE; kept as an explicit node because
    the SQL planner uses it for IN-subquery semi-joins. The evaluator and
    rewriter lower it to a COUNT aggregate followed by a projection.
    """

    def __init__(self, child: PlanNode, columns: Sequence[str]):
        super().__init__()
        self.child = child
        self.columns = list(columns)
        if not self.columns:
            raise PlanError("distinct requires at least one column")

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def output_schema(self, catalog: CatalogSchemas) -> Schema:
        return self.child.output_schema(catalog).project(self.columns)

    def _describe_line(self) -> str:
        return f"Distinct({self.columns})"


def transform(
    node: PlanNode, fn: Callable[[PlanNode], PlanNode | None]
) -> PlanNode:
    """Bottom-up plan rewriting: rebuild children, then let ``fn`` replace.

    ``fn`` returns a replacement node or ``None`` to keep the (rebuilt)
    node. Used by the HDA viewlet rewrites (Appendix B) and plan
    normalization.
    """
    rebuilt: PlanNode
    if isinstance(node, Scan):
        rebuilt = node
    elif isinstance(node, Select):
        rebuilt = Select(transform(node.child, fn), node.predicate)
    elif isinstance(node, Project):
        rebuilt = Project(transform(node.child, fn), node.outputs)
    elif isinstance(node, Join):
        rebuilt = Join(transform(node.left, fn), transform(node.right, fn), node.keys)
    elif isinstance(node, Union):
        rebuilt = Union(transform(node.left, fn), transform(node.right, fn))
    elif isinstance(node, Aggregate):
        rebuilt = Aggregate(transform(node.child, fn), node.group_by, node.aggs)
    elif isinstance(node, Rename):
        rebuilt = Rename(transform(node.child, fn), node.mapping)
    elif isinstance(node, Distinct):
        rebuilt = Distinct(transform(node.child, fn), node.columns)
    else:  # pragma: no cover - future node types
        raise PlanError(f"unknown plan node {type(node).__name__}")
    replacement = fn(rebuilt)
    return rebuilt if replacement is None else replacement
