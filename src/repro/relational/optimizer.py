"""Scan pruning: the one plan rewrite, applied by the online compiler.

A base-table scan declares the columns it reads (``Scan.schema``). The SQL
planner and the hand-built workload plans declare whole tables; the online
engine then gathers, filters and joins every column of every mini-batch
row, although a query reads a handful. :func:`prune_scans` narrows each
``Scan`` to the columns some ancestor actually reads, so the partitioner
gathers, ``ScanOp`` emits and static join sides hold only those — a
zero-copy :meth:`~repro.relational.relation.Relation.project`, no operator
added to the plan. Nothing else is rewritten and node ids are kept, so
operator labels, lineage-block ids and uncertainty tags are unaffected,
and pruning a pruned plan returns it unchanged.
"""

from __future__ import annotations

import copy

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
from repro.relational.schema import Schema

CatalogSchemas = dict[str, Schema]


def prune_scans(plan: PlanNode, schemas: CatalogSchemas) -> PlanNode:
    """``plan`` with every ``Scan`` narrowed to the columns the plan reads."""
    needed: dict[int, set[str]] = {}
    _collect(plan, set(plan.output_schema(schemas).names), schemas, needed)
    return _narrowed(plan, needed, {})


def _collect(
    node: PlanNode, want: set[str], schemas: CatalogSchemas, needed: dict[int, set[str]]
) -> None:
    """Top-down: union into ``needed[node_id]`` the output columns of
    ``node`` that its ancestors read. A subplan shared by two parents is
    revisited until its set stops growing."""
    have = needed.get(node.node_id)
    if have is not None and want <= have:
        return
    have = needed.setdefault(node.node_id, set())
    have |= want
    if isinstance(node, Select):
        _collect(node.child, have | node.predicate.attrs(), schemas, needed)
    elif isinstance(node, Project):
        attrs = set().union(*(expr.attrs() for _, expr in node.outputs))
        _collect(node.child, attrs, schemas, needed)
    elif isinstance(node, Rename):
        # Every renamed column must survive, read or not: the rename
        # itself names it.
        inverse = {new: old for old, new in node.mapping.items()}
        _collect(
            node.child, {inverse.get(c, c) for c in have} | set(node.mapping), schemas, needed
        )
    elif isinstance(node, Join):
        left_cols = set(node.left.output_schema(schemas).names)
        right_cols = set(node.right.output_schema(schemas).names)
        _collect(node.left, (have & left_cols) | set(node.left_keys), schemas, needed)
        _collect(node.right, (have & right_cols) | set(node.right_keys), schemas, needed)
    elif isinstance(node, Union):
        # Union children must keep identical schemas; pass everything.
        full = set(node.output_schema(schemas).names)
        _collect(node.left, full, schemas, needed)
        _collect(node.right, full, schemas, needed)
    elif isinstance(node, Aggregate):
        attrs = set(node.group_by).union(*(spec.attrs() for spec in node.aggs))
        _collect(node.child, attrs, schemas, needed)
    elif isinstance(node, Distinct):
        _collect(node.child, set(node.columns), schemas, needed)
    elif not isinstance(node, Scan):
        raise TypeError(f"unknown node {type(node).__name__}")  # pragma: no cover


def _narrowed(
    node: PlanNode, needed: dict[int, set[str]], done: dict[int, PlanNode]
) -> PlanNode:
    """Bottom-up: shallow copies (same node ids) along every path to a
    narrowed scan; untouched subtrees, and shared ones, stay shared."""
    out = done.get(node.node_id)
    if out is not None:
        return out
    out = node
    if isinstance(node, Scan):
        # A scan nobody reads a column of (COUNT(*)) keeps one, for its rows.
        names = [c for c in node.schema.names if c in needed[node.node_id]]
        names = names or node.schema.names[:1]
        if len(names) < len(node.schema):
            out = copy.copy(node)
            out.schema = node.schema.project(names)
    else:
        for attr in ("child", "left", "right"):
            kid = getattr(node, attr, None)
            if kid is not None and (new := _narrowed(kid, needed, done)) is not kid:
                if out is node:
                    out = copy.copy(node)
                setattr(out, attr, new)
    done[node.node_id] = out
    return out
