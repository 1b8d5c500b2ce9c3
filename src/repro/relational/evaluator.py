"""Reference batch evaluator for logical plans.

This is the "traditional OLAP engine" of the paper's experiments (the
*baseline*): it evaluates a plan bottom-up over full relations with bag
semantics. It is also the correctness oracle for the online engine — at
the final mini-batch, iOLAP must deliver exactly what this evaluator
computes on the whole dataset (Theorem 1). Joins run through the online
engine's own kernel (:func:`repro.kernels.joins.vectorized_join`), so
the check that shares no code with either engine is the SQLite oracle
in ``tests/sqlite_oracle.py``.

The evaluator threads an :class:`EvalStats` accumulator that models the
cost accounting of a distributed engine: rows processed per operator and
bytes "shipped" across shuffle boundaries (joins, aggregations), which
back the paper's Figure 9(b)/(c) comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import PlanError
# A module binding: ``kernels.joins`` imports ``repro.relational`` back.
from repro.kernels import joins
from repro.kernels.holistic import grouped_indices
from repro.relational.aggregates import AggSpec
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
from repro.relational.catalog import Catalog
from repro.relational.groupby import group_ids, weighted_sums
from repro.relational.relation import Relation
from repro.relational.schema import Schema


@dataclass
class EvalStats:
    """Cost counters accumulated during evaluation."""

    rows_processed: int = 0
    bytes_shipped: int = 0
    rows_by_operator: dict[str, int] = field(default_factory=dict)

    def record(self, op_name: str, rows: int) -> None:
        self.rows_processed += rows
        self.rows_by_operator[op_name] = self.rows_by_operator.get(op_name, 0) + rows

    def record_shipped(self, rel: Relation) -> None:
        self.bytes_shipped += rel.estimated_bytes()


def evaluate(
    plan: PlanNode, catalog: Catalog, stats: EvalStats | None = None
) -> Relation:
    """Evaluate ``plan`` over ``catalog``, returning the result relation."""
    stats = stats if stats is not None else EvalStats()
    return _eval(plan, catalog, stats)


def _eval(node: PlanNode, catalog: Catalog, stats: EvalStats) -> Relation:
    if isinstance(node, Scan):
        rel = catalog.get(node.table)
        stats.record("scan", len(rel))
        # A scan reads the columns it declares (see ``prune_scans``).
        if len(node.schema) < len(rel.schema):
            rel = rel.project(node.schema.names)
        return rel
    if isinstance(node, Select):
        child = _eval(node.child, catalog, stats)
        stats.record("select", len(child))
        mask = np.asarray(node.predicate.evaluate(child), dtype=bool)
        return child.filter(mask)
    if isinstance(node, Project):
        child = _eval(node.child, catalog, stats)
        stats.record("project", len(child))
        return project_relation(child, node)
    if isinstance(node, Rename):
        child = _eval(node.child, catalog, stats)
        return child.rename(node.mapping)
    if isinstance(node, Join):
        left = _eval(node.left, catalog, stats)
        right = _eval(node.right, catalog, stats)
        stats.record("join", len(left) + len(right))
        stats.record_shipped(left)
        stats.record_shipped(right)
        return joins.vectorized_join(left, right, node.keys)
    if isinstance(node, Union):
        left = _eval(node.left, catalog, stats)
        right = _eval(node.right, catalog, stats)
        stats.record("union", len(left) + len(right))
        return left.concat(right)
    if isinstance(node, Aggregate):
        child = _eval(node.child, catalog, stats)
        stats.record("aggregate", len(child))
        stats.record_shipped(child)
        return aggregate_relation(child, node.group_by, node.aggs)
    if isinstance(node, Distinct):
        child = _eval(node.child, catalog, stats)
        stats.record("distinct", len(child))
        return distinct_relation(child, node.columns)
    raise PlanError(f"cannot evaluate plan node {type(node).__name__}")


# -- operator kernels (shared with baselines) -----------------------------------


def project_relation(rel: Relation, node: Project) -> Relation:
    schema = node.output_schema({})
    cols = {}
    for (name, expr), column in zip(node.outputs, schema):
        values = expr.evaluate(rel)
        cols[name] = np.asarray(values, dtype=column.ctype.dtype)
    return Relation(schema, cols, rel.mult, rel._trials)


def aggregate_relation(
    rel: Relation, group_by: list[str], aggs: list[AggSpec]
) -> Relation:
    """Weighted group-by aggregation over a relation."""
    keys, gids = group_ids(rel, group_by)
    num_groups = len(keys)
    if len(rel) == 0 and group_by:
        num_groups = 0
        keys = []

    cols: dict[str, np.ndarray] = {}
    out_schema_cols = []
    for gi, name in enumerate(group_by):
        ctype = rel.schema.type_of(name)
        out_schema_cols.append((name, ctype))
        cols[name] = np.array([k[gi] for k in keys], dtype=ctype.dtype)

    weight = np.bincount(gids, weights=rel.mult, minlength=num_groups) if num_groups else np.zeros(0)
    for spec in aggs:
        out_schema_cols.append((spec.name, spec.func.output_type))
        values = spec.arg_values(rel)
        if spec.func.decomposable:
            feats = spec.func.features(values if values is not None else np.zeros(len(rel)))
            sums = weighted_sums(feats, rel.mult, gids, num_groups)
            cols[spec.name] = np.asarray(
                spec.func.finalize(sums, weight), dtype=np.float64
            )
        else:
            results = np.empty(num_groups, dtype=np.float64)
            for g, ix in enumerate(grouped_indices(gids, num_groups)):
                vals = values[ix] if values is not None else np.zeros(len(ix))
                results[g] = spec.func.compute(vals, rel.mult[ix])
            cols[spec.name] = results

    schema = Schema(out_schema_cols)
    return Relation(schema, cols, np.ones(num_groups, dtype=np.float64))


def distinct_relation(rel: Relation, columns: list[str]) -> Relation:
    """Distinct values of ``columns`` among rows with positive multiplicity."""
    live = rel.filter(rel.mult > 0)
    keys, _ = group_ids(live, columns)
    schema = rel.schema.project(columns)
    cols = {
        name: np.array([k[i] for k in keys], dtype=schema.type_of(name).dtype)
        for i, name in enumerate(columns)
    }
    return Relation(schema, cols, np.ones(len(keys), dtype=np.float64))
