"""Column provenance: which output columns copy a streamed fact column.

One post-order walk over a logical plan tags every node with its
dataflow *kind* — the online compiler's three classes: ``static`` (no
streamed input), ``stream`` (a row stream of fact-derived tuples),
``small`` (an aggregate-bounded block output) — and, per output column,
the streamed fact column it is an unmodified copy of (None: computed,
static, or an aggregate's output).

Two columns with the same fact provenance hold the same value in every
row that carries both. The online compiler reads that to gate a join's
membership by the group key of the aggregate above it
(:class:`~repro.core.compiler.OnlineCompiler`); the shard planner reads
it to find a shard key every aggregate's groups stay inside
(:mod:`repro.engine.shards.planner`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnsupportedQueryError
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
from repro.relational.expressions import Col

#: Output column name -> the streamed fact column it copies unmodified,
#: or None. A column missing from the map has no fact provenance either.
Mapping = dict[str, "str | None"]


@dataclass(frozen=True)
class Provenance:
    """One plan node's dataflow kind and column provenance."""

    node: PlanNode
    kind: str
    columns: Mapping

    def facts(self, names: list[str]) -> frozenset[str]:
        """The fact columns ``names`` copy (those with provenance)."""
        return frozenset(f for n in names if (f := self.columns.get(n)) is not None)


def plan_provenance(plan: PlanNode, streamed: str) -> dict[int, Provenance]:
    """Every node's :class:`Provenance`, keyed by node id, in post-order
    (children before parents, left before right).

    Raises :class:`UnsupportedQueryError` for a node type outside the
    relational algebra.
    """
    out: dict[int, Provenance] = {}
    _walk(plan, streamed, out)
    return out


def _walk(node: PlanNode, streamed: str, out: dict[int, Provenance]) -> Provenance:
    known = out.get(node.node_id)
    if known is not None:
        return known  # a subplan referenced twice
    kind, columns = _provenance(node, streamed, out)
    out[node.node_id] = result = Provenance(node, kind, columns)
    return result


def _provenance(
    node: PlanNode, streamed: str, out: dict[int, Provenance]
) -> tuple[str, Mapping]:
    if isinstance(node, Scan):
        if node.table == streamed:
            return "stream", {name: name for name in node.schema.names}
        return "static", {}

    if isinstance(node, Select):
        child = _walk(node.child, streamed, out)
        return child.kind, child.columns

    if isinstance(node, Project):
        child = _walk(node.child, streamed, out)
        return child.kind, {
            name: child.columns.get(expr.name) if isinstance(expr, Col) else None
            for name, expr in node.outputs
        }

    if isinstance(node, Rename):
        child = _walk(node.child, streamed, out)
        return child.kind, {
            node.mapping.get(name, name): fact for name, fact in child.columns.items()
        }

    if isinstance(node, (Aggregate, Distinct)):
        # DISTINCT lowers to a COUNT aggregate over its columns.
        child = _walk(node.child, streamed, out)
        if child.kind == "static":
            return "static", {}
        keys = node.group_by if isinstance(node, Aggregate) else node.columns
        columns = {name: child.columns.get(name) for name in keys}
        if isinstance(node, Aggregate):
            columns.update((spec.name, None) for spec in node.aggs)
        return "small", columns

    if isinstance(node, Union):
        left = _walk(node.left, streamed, out)
        right = _walk(node.right, streamed, out)
        if left.kind == right.kind == "static":
            return "static", {}
        # A column keeps its provenance only if both inputs agree on it.
        return left.kind if left.kind != "static" else right.kind, {
            name: fact if fact is not None and right.columns.get(name) == fact else None
            for name, fact in left.columns.items()
        }

    if isinstance(node, Join):
        left = _walk(node.left, streamed, out)
        right = _walk(node.right, streamed, out)
        kinds = {left.kind, right.kind}
        if kinds == {"static"}:
            return "static", {}
        # Output schema: left columns + right columns minus right keys.
        dropped = set(node.right_keys)
        columns = dict(left.columns)
        columns.update(
            (name, fact) for name, fact in right.columns.items() if name not in dropped
        )
        return ("stream" if "stream" in kinds else "small"), columns

    raise UnsupportedQueryError(
        f"unsupported plan node {type(node).__name__}", node=node
    )
