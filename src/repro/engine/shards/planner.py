"""Shardability analysis: can a plan run group-disjoint across shards?

The shard layer's bit-identity contract (vs the serial reference) rests
on **group-key sharding**: pick a *shard key* — a set of streamed-table
columns — such that every group any aggregate in the plan maintains is
wholly owned by one shard. Then each worker sees exactly the rows (in
the original stream order, with the original bootstrap trial rows) that
contribute to its groups; every per-group accumulation performs the same
float operations in the same order as the serial engine, and the sink
merge is a plain disjoint union — no cross-shard arithmetic, hence no
float-reassociation drift.

The analysis reads the plan's column *provenance*
(:func:`repro.core.provenance.plan_provenance`): which output columns
are an unmodified copy of a streamed fact column. Each
aggregate over stream-derived input constrains the shard key to the
fact-column subset of its group-by; each join between stream-derived
inputs constrains it to the join-key columns both sides derive from the
same fact column (so a stream row and the side group it looks up always
hash to the same shard). The shard key is the intersection of all
constraints. Plans with no such key — scalar aggregates, group keys
minted by joins/projections, row-stream results — are reported
non-shardable and the sharded engine falls back to single-process
execution (where bit-identity holds trivially).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.provenance import Provenance, plan_provenance
from repro.errors import UnsupportedQueryError
from repro.relational.algebra import Aggregate, Distinct, Join, PlanNode, Union


@dataclass(frozen=True)
class ShardPlan:
    """The analysis verdict for one plan."""

    shardable: bool
    #: Streamed-table columns rows are hash-partitioned on (sorted).
    shard_key: tuple[str, ...] = ()
    #: Why the plan cannot shard (None when shardable).
    reason: str | None = None
    #: Result columns carrying shard-key provenance — the merge sink's
    #: disjointness check keys on these (empty = check skipped).
    result_key_cols: tuple[str, ...] = ()


def analyze_shardability(plan: PlanNode, streamed_table: str) -> ShardPlan:
    """Decide whether ``plan`` admits group-key sharding over the stream."""
    try:
        nodes = plan_provenance(plan, streamed_table)
    except UnsupportedQueryError as exc:
        return ShardPlan(False, reason=str(exc))
    constraints: list[frozenset[str]] = []
    for prov in nodes.values():
        reason = _constrain(prov, nodes, constraints)
        if reason is not None:
            return ShardPlan(False, reason=reason)
    root = nodes[plan.node_id]
    if root.kind == "static":
        return ShardPlan(
            False, reason="result does not depend on the streamed table"
        )
    if root.kind == "stream":
        return ShardPlan(
            False,
            reason="row-stream result (no aggregate boundary to merge at)",
        )
    if not constraints:
        return ShardPlan(False, reason="no aggregate over the streamed table")
    key = frozenset.intersection(*constraints)
    if not key:
        return ShardPlan(
            False,
            reason="aggregates/joins share no common fact-column group key",
        )
    result_key_cols = tuple(
        sorted(name for name, fact in root.columns.items() if fact in key)
    )
    return ShardPlan(
        True, shard_key=tuple(sorted(key)), result_key_cols=result_key_cols
    )


def _constrain(
    prov: Provenance,
    nodes: dict[int, Provenance],
    constraints: list[frozenset[str]],
) -> str | None:
    """Append the shard-key constraint ``prov``'s node imposes, or return
    why no shard key can satisfy it."""
    node = prov.node
    if prov.kind == "static":
        return None

    if isinstance(node, (Aggregate, Distinct)):
        # A group must live on one shard: the shard key sits inside the
        # fact columns the group key copies.
        facts = frozenset(f for f in prov.columns.values() if f is not None)
        if not facts:
            if isinstance(node, Distinct):
                return f"distinct over no streamed fact column: {node.columns}"
            if not node.group_by:
                return "scalar aggregate over the stream"
            return f"aggregate groups by no streamed fact column: {node.group_by}"
        constraints.append(facts)
        return None

    if isinstance(node, Union):
        kinds = {nodes[node.left.node_id].kind, nodes[node.right.node_id].kind}
        if "static" in kinds:
            # Static rows bypass stream partitioning entirely; no shard
            # owns them exclusively.
            return "union of streamed and static inputs"
        if len(kinds) > 1:
            return "union of stream and aggregate subplans"
        return None

    if isinstance(node, Join):
        left, right = nodes[node.left.node_id], nodes[node.right.node_id]
        kinds = {left.kind, right.kind}
        if kinds == {"stream"}:
            return "join of two raw streams"
        if "static" in kinds:
            # Broadcast join against a replicated static side: row-local
            # on the streamed side, no ownership constraint.
            return None
        # stream x small or small x small: the side groups a stream row
        # (or a group row) looks up must live on the row's own shard, so
        # the shard key must sit inside the join keys both sides derive
        # from the same fact column.
        matched = frozenset(
            lf
            for lk, rk in node.keys
            if (lf := left.columns.get(lk)) is not None
            and right.columns.get(rk) == lf
        )
        if not matched:
            return (
                "join between stream/aggregate subplans has no shared "
                "fact-column key" + (" (cross join)" if not node.keys else "")
            )
        constraints.append(matched)
    return None
