"""The online query rewriter (Section 7, module 1).

Compiles a logical plan into an ordered list of executable *units*:

* static subplans (no streamed table below them) are evaluated once, at
  compile time, with the batch evaluator — these are the dimension sides
  of joins;
* each AGGREGATE over stream-derived input becomes a *stream pipeline*
  unit: a chain of online operators ending in the aggregate that publishes
  the lineage block's output;
* everything computed from block outputs (HAVING views, scalar
  comparisons, aggregates of aggregates, IN-membership sides) becomes a
  *small unit* interpreted per bootstrap trial;
* joins between the stream and uncertain small sides compile to
  :class:`~repro.core.operators.UncertainJoinOp`, with the side published
  as a joinable view under the join node's id;
* a join whose side only filters stream rows by key, where that key is
  part of the group key of the aggregate above it (by column provenance,
  :mod:`repro.core.provenance`), compiles to no operator at all: the
  aggregate folds every row once and gates each group's existence by
  the side's current membership of its key (:class:`GroupGate`). Every
  row of a group shares that membership, so no row waits in an ND store.

Unit order is the block-topological order: producers always run before
consumers within a batch, so lineage gids resolve to this batch's
values (the "aggregate runs first" ordering of Section 6.2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.blocks import RuntimeContext
from repro.core.operators import (
    AggregateOp,
    FilterOp,
    GroupGate,
    ProjectOp,
    RenameOp,
    RowSinkOp,
    ScanOp,
    SpineOp,
    StaticEmitOp,
    StaticJoinOp,
    UncertainFilterOp,
    UncertainJoinOp,
    UnionOp,
    iter_ops,
)
from repro.core.provenance import plan_provenance
from repro.core.smallplan import (
    SmallAggregate,
    SmallBlockLeaf,
    SmallDistinct,
    SmallJoin,
    SmallNode,
    SmallPlanUnit,
    SmallProject,
    SmallRename,
    SmallSelect,
    SmallStaticLeaf,
    UCol,
    iter_small_nodes,
)
from repro.core.uncertainty import NodeTags, analyze
from repro.errors import UnsupportedQueryError
from repro.relational.aggregates import count
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
from repro.relational.evaluator import evaluate
from repro.relational.expressions import Comparison, Expression, conjoin, conjuncts
from repro.relational.optimizer import prune_scans
from repro.relational.relation import Relation
from repro.relational.schema import Schema


class ExecutionUnit:
    """One step of a batch iteration.

    Units declare the lineage-block ids they publish (``produces``) and
    read (``consumes``); the compiler emits them in an order that runs
    every producer before its consumers.
    """

    label: str = "unit"
    #: Block ids this unit publishes into ``ctx.blocks`` each batch.
    produces: frozenset[int] = frozenset()
    #: Block ids this unit reads from ``ctx.blocks`` each batch.
    consumes: frozenset[int] = frozenset()

    def run(self, ctx: RuntimeContext) -> None:
        # Matches the compiler's other rejection paths: reaching an
        # abstract unit at runtime means the plan compiled to something
        # the engine cannot actually execute.
        raise UnsupportedQueryError(
            f"execution unit {self.label!r} has no runnable implementation"
        )

    def reset(self) -> None:
        pass


class StreamPipelineUnit(ExecutionUnit):
    """Drives one stream pipeline (an online operator chain) per batch."""

    def __init__(self, root_op: SpineOp):
        self.root_op = root_op
        self.label = f"pipeline:{root_op.label}"
        produces = set()
        consumes = set()
        for op in iter_ops(root_op):
            if isinstance(op, AggregateOp):
                produces.add(op.block_id)
                consumes.update(gate.side_id for gate in op.gates)
            elif isinstance(op, UncertainJoinOp):
                consumes.add(op.side_id)
        self.produces = frozenset(produces)
        self.consumes = frozenset(consumes)

    def run(self, ctx: RuntimeContext) -> None:
        self.root_op.run(ctx)
        self.root_op.record_state(ctx)

    def reset(self) -> None:
        self.root_op.reset()


class SmallSegmentUnit(ExecutionUnit):
    """Evaluates a small segment and publishes its view."""

    def __init__(self, unit: SmallPlanUnit):
        self.unit = unit
        produces = set()
        consumes = set()
        for node in iter_small_nodes(unit.root):
            if isinstance(node, SmallBlockLeaf):
                consumes.add(node.block_id)
            elif isinstance(node, SmallAggregate):
                produces.add(node.block_id)
        if unit.publish_id is not None:
            produces.add(unit.publish_id)
            self.label = f"small:{unit.publish_id}"
        else:
            self.label = "small:result"
        self.produces = frozenset(produces)
        self.consumes = frozenset(consumes)

    def run(self, ctx: RuntimeContext) -> None:
        self.unit.run(ctx)


@dataclass
class CompiledQuery:
    """An online-executable query."""

    units: list[ExecutionUnit]
    #: Where the result comes from: a small unit or a row sink.
    result_small: SmallPlanUnit | None
    result_sink: RowSinkOp | None
    result_schema: Schema
    streamed_table: str
    #: Columns of the streamed table some scan reads, in table order: all
    #: a mini-batch needs to carry.
    stream_columns: list[str]

    def current_rows(self, ctx: RuntimeContext) -> list[dict[str, object]]:
        """This batch's result rows as ``column -> value`` dicts."""
        if self.result_small is not None:
            return self.result_small.result_rows(ctx)
        assert self.result_sink is not None
        rel = self.result_sink.result(ctx)
        # Point-excluded rows (multiplicity 0) dropped, as in result_rows.
        keep = np.flatnonzero(rel.mult)
        rows = [rel.row(i) for i in keep]
        # Uncertain cells travel as gids: hand out the values they index
        # now (None for a group its block did not publish this batch).
        for name in self.result_sink.uncertain_cols:
            lin, gids = rel.lineage.get(name), rel.columns[name][keep]
            output = None if lin is None else ctx.blocks.get(lin.block_id)
            absent = np.ones(len(gids), bool) if output is None else output.absent(gids)
            values = [None] * len(gids)
            if not absent.all():
                at = np.flatnonzero(~absent)
                cells = UCol(output.ucol(lin.column), gids[at]).values()
                for i, value in zip(at.tolist(), cells):
                    values[i] = value
            for row, value in zip(rows, values):
                row[name] = value
        return rows

    def reset(self) -> None:
        """Return every operator to its just-compiled state: the rewind
        point of failure recovery (the controller replays from here)."""
        for unit in self.units:
            unit.reset()


# Internal compile-time value: exactly one of the three is set.
@dataclass
class _Ref:
    stream: SpineOp | None = None
    small: SmallNode | None = None
    static: Relation | None = None

    @property
    def kind(self) -> str:
        if self.stream is not None:
            return "stream"
        if self.small is not None:
            return "small"
        return "static"


class OnlineCompiler:
    """Compiles one logical plan for online execution."""

    def __init__(self, plan: PlanNode, catalog: Catalog, streamed_table: str):
        self.catalog = catalog
        self.streamed_table = streamed_table
        self.tags: dict[int, NodeTags] = analyze(plan, {streamed_table})
        self.schemas = catalog.schemas()
        # Scans narrowed to the columns the plan reads; node ids (the keys
        # of ``tags``) are kept.
        self.plan = prune_scans(plan, self.schemas)
        #: join node id -> (id of the aggregate gating its membership,
        #: the gate): the joins that compile to no operator.
        self._gates = _group_gates(self.plan, streamed_table, self.schemas)
        self.units: list[ExecutionUnit] = []
        #: node_id -> compiled ref, for plan nodes referenced more than
        #: once (a subquery bound to a variable and reused, e.g. the
        #: agg-of-agg pattern). Without this, a shared AGGREGATE would
        #: compile into two pipeline units racing to publish the same
        #: lineage block. Stream refs are never memoized: an operator
        #: chain is single-consumer, so each parent gets its own copy.
        self._memo: dict[int, _Ref] = {}

    # -- public API -------------------------------------------------------------------

    def compile(self) -> CompiledQuery:
        ref = self._compile(self.plan)
        result_schema = self.plan.output_schema(self.schemas)
        read = {
            name
            for node in self.plan.walk()
            if isinstance(node, Scan) and node.table == self.streamed_table
            for name in node.schema.names
        }
        stream_columns = [
            c for c in self.schemas[self.streamed_table].names if c in read
        ]
        if ref.kind == "stream":
            sink = RowSinkOp(ref.stream)
            self.units.append(StreamPipelineUnit(sink))
            return CompiledQuery(
                self.units, None, sink, result_schema, self.streamed_table,
                stream_columns,
            )
        if ref.kind == "small":
            unit = SmallPlanUnit(ref.small)
            self.units.append(SmallSegmentUnit(unit))
            return CompiledQuery(
                self.units, unit, None, result_schema, self.streamed_table,
                stream_columns,
            )
        # Fully static query: expose the precomputed relation through a
        # trivial small unit so callers get a uniform interface.
        static_unit = SmallPlanUnit(SmallStaticLeaf(ref.static))
        self.units.append(SmallSegmentUnit(static_unit))
        return CompiledQuery(
            self.units, static_unit, None, result_schema, self.streamed_table,
            stream_columns,
        )

    # -- recursion ---------------------------------------------------------------------

    def _compile(self, node: PlanNode) -> _Ref:
        memoized = self._memo.get(node.node_id)
        if memoized is not None:
            return memoized
        handler = {
            Scan: self._compile_scan,
            Select: self._compile_select,
            Project: self._compile_project,
            Rename: self._compile_rename,
            Distinct: self._compile_distinct,
            Union: self._compile_union,
            Join: self._compile_join,
            Aggregate: self._compile_aggregate,
        }.get(type(node))
        if handler is None:
            raise UnsupportedQueryError(
                f"cannot compile node {type(node).__name__} for online execution",
                node=node,
            )
        ref = handler(node)
        if ref.kind != "stream":
            self._memo[node.node_id] = ref
        return ref

    def _schema(self, node: PlanNode) -> Schema:
        return node.output_schema(self.schemas)

    def _is_static(self, node: PlanNode) -> bool:
        return self.streamed_table not in node.base_tables()

    def _compile_scan(self, node: Scan) -> _Ref:
        if node.table == self.streamed_table:
            return _Ref(stream=ScanOp(node.table, node.schema))
        return _Ref(static=self.catalog.get(node.table).project(node.schema.names))

    def _compile_select(self, node: Select) -> _Ref:
        if self._is_static(node):
            return _Ref(static=evaluate(node, self.catalog))
        child = self._compile(node.child)
        parts = conjuncts(node.predicate)
        uncertain_cols = self.tags[node.child.node_id].uncertain_cols
        det: list[Expression] = []
        uncertain: list[Comparison] = []
        for part in parts:
            if part.attrs() & uncertain_cols:
                assert isinstance(part, Comparison)  # analyze refused the rest
                uncertain.append(part)
            else:
                det.append(part)
        if child.kind == "small":
            return _Ref(small=SmallSelect(child.small, parts))
        if not uncertain:
            return _Ref(stream=FilterOp(child.stream, conjoin(det), node.node_id))
        return _Ref(
            stream=UncertainFilterOp(child.stream, det, uncertain, node.node_id)
        )

    def _compile_project(self, node: Project) -> _Ref:
        if self._is_static(node):
            return _Ref(static=evaluate(node, self.catalog))
        child = self._compile(node.child)
        if child.kind == "small":
            return _Ref(small=SmallProject(child.small, node.outputs))
        return _Ref(stream=ProjectOp(child.stream, node, self._schema(node)))

    def _compile_rename(self, node: Rename) -> _Ref:
        if self._is_static(node):
            return _Ref(static=evaluate(node, self.catalog))
        child = self._compile(node.child)
        if child.kind == "small":
            return _Ref(small=SmallRename(child.small, node.mapping))
        return _Ref(stream=RenameOp(child.stream, node.mapping, self._schema(node)))

    def _compile_distinct(self, node: Distinct) -> _Ref:
        if self._is_static(node):
            return _Ref(static=evaluate(node, self.catalog))
        child = self._compile(node.child)
        if child.kind == "small":
            return _Ref(small=SmallDistinct(child.small, node.columns))
        # DISTINCT over the stream: lower to a counting aggregate block
        # (the paper expresses duplicate elimination via AGGREGATE), then
        # strip the count in a small projection.
        lowered = Aggregate(node.child, node.columns, [count("__dcount")])
        lowered.node_id = node.node_id  # keep state keyed by the original node
        ref = self._compile_aggregate(lowered, child=child)
        return _Ref(
            small=SmallProject(
                ref.small, [(c, _col(c)) for c in node.columns]
            )
        )

    def _compile_union(self, node: Union) -> _Ref:
        if self._is_static(node):
            return _Ref(static=evaluate(node, self.catalog))
        left = self._compile(node.left)
        right = self._compile(node.right)
        # analyze refused aggregate-derived inputs: each side is a stream
        # or static.
        if left.stream is not None and right.stream is not None:
            return _Ref(stream=UnionOp(left.stream, right.stream))
        stream_side = left.stream or right.stream
        static_side = left.static if left.static is not None else right.static
        return _Ref(stream=UnionOp(stream_side, StaticEmitOp(static_side)))

    def _compile_join(self, node: Join) -> _Ref:
        if self._is_static(node):
            return _Ref(static=evaluate(node, self.catalog))
        left = self._compile(node.left)
        right = self._compile(node.right)
        schema = self._schema(node)

        if left.kind == "stream" or right.kind == "stream":
            stream_is_left = left.kind == "stream"
            stream_ref = left if stream_is_left else right
            side_ref = right if stream_is_left else left
            stream_keys = node.left_keys if stream_is_left else node.right_keys
            side_keys = node.right_keys if stream_is_left else node.left_keys
            side_node = node.right if stream_is_left else node.left
            if side_ref.kind == "static":
                return _Ref(
                    stream=StaticJoinOp(
                        stream_ref.stream,
                        side_ref.static,
                        node.keys,
                        schema,
                        stream_is_left,
                        node.node_id,
                    )
                )
            # Uncertain small side: publish it as a view keyed by the join
            # key, then attach lazily on the stream side.
            side_schema = side_node.output_schema(self.schemas)
            side_tags = self.tags[side_node.node_id]
            attach_names = [
                c for c in side_schema.names if c not in side_keys
            ]
            # Dropped key columns differ by orientation: the output always
            # drops the RIGHT side's keys.
            if stream_is_left:
                attach_cols = [
                    (c, c in side_tags.uncertain_cols) for c in attach_names
                ]
            else:
                attach_cols = [
                    (c, c in side_tags.uncertain_cols)
                    for c in side_schema.names
                ]
            unit = SmallPlanUnit(
                side_ref.small,
                publish_id=node.node_id,
                key_cols=list(side_keys),
                value_cols=[c for c, _ in attach_cols],
            )
            self.units.append(SmallSegmentUnit(unit))
            if node.node_id in self._gates:
                return stream_ref  # the aggregate above gates by group
            return _Ref(
                stream=UncertainJoinOp(
                    stream_ref.stream,
                    node.node_id,
                    list(stream_keys),
                    attach_cols,
                    schema,
                    node.node_id,
                )
            )

        # No stream side: a small-small or small-static join.
        left_small = left.small if left.small is not None else SmallStaticLeaf(left.static)
        right_small = (
            right.small if right.small is not None else SmallStaticLeaf(right.static)
        )
        return _Ref(small=SmallJoin(left_small, right_small, node.keys))

    def _compile_aggregate(self, node: Aggregate, child: _Ref | None = None) -> _Ref:
        if self._is_static(node):
            return _Ref(static=evaluate(node, self.catalog))
        if child is None:
            child = self._compile(node.child)
        if child.kind == "small":
            return _Ref(
                small=SmallAggregate(
                    child.small, node.group_by, node.aggs, node.node_id
                )
            )
        child_tags = self.tags[node.child.node_id]
        op = AggregateOp(
            child.stream,
            node.group_by,
            node.aggs,
            self._schema(node),
            block_id=node.node_id,
            sample_weighted=child_tags.sample_weighted,
            gates=[
                gate for agg_id, gate in self._gates.values() if agg_id == node.node_id
            ],
        )
        self.units.append(StreamPipelineUnit(op))
        return _Ref(small=SmallBlockLeaf(node.node_id))


def _group_gates(
    plan: PlanNode, streamed_table: str, schemas
) -> dict[int, tuple[int, GroupGate]]:
    """The joins an aggregate above them gates by group: join node id ->
    (aggregate node id, gate).

    A join qualifies when it is the stream (left) side's lookup into a
    small side that attaches no column, so the side only decides each
    row's membership by key; when every stream key column copies a fact
    column that some group-key column of the aggregate also copies, so
    all rows of one group share one side key; and when the path between
    them only filters, projects, renames or joins (each plan node used
    once), so the aggregate sees the join's rows.
    """
    prov = plan_provenance(plan, streamed_table)
    uses = Counter(node.node_id for node in plan.walk())
    gates: dict[int, tuple[int, GroupGate]] = {}
    for node in plan.walk():
        if not isinstance(node, (Aggregate, Distinct)):
            continue
        child = prov[node.child.node_id]
        if child.kind != "stream":
            continue
        keys = node.group_by if isinstance(node, Aggregate) else node.columns
        # fact column -> the first group-key column copying it
        by_fact = {
            fact: key
            for key in reversed(keys)
            if (fact := child.columns.get(key)) is not None
        }
        below = node.child
        while isinstance(below, (Select, Project, Rename, Join)):
            if not isinstance(below, Join):
                below = below.child
                continue
            left, right = prov[below.left.node_id], prov[below.right.node_id]
            if left.kind != "stream":
                if right.kind != "stream":
                    break
                below = below.right
                continue
            columns = [by_fact.get(left.columns.get(k)) for k in below.left_keys]
            if (
                right.kind == "small"
                and below.keys
                and None not in columns
                and uses[below.node_id] == 1
                and below.output_schema(schemas).names
                == below.left.output_schema(schemas).names
            ):
                gates[below.node_id] = (
                    node.node_id, GroupGate(below.node_id, tuple(columns))
                )
            below = below.left
    return gates


def _col(name: str):
    from repro.relational.expressions import Col

    return Col(name)


def compile_online(
    plan: PlanNode, catalog: Catalog, streamed_table: str
) -> CompiledQuery:
    """Compile ``plan`` for online execution over ``streamed_table``."""
    return OnlineCompiler(plan, catalog, streamed_table).compile()
