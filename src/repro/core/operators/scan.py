"""Leaf operators: the streamed delta and one-shot static emission."""

from __future__ import annotations

from repro.core.blocks import RuntimeContext
from repro.core.operators.base import DeltaBatch, SpineOp, StateRule, TagRule
from repro.relational.relation import Relation
from repro.relational.schema import Schema


class ScanOp(SpineOp):
    """Leaf of a stream pipeline: this batch's delta of the streamed table."""

    #: Stateless leaf: emits the installed streamed delta as certain rows
    #: (tuple-uncertainty of the stream is carried by the sampling
    #: multiplicities, not by an ND set here).
    tag_rule = TagRule(consumes_uncertain="forbidden")
    state_rule = StateRule()

    def __init__(self, table: str, schema: Schema):
        super().__init__(f"scan:{table}", schema, set())
        self.table = table

    def process(self, delta: None, ctx: RuntimeContext) -> DeltaBatch:
        rows = ctx.delta
        # The delta holds the columns of every scan of the streamed table;
        # this one emits (zero-copy) the columns its own consumers read.
        if len(rows.schema) != len(self.schema):
            rows = rows.project(self.schema.names)
        return DeltaBatch(rows, self.empty(ctx))


class StaticEmitOp(SpineOp):
    """Emits a precomputed static relation once, at the first batch.

    Used for the static branch of a UNION with a stream: the static rows
    are all certain and appear exactly once.
    """

    #: One bit of state: whether the one-shot emission already happened.
    tag_rule = TagRule(consumes_uncertain="forbidden")
    state_rule = StateRule(frozenset({"emitted"}))

    def __init__(self, relation: Relation, label: str = "static"):
        super().__init__(label, relation.schema, set())
        self.relation = relation
        self._init_state()

    def _init_state(self) -> None:
        self.state.put("emitted", False)

    def process(self, delta: None, ctx: RuntimeContext) -> DeltaBatch:
        if self.state.get("emitted"):
            return DeltaBatch(self.empty(ctx), self.empty(ctx))
        self.state.put("emitted", True)
        return DeltaBatch(self.relation, self.empty(ctx))
