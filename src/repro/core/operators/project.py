"""PROJECT and RENAME over a stream (stateless, pure delta rules)."""

from __future__ import annotations

import numpy as np

from repro.core.blocks import RuntimeContext
from repro.core.operators.base import DeltaBatch, SpineOp, StateRule, TagRule
from repro.relational.algebra import Project
from repro.relational.expressions import Col
from repro.relational.relation import Relation
from repro.relational.schema import Schema


class ProjectOp(SpineOp):
    """PROJECT over a stream. Uncertain columns (gids) may only pass
    through unchanged (computation over uncertain attributes is deferred
    to the use sites — the lazy-evaluation principle)."""

    #: Stateless pure delta rule; uncertain attributes may pass through
    #: by name but must not be computed over (refused at compile time).
    tag_rule = TagRule(consumes_uncertain="allowed")
    state_rule = StateRule()

    def __init__(self, child: SpineOp, node: Project, schema: Schema):
        uncertain_out = {
            name for name, expr in node.outputs if expr.attrs() & child.uncertain_cols
        }
        super().__init__(f"project:{node.node_id}", schema, uncertain_out, (child,))
        self.child = child
        self.node = node

    def process(self, delta: DeltaBatch, ctx: RuntimeContext) -> DeltaBatch:
        return DeltaBatch(self._project(delta.certain), self._project(delta.volatile))

    def _project(self, rel: Relation) -> Relation:
        cols: dict[str, np.ndarray] = {}
        encodings: dict[str, object] = {}
        lineage: dict[str, object] = {}
        for (name, expr), column in zip(self.node.outputs, self.schema):
            values = expr.evaluate(rel)
            if name in self.uncertain_cols:
                cols[name] = values
            else:
                cols[name] = np.asarray(values, dtype=column.ctype.dtype)
            if isinstance(expr, Col):
                # A passed-through column keeps its sidecars, renamed.
                if expr.name in rel.encodings:
                    encodings[name] = rel.encodings[expr.name]
                if expr.name in rel.lineage:
                    lineage[name] = rel.lineage[expr.name]
        return Relation._from_parts(
            self.schema, cols, rel.mult, rel._trials,
            encodings=encodings or None, lineage=lineage or None,
        )


class RenameOp(SpineOp):
    #: Stateless pure delta rule; tags flow through under the renaming.
    tag_rule = TagRule(consumes_uncertain="allowed")
    state_rule = StateRule()

    def __init__(self, child: SpineOp, mapping: dict[str, str], schema: Schema):
        renamed = {mapping.get(c, c) for c in child.uncertain_cols}
        super().__init__("rename", schema, renamed, (child,))
        self.child = child
        self.mapping = mapping

    def process(self, delta: DeltaBatch, ctx: RuntimeContext) -> DeltaBatch:
        return DeltaBatch(
            delta.certain.rename(self.mapping), delta.volatile.rename(self.mapping)
        )
