"""HDA — the higher-order delta comparator (DBToaster-style).

The paper compares iOLAP against "the higher-order delta update algorithm
of DBToaster, without code generation and indexes" (Section 8). This
module reimplements it on our substrate, mirroring that setup:

* the *innermost* aggregate blocks over the streamed table (those whose
  subtree contains no other aggregate) are maintained incrementally with
  the classical Figure-1 delta rules — each batch folds only ΔD into
  their sketches;
* everything above them (the "outer query") is re-evaluated from scratch
  over all data accumulated so far, because the classical rules cannot
  express a delta for predicates over a changed aggregate. This is the
  per-batch cost that grows linearly with processed data — the effect
  Figures 8(a)–(d) quantify;
* optionally, the Appendix-B viewlet rewrites are applied first.

For flat SPJA queries the outer query degenerates to reading the
maintained view, so HDA matches iOLAP's per-batch cost — exactly the
paper's observation that both collapse to classical delta processing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from repro.batching.partitioner import Partitioner
from repro.baselines.viewlet import apply_viewlet_rewrites
from repro.core.sketch import AggBundle
from repro.errors import UnsupportedQueryError
from repro.metrics.stats import BatchMetrics, RunMetrics
from repro.relational.algebra import Aggregate, PlanNode, Scan, transform
from repro.relational.catalog import Catalog
from repro.relational.evaluator import EvalStats, evaluate
from repro.relational.relation import Relation
from repro.relational.schema import Schema

import numpy as np


@dataclass
class HDAPartial:
    """HDA's partial answer after one batch."""

    batch_no: int
    num_batches: int
    relation: Relation
    metrics: BatchMetrics
    is_final: bool


class _MaintainedView:
    """One incrementally maintained innermost aggregate."""

    def __init__(self, node: Aggregate, view_table: str, schema: Schema):
        self.node = node
        self.view_table = view_table
        self.schema = schema
        self.bundle = AggBundle(node.aggs, num_trials=0)

    def fold_delta(self, delta_catalog: Catalog) -> int:
        """Evaluate the block subtree on ΔD only and fold it in."""
        stats = EvalStats()
        delta_rows = evaluate(self.node.child, delta_catalog, stats)
        self.bundle.fold(delta_rows, self.node.group_by)
        return stats.rows_processed

    def materialize(self, scale: float) -> Relation:
        """Current view contents, extrapolated by ``m_i``."""
        g = len(self.bundle)
        cols: dict[str, np.ndarray] = {}
        schema_cols = []
        for gi, name in enumerate(self.node.group_by):
            ctype = self.schema.type_of(name)
            schema_cols.append((name, ctype))
            cols[name] = np.array(
                [k[gi] for k in self.bundle.keys], dtype=ctype.dtype
            )
        for s, spec in enumerate(self.node.aggs):
            schema_cols.append((spec.name, spec.func.output_type))
            values, _ = self.bundle.finalize(s, scale)
            cols[spec.name] = values
        return Relation(Schema(schema_cols), cols, np.ones(g))

    def state_bytes(self) -> int:
        return self.bundle.estimated_bytes()


class HDAExecutor:
    """Runs a query with higher-order delta maintenance, batch by batch."""

    def __init__(
        self,
        catalog: Catalog,
        streamed_table: str,
        seed: int = 0,
        use_viewlet_rewrites: bool = True,
        partition_mode: str = "shuffle",
    ):
        self.catalog = catalog
        self.streamed_table = streamed_table
        self.seed = seed
        self.use_viewlet_rewrites = use_viewlet_rewrites
        self.partitioner = Partitioner(mode=partition_mode, seed=seed)
        self.metrics = RunMetrics()

    # -- compilation --------------------------------------------------------------------

    def _split(self, plan: PlanNode) -> tuple[PlanNode, list[_MaintainedView]]:
        """Replace innermost stream aggregates with view scans; refuses an
        innermost aggregate no delta sketch can maintain (MIN, MAX,
        holistic UDAFs)."""
        schemas = self.catalog.schemas()
        if self.use_viewlet_rewrites:
            plan = apply_viewlet_rewrites(plan, schemas)
        views: list[_MaintainedView] = []

        def maybe_replace(node: PlanNode) -> PlanNode | None:
            if not isinstance(node, Aggregate):
                return None
            if self.streamed_table not in node.base_tables():
                return None
            has_inner_blocks = any(
                isinstance(n, Aggregate)
                or (isinstance(n, Scan) and n.table.startswith("__hda_view_"))
                for n in node.child.walk()
            )
            if has_inner_blocks:
                return None  # not innermost; the outer query recomputes it
            for spec in node.aggs:
                if not spec.func.decomposable:
                    raise UnsupportedQueryError(
                        f"HDA maintains innermost aggregates as delta sketches; "
                        f"{spec.func.name.upper()} is not decomposable",
                        node=node,
                    )
            view_table = f"__hda_view_{len(views)}"
            schema = node.output_schema(schemas)
            views.append(_MaintainedView(node, view_table, schema))
            return Scan(view_table, schema)

        outer = transform(plan, maybe_replace)
        return outer, views

    # -- execution ------------------------------------------------------------------------

    def run(self, plan: PlanNode, num_batches: int) -> Iterator[HDAPartial]:
        streamed = self.catalog.get(self.streamed_table)
        batches = self.partitioner.source(streamed, num_batches)
        outer_plan, views = self._split(plan)
        # Only an outer query that reads the streamed table itself needs
        # the accumulated stream; one that reads just the maintained views
        # (every flat query) costs the same per batch throughout.
        outer_reads_stream = self.streamed_table in outer_plan.base_tables()
        outer_reads_data = outer_reads_stream or not isinstance(outer_plan, Scan)
        self.metrics = RunMetrics()

        accumulated: Relation | None = None
        total = len(streamed)
        seen = 0
        for i, delta in enumerate(batches, start=1):
            bm = self.metrics.start_batch(i)
            started = time.perf_counter()
            bm.new_tuples = len(delta)
            seen += len(delta)
            scale = total / seen if seen else 1.0

            stream = delta
            if outer_reads_stream:
                accumulated = (
                    delta if accumulated is None else accumulated.concat(delta)
                )
                stream = accumulated.scale(scale)
            delta_catalog = self.catalog.replace(self.streamed_table, delta)
            run_catalog = self.catalog.replace(self.streamed_table, stream)
            for view in views:
                bm.recomputed_tuples += 0  # folding ΔD is new work, not recompute
                view.fold_delta(delta_catalog)
                run_catalog.register(view.view_table, view.materialize(scale))
                bm.add_state(f"view:{view.view_table}", view.state_bytes())

            if outer_reads_data:
                stats = EvalStats()
                result = evaluate(outer_plan, run_catalog, stats)
                # Everything the outer query touches beyond this batch's
                # delta is recomputation of previously processed data.
                bm.recomputed_tuples += max(0, stats.rows_processed - len(delta))
                bm.shipped_bytes += stats.bytes_shipped
            else:
                result = run_catalog.get(outer_plan.table)  # type: ignore[attr-defined]
                bm.shipped_bytes += result.estimated_bytes()

            # The accumulated relation is operator state the classical
            # rules must keep to re-evaluate the outer query.
            if accumulated is not None:
                bm.add_state("accumulated", accumulated.estimated_bytes())

            bm.wall_seconds = time.perf_counter() - started
            yield HDAPartial(
                i, len(batches), result, bm, is_final=(i == len(batches))
            )

    def run_to_completion(self, plan: PlanNode, num_batches: int) -> HDAPartial:
        last: HDAPartial | None = None
        for last in self.run(plan, num_batches):
            pass
        assert last is not None
        return last
