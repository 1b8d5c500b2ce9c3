"""SELECT operators: deterministic delta rule and the ND-store variant."""

from __future__ import annotations

import numpy as np

from repro.core.blocks import RuntimeContext
from repro.core.classify import (
    FALSE,
    PENDING,
    TRUE,
    UNKNOWN,
    ClassifyResult,
    classify_comparison,
    combine_conjuncts,
)
from repro.core.operators.base import (
    DeltaBatch,
    NDStore,
    SpineOp,
    StateRule,
    TagRule,
    filter_det,
    mask_contribution,
)
from repro.core.sentinels import SentinelStore
from repro.relational.expressions import Comparison, Expression
from repro.relational.relation import Relation


class FilterOp(SpineOp):
    """SELECT with a fully deterministic predicate — pure delta rule."""

    #: A deterministic SELECT must never read uncertain attributes (the
    #: compiler must emit UncertainFilterOp there) and keeps no state: the
    #: §4.2 SELECT rule over certain input is a pure delta rule.
    tag_rule = TagRule(consumes_uncertain="forbidden")
    state_rule = StateRule()

    def __init__(self, child: SpineOp, predicate: Expression, node_id: int):
        super().__init__(
            f"filter:{node_id}", child.schema, child.uncertain_cols, (child,)
        )
        self.child = child
        self.predicate = predicate

    def process(self, delta: DeltaBatch, ctx: RuntimeContext) -> DeltaBatch:
        return DeltaBatch(
            filter_det(delta.certain, self.predicate),
            filter_det(delta.volatile, self.predicate),
        )


class UncertainFilterOp(SpineOp):
    """SELECT whose predicate touches uncertain attributes (Section 5.2).

    Maintains the non-deterministic store ``U_i``; classifies new rows and
    re-classifies the store against current variation ranges each batch.
    Rows resolve to TRUE (emitted permanently), FALSE (dropped forever),
    or stay non-deterministic and contribute to the volatile output with
    their current point decision and per-trial decisions.
    """

    #: SELECT over uncertain attributes keeps the non-deterministic set
    #: U_i ("nd") plus the sentinel guards of its pruned decisions — the
    #: §4.2/§5.2 state rule for uncertain predicates.
    tag_rule = TagRule(consumes_uncertain="required", introduces_nd=True)
    state_rule = StateRule(frozenset({"nd", "sentinels"}), nd_entry="nd")

    def __init__(
        self,
        child: SpineOp,
        det_conjuncts: list[Expression],
        uncertain_conjuncts: list[Comparison],
        node_id: int,
    ):
        super().__init__(
            f"select:{node_id}", child.schema, child.uncertain_cols, (child,)
        )
        self.child = child
        self.det_conjuncts = det_conjuncts
        self.uncertain_conjuncts = uncertain_conjuncts
        self._conjunct_cols = sorted(set().union(*(c.attrs() for c in uncertain_conjuncts)))
        self._init_state()

    def _init_state(self) -> None:
        self.state.put("nd", None)
        self.state.put(
            "sentinels",
            SentinelStore(self.uncertain_conjuncts, set(self.uncertain_cols)),
        )

    @property
    def nd_store(self) -> NDStore | None:
        return self.state.get("nd")

    @nd_store.setter
    def nd_store(self, value: NDStore | None) -> None:
        self.state.put("nd", value)

    @property
    def sentinels(self) -> SentinelStore:
        return self.state.get("sentinels")

    # -- helpers ---------------------------------------------------------------

    def _classify(
        self, rel: Relation, ctx: RuntimeContext
    ) -> tuple[ClassifyResult, list[ClassifyResult]]:
        results = [
            classify_comparison(cmp, rel, self.uncertain_cols, ctx)
            for cmp in self.uncertain_conjuncts
        ]
        return combine_conjuncts(results, ctx.num_trials), results

    def _record_sentinels(
        self,
        rel: Relation,
        k: int,
        combined: ClassifyResult,
        per_conjunct: list[ClassifyResult],
        ctx: RuntimeContext,
    ) -> None:
        """Guard every permanent action with a sentinel (see sentinels.py).

        ``rel`` holds the store's rows before position ``k``, then the new
        rows. Emitted rows needed ALL conjuncts stably true; dropped rows
        needed the specific conjuncts that were stably false. One record
        per conjunct takes the rows in decision order: the new rows'
        emitted, then dropped, then the store's."""
        emitted = combined.status == TRUE
        dropped = combined.status == FALSE
        parts = (np.arange(k, len(rel)), np.arange(k))
        for idx, res in enumerate(per_conjunct):
            false = dropped & (res.status == FALSE)
            rows = np.concatenate([p[m[p]] for p in parts for m in (emitted, false)])
            if len(rows):
                self.sentinels.record(idx, rel, rows, emitted[rows])

    def _apply_det(self, rel: Relation) -> Relation:
        for pred in self.det_conjuncts:
            rel = filter_det(rel, pred)
        return rel

    # -- processing ---------------------------------------------------------------

    def process(self, delta: DeltaBatch, ctx: RuntimeContext) -> DeltaBatch:
        new_rows = self._apply_det(delta.certain)
        vol_in = self._apply_det(delta.volatile)
        store = self.nd_store if self.nd_store is not None else NDStore(self.empty(ctx))

        if not ctx.config.lazy_lineage and len(store):
            # OPT2 off: regenerate cached rows from scratch — re-run the
            # deterministic conjuncts over the store as well, modelling the
            # re-execution of the upstream chain for each cached tuple
            # (which re-attaches the same lineage gids).
            live = store.live_rows()
            store = NDStore(self._apply_det(
                Relation._from_parts(
                    live.schema,
                    {n: a.copy() for n, a in live.columns.items()},
                    live.mult.copy(),
                    None if live.trial_mults is None else live.trial_mults.copy(),
                    lineage=dict(live.lineage) or None,
                )
            ))

        # Integrity: every previously pruned decision must still hold for
        # the current estimates; a flip triggers failure recovery.
        ctx.fault("sentinel", self.label)
        self.sentinels.check(ctx)

        # One classification of the store's live rows followed by the new
        # rows, over the columns the conjuncts read (row by row, so each
        # row classifies as it would alone).
        live = store.live
        k = len(live)
        ctx.metrics.recomputed_tuples += k + len(vol_in)
        rel = new_rows.with_mult(new_rows.mult, None).project(self._conjunct_cols)
        if k:
            rel = store.live_rows(self._conjunct_cols).concat(rel)
        res, per = self._classify(rel, ctx)
        self._record_sentinels(rel, k, res, per, ctx)
        certain = new_rows.filter(res.status[k:] == TRUE)
        if k:
            certain = certain.concat(store.rows.take(live[res.status[:k] == TRUE]))

        # Undecided rows stay (the new ones drawn once, on entry) and
        # contribute their current decisions.
        undecided = (res.status == UNKNOWN) | (res.status == PENDING)
        store = store.advanced(undecided[:k], new_rows.filter(undecided[k:]))
        self.nd_store = store
        volatile = mask_contribution(
            store.rows,
            (res.point[undecided], res.trial_matrix(ctx.num_trials)[undecided]),
            store.live,
        )
        if len(vol_in):
            res_vol, _ = self._classify(vol_in, ctx)
            volatile = volatile.concat(
                mask_contribution(
                    vol_in, (res_vol.point, res_vol.trial_matrix(ctx.num_trials))
                )
            )
        if ctx.obs.enabled:
            reg = ctx.obs.metrics
            reg.gauge("nd.rows", op=self.label).set(len(store))
            reg.gauge("sentinels", op=self.label).set(len(self.sentinels))
        return DeltaBatch(certain, volatile)
