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
    SpineOp,
    StateRule,
    TagRule,
    filter_det,
    mask_contribution,
    subset_masks,
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

    def __init__(self, child: SpineOp, predicate: Expression):
        super().__init__(
            f"filter:{id(predicate):x}", child.schema, child.uncertain_cols, (child,)
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
        self._init_state()

    def _init_state(self) -> None:
        self.state.put("nd", None)
        self.state.put(
            "sentinels",
            SentinelStore(self.uncertain_conjuncts, set(self.uncertain_cols)),
        )

    @property
    def nd_store(self) -> Relation | None:
        return self.state.get("nd")

    @nd_store.setter
    def nd_store(self, value: Relation | None) -> None:
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
        combined: ClassifyResult,
        per_conjunct: list[ClassifyResult],
        ctx: RuntimeContext,
    ) -> None:
        """Guard every permanent action with a sentinel (see sentinels.py).

        Emitted rows needed ALL conjuncts stably true; dropped rows needed
        the specific conjuncts that were stably false."""
        vectorize = ctx.config.vectorize
        emitted = np.flatnonzero(combined.status == TRUE)
        dropped = combined.status == FALSE
        for idx, res in enumerate(per_conjunct):
            if len(emitted):
                self.sentinels.record(
                    idx,
                    rel,
                    emitted,
                    np.ones(len(emitted), dtype=bool),
                    vectorize=vectorize,
                    batch_no=ctx.batch_no,
                )
            conj_false = np.flatnonzero(dropped & (res.status == FALSE))
            if len(conj_false):
                self.sentinels.record(
                    idx,
                    rel,
                    conj_false,
                    np.zeros(len(conj_false), dtype=bool),
                    vectorize=vectorize,
                    batch_no=ctx.batch_no,
                )

    def _apply_det(self, rel: Relation) -> Relation:
        for pred in self.det_conjuncts:
            rel = filter_det(rel, pred)
        return rel

    # -- processing ---------------------------------------------------------------

    def process(self, delta: DeltaBatch, ctx: RuntimeContext) -> DeltaBatch:
        new_rows = self._apply_det(delta.certain)
        vol_in = self._apply_det(delta.volatile)

        if not ctx.config.lazy_lineage and self.nd_store is not None:
            # OPT2 off: regenerate cached rows from scratch — re-run the
            # deterministic conjuncts over the store as well, modelling the
            # re-execution of the upstream chain for each cached tuple
            # (which re-attaches the same lineage gids).
            store = self.nd_store
            self.nd_store = self._apply_det(
                Relation._from_parts(
                    store.schema,
                    {n: a.copy() for n, a in store.columns.items()},
                    store.mult.copy(),
                    None if store.trial_mults is None else store.trial_mults.copy(),
                    lineage=dict(store.lineage) or None,
                )
            )

        # Integrity: every previously pruned decision must still hold for
        # the current estimates; a flip triggers failure recovery.
        ctx.fault("sentinel", self.label)
        self.sentinels.check(ctx)

        res_new, per_new = self._classify(new_rows, ctx)
        self._record_sentinels(new_rows, res_new, per_new, ctx)

        store = self.nd_store if self.nd_store is not None else self.empty(ctx)
        ctx.metrics.recomputed_tuples += len(store) + len(vol_in)
        if len(store):
            res_old, per_old = self._classify(store, ctx)
            self._record_sentinels(store, res_old, per_old, ctx)
        else:
            res_old = None

        certain_parts = [new_rows.filter(res_new.status == TRUE)]
        # Stored across batches and masked below: drawn once, here.
        keep_new = new_rows.filter(
            (res_new.status == UNKNOWN) | (res_new.status == PENDING)
        ).with_drawn_trials()
        masks_new = subset_masks(
            res_new, (res_new.status == UNKNOWN) | (res_new.status == PENDING), ctx
        )

        if res_old is not None:
            certain_parts.append(store.filter(res_old.status == TRUE))
            undecided = (res_old.status == UNKNOWN) | (res_old.status == PENDING)
            keep_old = store.filter(undecided)
            masks_old = subset_masks(res_old, undecided, ctx)
        else:
            keep_old = self.empty(ctx)
            masks_old = None

        self.nd_store = keep_old.concat(keep_new)

        volatile_parts = []
        if len(keep_old) and masks_old is not None:
            volatile_parts.append(mask_contribution(keep_old, masks_old))
        if len(keep_new):
            volatile_parts.append(mask_contribution(keep_new, masks_new))
        if len(vol_in):
            res_vol, _ = self._classify(vol_in, ctx)
            volatile_parts.append(
                mask_contribution(
                    vol_in, (res_vol.point, res_vol.trial_matrix(ctx.num_trials))
                )
            )

        certain = certain_parts[0]
        for part in certain_parts[1:]:
            certain = certain.concat(part)
        volatile = self.empty(ctx)
        for part in volatile_parts:
            volatile = volatile.concat(part)
        if ctx.obs.enabled:
            reg = ctx.obs.metrics
            nd = self.nd_store
            reg.gauge("nd.rows", op=self.label).set(0 if nd is None else len(nd))
            reg.gauge("sentinels", op=self.label).set(len(self.sentinels))
        return DeltaBatch(certain, volatile)
