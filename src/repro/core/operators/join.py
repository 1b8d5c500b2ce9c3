"""JOIN operators: static dimension sides and uncertain small sides."""

from __future__ import annotations

import numpy as np

from repro.core.blocks import BlockOutput, GroupKey, RuntimeContext, membership
from repro.core.classify import FALSE, PENDING, TRUE, UNKNOWN
from repro.core.operators.base import (
    DeltaBatch,
    NDStore,
    SpineOp,
    StateRule,
    TagRule,
    empty_relation,
    mask_contribution,
)
from repro.core.sentinels import MembershipSentinels
from repro.kernels.codec import factorize_keys
from repro.kernels.joins import SideIndex, vectorized_join
from repro.kernels.stats import STATS
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.storage.columns import CODE_DTYPE
from repro.storage.lineage import LineageColumn


class StaticJoinOp(SpineOp):
    """JOIN of the stream with a static (dimension) side.

    The paper's JOIN state rule: when only the fact table is streamed, the
    operator state is just the dimension side, kept in memory from batch 1
    (and reported as join state for the Figure 9(b) accounting). The
    dimension side's hash index is built once into the state store
    ("side_index", accounted in state bytes) and reused every batch.
    """

    #: The paper's JOIN state rule with a certain side: state is exactly
    #: the broadcast dimension side (plus its derived hash index); no
    #: non-deterministic set can arise.
    tag_rule = TagRule(consumes_uncertain="forbidden")
    state_rule = StateRule(frozenset({"side", "side_index", "announced"}))

    def __init__(
        self,
        child: SpineOp,
        side: Relation,
        keys: list[tuple[str, str]],
        schema: Schema,
        stream_is_left: bool,
        node_id: int,
    ):
        super().__init__(f"join:{node_id}", schema, child.uncertain_cols, (child,))
        self.child = child
        self.side = side
        self.keys = keys
        self.stream_is_left = stream_is_left
        self._init_state()

    def _init_state(self) -> None:
        # The broadcast side is immutable configuration, but it *is* the
        # operator's state footprint, so it lives in the store (accounted).
        # The derived hash index is built lazily on the first keyed join.
        self.state.put("side", self.side)
        self.state.put("side_index", None)
        self.state.put("announced", False)

    def process(self, delta: DeltaBatch, ctx: RuntimeContext) -> DeltaBatch:
        if not self.state.get("announced"):
            # Broadcasting the dimension table is a one-time shipping cost.
            ctx.metrics.shipped_bytes += self.side.estimated_bytes()
            self.state.put("announced", True)
        return DeltaBatch(
            self._join(delta.certain, ctx), self._join(delta.volatile, ctx)
        )

    def _side_index(self) -> SideIndex:
        """Cross-batch cached hash index over the dimension side."""
        index = self.state.get("side_index")
        if index is None:
            STATS.inc("side_index_misses")
            index = SideIndex(self.side, [rk for _, rk in self.keys])
            self.state.put("side_index", index)
        else:
            STATS.inc("side_index_hits")
        return index

    def _join(self, rel: Relation, ctx: RuntimeContext) -> Relation:
        if self.stream_is_left:
            index = self._side_index() if self.keys else None
            return vectorized_join(rel, self.side, self.keys, index)
        # Stream on the probe side: the per-batch index is over the stream
        # delta, so there is nothing to cache — but the build and probe
        # are still vectorized.
        flipped = [(rk, lk) for lk, rk in self.keys]
        return _reorder_columns(vectorized_join(self.side, rel, flipped), self.schema)


def _reorder_columns(rel: Relation, schema: Schema) -> Relation:
    """Project columns into the compiler's expected order, tolerating the
    key-drop asymmetry of flipped joins."""
    cols = {name: rel.columns[name] for name in schema.names}
    return Relation._from_parts(
        schema,
        cols,
        rel.mult,
        rel._trials,
        encodings={n: e for n, e in rel.encodings.items() if n in cols} or None,
        lineage={n: s for n, s in rel.lineage.items() if n in cols} or None,
    )


class UncertainJoinOp(SpineOp):
    """JOIN of the stream with an uncertain small side (a lineage-block
    boundary, Section 6).

    Each stream row looks up its group in the side view and attaches the
    side's columns — uncertain ones as the group's gid (its lineage), so
    their values stay lazily up to date, deterministic ones by value. Rows
    whose group membership is unresolved form this operator's
    non-deterministic store; rows whose group has not been published at
    all wait in the pending store (re-tried every batch).
    """

    #: JOIN against an uncertain block output: unresolved-membership rows
    #: form the non-deterministic set ("nd"), unpublished-group rows wait
    #: in "pending", and resolved memberships are sentinel-guarded — the
    #: §4.2 JOIN rule when the other input carries uncertainty.
    tag_rule = TagRule(consumes_uncertain="required", introduces_nd=True)
    state_rule = StateRule(
        frozenset({"nd", "pending", "member_sentinels"}), nd_entry="nd"
    )

    def __init__(
        self,
        child: SpineOp,
        side_id: int,
        stream_keys: list[str],
        attach_cols: list[tuple[str, bool]],
        schema: Schema,
        node_id: int,
    ):
        uncertain = child.uncertain_cols | {
            name for name, is_uncertain in attach_cols if is_uncertain
        }
        super().__init__(f"join:{node_id}", schema, uncertain, (child,))
        self.child = child
        self.side_id = side_id
        self.stream_keys = stream_keys
        self.attach_cols = attach_cols
        self._init_state()

    def _init_state(self) -> None:
        self.state.put("nd", None)
        self.state.put("pending", None)
        self.state.put("member_sentinels", MembershipSentinels())

    @property
    def nd_store(self) -> NDStore | None:
        return self.state.get("nd")

    @nd_store.setter
    def nd_store(self, value: NDStore | None) -> None:
        self.state.put("nd", value)

    @property
    def pending(self) -> Relation | None:
        return self.state.get("pending")

    @pending.setter
    def pending(self, value: Relation | None) -> None:
        self.state.put("pending", value)

    @property
    def member_sentinels(self) -> MembershipSentinels:
        return self.state.get("member_sentinels")

    # -- helpers -----------------------------------------------------------------

    def _keys_of(self, rel: Relation) -> list[GroupKey]:
        if not self.stream_keys:
            return [() for _ in range(len(rel))]
        return rel.key_tuples(self.stream_keys)

    def _probe(
        self, rel: Relation, view: BlockOutput | None, missing: np.int8
    ) -> tuple[object, np.ndarray, np.ndarray]:
        """Factorize stream keys and probe the side view once per *distinct*
        key: ``(codes, gid, join status)``, gid ``-1`` and status
        ``missing`` where the view has not published the key."""
        kc = factorize_keys(rel, self.stream_keys)
        status = np.full(kc.num_keys, missing, dtype=np.int8)
        if view is None:
            return kc, np.full(kc.num_keys, -1, dtype=np.intp), status
        gids = view.probe(kc.keys)
        status[gids >= 0] = view.join_status[gids[gids >= 0]]
        return kc, gids, status

    def _with_columns(self, rel: Relation, cols: dict, lineage: dict) -> Relation:
        return Relation._from_parts(
            self.schema, cols, rel.mult, rel._trials,
            encodings=rel.encodings or None, lineage=lineage or None,
        )

    def _attach_coded(
        self, rel: Relation, view: BlockOutput | None, gid_rows: np.ndarray
    ) -> Relation:
        """Append the side columns of the rows' groups ``gid_rows``: an
        uncertain column's cells are the gids themselves (its
        :class:`~repro.storage.lineage.LineageColumn` names the block
        column they index; every reader gathers by them), a plain one is
        gathered by value."""
        cols = dict(rel.columns)
        lineage = dict(rel.lineage)
        for name, is_uncertain in self.attach_cols:
            if is_uncertain:
                cols[name] = gid_rows.astype(CODE_DTYPE)
                lineage[name] = LineageColumn(self.side_id, name)
            elif len(rel):
                cols[name] = view.det_values(name, self.schema.type_of(name).dtype)[gid_rows]
            else:
                cols[name] = np.empty(0, dtype=self.schema.type_of(name).dtype)
        return self._with_columns(rel, cols, lineage)

    def _partition_new(
        self,
        rel: Relation,
        view: BlockOutput | None,
        ctx: RuntimeContext,
        record: bool = False,
    ) -> tuple[Relation, Relation, np.ndarray, Relation]:
        """Split incoming certain rows into (certain-out, nd, the nd rows'
        side gids, pending).

        With ``record=True`` (permanent actions: the certain input path),
        every stable membership decision leaves a sentinel so later flips
        trigger recovery."""
        n = len(rel)
        if n == 0:
            none = np.zeros(0, dtype=np.intp)
            return self._empty_out(ctx), self._empty_out(ctx), none, rel
        # One view probe per distinct key, then status/slot gathers.
        kc, gids_u, status_u = self._probe(rel, view, PENDING)
        if record:
            self._record_resolved(view, gids_u, status_u)
        status = status_u[kc.codes]
        gids = gids_u[kc.codes]
        sure = status == TRUE
        unknown = status == UNKNOWN
        waiting = status == PENDING
        certain_out = self._attach_coded(rel.filter(sure), view, gids[sure])
        nd = self._attach_coded(rel.filter(unknown), view, gids[unknown])
        return certain_out, nd, gids[unknown], rel.filter(waiting)

    def _record_resolved(
        self, view: BlockOutput | None, gids_u: np.ndarray, status_u: np.ndarray
    ) -> None:
        """Sentinels for the stable decisions of distinct groups ``gids_u``
        (first-recorded wins, so once per group matches once per row)."""
        for member, code in ((True, TRUE), (False, FALSE)):
            at = gids_u[status_u == code]
            if len(at):
                self.member_sentinels.record_gids(view.index, at, np.full(len(at), member))

    def _volatile_of(
        self, rel: Relation, gids: np.ndarray, ctx: RuntimeContext,
        rows: np.ndarray | None = None,
    ) -> Relation:
        """Current contribution of attached-but-unresolved rows (``rel``'s
        rows at ``rows``, all for None), read by their side ``gids``."""
        view = ctx.blocks.get(self.side_id)
        if len(gids) == 0 or view is None:
            return self._empty_out(ctx)
        point, trials, _ = membership(view, gids, ctx.num_trials)
        return mask_contribution(rel, (point, trials), rows)

    def _empty_out(self, ctx: RuntimeContext) -> Relation:
        return empty_relation(self.schema, self.uncertain_cols, ctx.num_trials)

    # -- processing -----------------------------------------------------------------

    def process(self, delta: DeltaBatch, ctx: RuntimeContext) -> DeltaBatch:
        view = ctx.blocks.get(self.side_id)
        # Integrity: previously resolved memberships must not have flipped.
        ctx.fault("sentinel", self.label)
        self.member_sentinels.check(ctx, view)

        certain_new, nd_new, nd_gids, pending_new = self._partition_new(
            delta.certain, view, ctx, record=True
        )

        # Retry rows that were waiting for their group to be published.
        if self.pending is not None and len(self.pending):
            ctx.metrics.recomputed_tuples += len(self.pending)
            certain_retry, nd_retry, retry_gids, still_pending = self._partition_new(
                self.pending, view, ctx, record=True
            )
            certain_new = certain_new.concat(certain_retry)
            nd_new = nd_new.concat(nd_retry)
            nd_gids = np.concatenate([nd_gids, retry_gids])
            pending_new = still_pending.concat(pending_new)
        # Rows kept across batches own their trial matrix: drawn once here,
        # not at every retry and re-examination.
        self.pending = pending_new.with_drawn_trials()

        # Re-examine the non-deterministic store against fresh membership,
        # read by the side gids its rows carry.
        store = self.nd_store
        if store is None:
            store = NDStore(self._empty_out(ctx), gids=np.zeros(0, dtype=np.intp))
        ctx.metrics.recomputed_tuples += len(store)
        if not ctx.config.lazy_lineage and len(store) and view is not None:
            # OPT2 off: regenerate cached tuples instead of updating them
            # in place — re-do the join lookup and rebuild every attached
            # column for the whole store (the paper's "re-generating the
            # tuple from scratch" cost that lineage + lazy evaluation
            # avoids).
            live = store.live_rows()
            gids = view.probe(self._keys_of(live))
            keep = gids >= 0
            store = NDStore(
                self._attach_coded(live.filter(keep), view, gids[keep]), gids=gids[keep]
            )
        keep = np.ones(len(store), dtype=bool)
        if len(store) and view is not None:
            gids = store.live_gids()
            present = ~view.absent(gids)
            status = np.full(len(gids), UNKNOWN, dtype=np.int8)
            status[present] = view.join_status[gids[present]]
            # Each group once, in first-appearance order.
            first = np.sort(np.unique(gids, return_index=True)[1])
            self._record_resolved(view, gids[first], status[first])
            certain_new = certain_new.concat(store.rows.take(store.live[status == TRUE]))
            keep = status == UNKNOWN
        store = store.advanced(keep, nd_new, nd_gids)
        self.nd_store = store

        volatile = self._volatile_of(store.rows, store.live_gids(), ctx, store.live)
        if len(delta.volatile):
            v_certain, v_nd, v_gids, _ = self._partition_new(delta.volatile, view, ctx)
            # Upstream volatile rows are never stored here; they contribute
            # whatever their current membership allows.
            volatile = volatile.concat(v_certain)
            volatile = volatile.concat(self._volatile_of(v_nd, v_gids, ctx))
        if ctx.obs.enabled:
            reg = ctx.obs.metrics
            nd, pending = self.nd_store, self.pending
            reg.gauge("nd.rows", op=self.label).set(0 if nd is None else len(nd))
            reg.gauge("pending.rows", op=self.label).set(
                0 if pending is None else len(pending)
            )
            reg.gauge("sentinels", op=self.label).set(len(self.member_sentinels))
        return DeltaBatch(certain_new, volatile)
