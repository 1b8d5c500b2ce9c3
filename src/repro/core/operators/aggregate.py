"""Online AGGREGATE: sketch folding, lazy/holistic paths, block publishing."""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.core.blocks import (
    MEMBER_TRUE,
    BlockOutput,
    GroupKey,
    RuntimeContext,
    UColumn,
    membership,
)
from repro.core.classify import evaluate_side
from repro.core.operators.base import DeltaBatch, SpineOp, StateRule, TagRule
from repro.core.sketch import AggBundle
from repro.kernels.codec import factorize_keys, recode_subset
from repro.kernels.holistic import grouped_indices
from repro.errors import ReproError
from repro.relational.aggregates import AggSpec
from repro.relational.relation import Relation
from repro.relational.schema import Schema


class GroupGate(NamedTuple):
    """A semi-join's membership applied per group, at publish.

    The join into ``side_id``'s view compiled to no operator: its rows
    reach the aggregate unfiltered, and a group exists where the view
    holds its key — the group-key ``columns`` in the view's key order —
    as a member (:func:`~repro.core.blocks.membership`).
    """

    side_id: int
    columns: tuple[str, ...]


class AggregateOp(SpineOp):
    """Online AGGREGATE (Section 4.2's state rules + Section 5's pruning).

    Certain input rows with deterministic aggregate arguments fold into
    per-group per-trial sketches and are forgotten. Rows whose argument is
    uncertain go to a row store and are lazily re-evaluated each batch
    through their lineage gids; volatile input rows are re-aggregated
    from scratch each batch (they are few — that is the point). The
    combined result is published as this lineage block's output.

    With ``gates`` the input also carries rows a semi-join below has not
    filtered: they fold once like any certain row, and each gate decides,
    every batch, which groups exist (:class:`GroupGate`). Values are
    never gated, since a group's membership is all or nothing.
    """

    #: AGGREGATE ends a lineage block: input tags are absorbed into the
    #: published block output (fresh ``u#``/``uA`` tags downstream). The
    #: §4.2 state rule is sketch-only over certain-append input; the row
    #: store ("rows") is populated only when a lazy/holistic aggregate
    #: argument demands re-evaluation, and "published" masks the block's
    #: gids published since the last reset.
    tag_rule = TagRule(consumes_uncertain="allowed", resets_tags=True)
    state_rule = StateRule(frozenset({"sketch", "rows", "published"}))

    def __init__(
        self,
        child: SpineOp,
        group_by: list[str],
        specs: list[AggSpec],
        schema: Schema,
        block_id: int,
        sample_weighted: bool,
        gates: Sequence[GroupGate] = (),
    ):
        super().__init__(f"aggregate:{block_id}", schema, set(), (child,))
        self.child = child
        self.group_by = group_by
        self.specs = specs
        self.block_id = block_id
        self.sample_weighted = sample_weighted
        self.gates = list(gates)

        self.sketch_specs: list[AggSpec] = []
        self.lazy_specs: list[AggSpec] = []
        self.holistic_specs: list[AggSpec] = []
        for spec in specs:
            # analyze refused an uncertain argument to anything but a
            # one-feature decomposable aggregate.
            if spec.attrs() & child.uncertain_cols:
                self.lazy_specs.append(spec)
            elif spec.func.decomposable:
                self.sketch_specs.append(spec)
            else:
                self.holistic_specs.append(spec)
        self._init_state()

    def _init_state(self) -> None:
        # The sketch is built by the first batch, with the run's T.
        self.state.put("sketch", None)
        self.state.put("rows", None)
        self.state.put("published", np.zeros(0, dtype=bool))

    @property
    def sketch(self) -> AggBundle | None:
        return self.state.get("sketch")

    @sketch.setter
    def sketch(self, value: AggBundle) -> None:
        self.state.put("sketch", value)

    @property
    def row_store(self) -> Relation | None:
        return self.state.get("rows")

    @row_store.setter
    def row_store(self, value: Relation | None) -> None:
        self.state.put("rows", value)

    @property
    def needs_row_store(self) -> bool:
        return bool(self.lazy_specs or self.holistic_specs)

    def process(self, delta: DeltaBatch, ctx: RuntimeContext) -> DeltaBatch:
        sketch = self.sketch
        if sketch is None:
            sketch = self.sketch = AggBundle(self.sketch_specs, ctx.num_trials)
            if not self.group_by:
                # A scalar aggregate always yields one row, even if no
                # input ever arrives (COUNT -> 0, AVG -> NaN) — matching
                # the batch evaluator.
                sketch._ensure_groups([()])
        cin, vin = delta.certain, delta.volatile
        ctx.metrics.shipped_bytes += cin.estimated_bytes() + vin.estimated_bytes()

        if self.needs_row_store:
            cin = cin.with_drawn_trials()  # folded now, re-read every batch
        sketch.fold(cin, self.group_by)
        if self.needs_row_store and len(cin):
            store = self.row_store
            self.row_store = cin if store is None else store.concat(cin)

        # The volatile rows fold on top of a copy, re-read from scratch
        # every batch; the persistent sums never see them.
        ctx.metrics.recomputed_tuples += len(vin)
        combined = sketch.folded_with(vin, self.group_by)

        scale = ctx.scale if self.sample_weighted else 1.0
        cols = {
            spec.name: combined.finalize(s, scale)
            for s, spec in enumerate(self.sketch_specs)
        }
        if self.lazy_specs or self.holistic_specs:
            self._add_lazy_and_holistic(ctx, vin, scale, combined.keys, cols)
        self._publish(ctx, combined, cols)
        return DeltaBatch(self.empty(ctx), self.empty(ctx))

    # -- lazy / holistic paths ---------------------------------------------------------

    def _lazy_input(self, ctx: RuntimeContext, vin: Relation) -> Relation:
        store = self.row_store
        if store is None:
            return vin
        return store.concat(vin) if len(vin) else store

    def _add_lazy_and_holistic(
        self,
        ctx: RuntimeContext,
        vin: Relation,
        scale: float,
        keys: list[GroupKey],
        cols: dict[str, tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Recompute the lazy and holistic specs from the row store and add
        their ``(points, trials)`` to ``cols``, aligned with ``keys`` (the
        sketch has folded every stored row's weight and the volatile bundle
        every volatile row's, so these specs see no group beyond ``keys``).
        """
        rows = self._lazy_input(ctx, vin)
        ctx.metrics.recomputed_tuples += len(rows)
        kc = factorize_keys(rows, self.group_by)
        # Deterministic-mult stores never materialize the (n, T) copy —
        # the broadcast is read-only and all uses below fancy-index it.
        trial_w = rows.trial_mults
        if trial_w is None:
            trial_w = np.broadcast_to(rows.mult[:, None], (len(rows), ctx.num_trials))
        pos = {key: i for i, key in enumerate(keys)}

        def place(name: str, spec_keys, values, trial_values) -> None:
            at = [pos[key] for key in spec_keys]
            if len(at) != len(keys):
                raise ReproError(
                    f"{self.label}: aggregate {name!r} covers {len(at)} of "
                    f"{len(keys)} published groups"
                )
            points = np.empty(len(keys))
            trials = np.empty((len(keys), ctx.num_trials))
            points[at] = values
            trials[at] = np.reshape(trial_values, (len(at), ctx.num_trials))
            cols[name] = (points, trials)

        for spec in self.lazy_specs:
            side = evaluate_side(spec.arg, rows, self.child.uncertain_cols, ctx)
            ok = ~side.pending
            bundle = AggBundle([spec], ctx.num_trials)
            sub_keys, sub_codes = recode_subset(kc, ok)
            bundle.fold_values_coded(
                sub_keys,
                sub_codes,
                0,
                side.point[ok],
                side.trial_matrix(ctx.num_trials)[ok],
                rows.mult[ok],
                trial_w[ok],
            )
            place(spec.name, bundle.keys, *bundle.finalize(0, scale))
        for spec in self.holistic_specs:
            values_arr = spec.arg_values(rows)
            spec_keys, points, trial_rows = [], [], []
            for key, ix in zip(kc.keys, grouped_indices(kc.codes, kc.num_keys)):
                point = spec.func.compute(values_arr[ix], rows.mult[ix]) * (
                    scale if spec.func.scales_with_m else 1.0
                )
                # Holistic functions (user UDAFs among them) do their own
                # arithmetic on the weights: hand them floats, never the
                # raw uint8 counts.
                group_w = np.asarray(trial_w[ix], dtype=np.float64)
                trials = spec.func.trial_compute(values_arr[ix], group_w)
                if spec.func.scales_with_m:
                    trials = trials * scale
                spec_keys.append(key)
                points.append(point)
                trial_rows.append(trials)
            place(spec.name, spec_keys, points, trial_rows)

    # -- publishing ------------------------------------------------------------------

    def _publish(
        self,
        ctx: RuntimeContext,
        combined: AggBundle,
        cols: dict[str, tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Publish ``combined``'s ``n`` groups as the block's columnar output:
        their existence and, per spec, the ``(points (n,), trials (n, T))``
        of ``cols``, scattered to gid positions — nothing built per group."""
        keys = combined.keys
        weights = combined.acc[: len(keys), 0]  # (n, 1+T): point, then trials
        exist = weights[:, 1:] > 0
        exist_point = weights[:, 0] > 0
        index = ctx.indexes[self.block_id]
        gids = index.add(keys)
        g = len(index)
        n = len(keys)
        # Groups that vanished (all their volatile contributors currently
        # excluded) stay visible with empty existence, so downstream
        # lineage gids keep resolving. Sorted by key so the tombstone
        # order (and hence the output's group order) does not depend on
        # when a group was first published.
        published = np.zeros(g, dtype=bool)
        before = self.state.get("published")
        published[: len(before)] = before
        vanished = published.copy()
        vanished[gids] = False
        tomb_gids = np.array(
            sorted(np.flatnonzero(vanished).tolist(), key=index.keys.__getitem__),
            dtype=np.intp,
        )
        published[gids] = True
        self.state.put("published", published)
        # Most batches publish every gid, in gid order, with no tombstone:
        # the per-group arrays are then gid-indexed already.
        in_place = n == g and bool((gids == np.arange(g)).all())

        def scattered(fill, values: np.ndarray) -> np.ndarray:
            # values at gids; fill elsewhere (tombstones too).
            if in_place:
                return values
            out = np.full((g,) + values.shape[1:], fill, dtype=values.dtype)
            out[gids] = values
            return out

        # The sketch's groups are exactly those with a certain row, and
        # ``combined`` lists them first, then the volatile rows' new ones.
        certain_n = np.arange(n) < len(self.sketch)
        point_n = certain_n | exist_point
        exist_n = exist | certain_n[:, None]
        for gate in self.gates:
            at = [self.group_by.index(c) for c in gate.columns]
            side = ctx.blocks.get(gate.side_id)
            side_gids = (
                np.full(n, -1, dtype=np.intp)
                if side is None
                else side.probe([tuple(key[i] for i in at) for key in keys])
            )
            in_point, in_trials, settled = membership(side, side_gids, ctx.num_trials)
            certain_n = certain_n & settled
            point_n = point_n & in_point
            exist_n = exist_n & in_trials
        certain = scattered(False, certain_n)
        member_point = scattered(False, point_n)
        exist_g = scattered(False, exist_n)

        obs_on = ctx.obs.enabled
        width_hist = (
            ctx.obs.metrics.histogram("range.width", block=str(self.block_id))
            if obs_on
            else None
        )
        columns = [cols[spec.name] for spec in self.specs]
        # One (K·G, T) reduction for every spec column, bit-identical to
        # the per-cell RangeMonitor.observe() loop.
        bounds = ctx.monitor.observe_columns(columns)
        ucols: dict[str, UColumn] = {}
        for spec, (points, trials), (lo, hi) in zip(self.specs, columns, bounds):
            if width_hist is not None:
                for width in (hi - lo).tolist():
                    width_hist.observe(width)
            ucols[spec.name] = UColumn(
                scattered(np.nan, points),
                scattered(np.nan, trials),
                scattered(-np.inf, lo),
                scattered(np.inf, hi),
            )

        output = BlockOutput(
            self.block_id, self.group_by, [s.name for s in self.specs], index
        )
        order = gids if in_place else np.concatenate([gids, tomb_gids])
        all_members = np.full(g, MEMBER_TRUE, dtype=np.int8)
        output.fill(order, certain, all_members, member_point, exist_g, ucols)
        ctx.metrics.nd_groups += n
        if obs_on:
            ctx.obs.metrics.gauge("block.groups", op=self.label).set(len(output))
        ctx.blocks[self.block_id] = output
