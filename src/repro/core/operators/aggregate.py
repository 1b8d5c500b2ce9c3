"""Online AGGREGATE: sketch folding, lazy/holistic paths, block publishing."""

from __future__ import annotations

import numpy as np

from repro.core.blocks import (
    MEMBER_TRUE,
    BlockOutput,
    GroupKey,
    RuntimeContext,
    UColumn,
)
from repro.core.classify import evaluate_side
from repro.core.operators.base import DeltaBatch, SpineOp, StateRule, TagRule
from repro.core.sentinels import QuiescenceTracker
from repro.core.sketch import AggBundle
from repro.rollup import ResolvedRollupStore
from repro.state.store import SelfSizingSet
from repro.kernels.codec import factorize_keys, recode_subset
from repro.kernels.holistic import grouped_indices
from repro.errors import ReproError, UnsupportedQueryError
from repro.relational.aggregates import AggSpec
from repro.relational.relation import Relation
from repro.relational.schema import Schema


class AggregateOp(SpineOp):
    """Online AGGREGATE (Section 4.2's state rules + Section 5's pruning).

    Certain input rows with deterministic aggregate arguments fold into
    per-group per-trial sketches and are forgotten. Rows whose argument is
    uncertain go to a row store and are lazily re-evaluated each batch
    through their lineage references; volatile input rows are re-aggregated
    from scratch each batch (they are few — that is the point). The
    combined result is published as this lineage block's output.
    """

    #: AGGREGATE ends a lineage block: input tags are absorbed into the
    #: published block output (fresh ``u#``/``uA`` tags downstream). The
    #: §4.2 state rule is sketch-only over certain-append input; the row
    #: store ("rows") is populated only when a lazy/holistic aggregate
    #: argument demands re-evaluation.
    tag_rule = TagRule(consumes_uncertain="allowed", resets_tags=True)
    state_rule = StateRule(
        frozenset(
            {
                "sketch",
                "sketch_ready",
                "rows",
                "certain_groups",
                "published_keys",
                "rollup",
                "quiesce",
                "output",
            }
        ),
        # The persistent block output doubles as the published lineage
        # block under ``rollup=True``; the race detector checks that the
        # backing block is produced by this unit alone (RACE301).
        block_backed=frozenset({"output"}),
    )

    def __init__(
        self,
        child: SpineOp,
        group_by: list[str],
        specs: list[AggSpec],
        schema: Schema,
        block_id: int,
        sample_weighted: bool,
    ):
        super().__init__(f"aggregate:{block_id}", schema, set(), (child,))
        self.child = child
        self.group_by = group_by
        self.specs = specs
        self.block_id = block_id
        self.sample_weighted = sample_weighted

        self.sketch_specs: list[AggSpec] = []
        self.lazy_specs: list[AggSpec] = []
        self.holistic_specs: list[AggSpec] = []
        for spec in specs:
            arg_uncertain = bool(spec.attrs() & child.uncertain_cols)
            if arg_uncertain and not spec.func.decomposable:
                raise UnsupportedQueryError(
                    f"aggregate {spec.name!r}: holistic UDAF over an "
                    "uncertain argument is not supported online"
                )
            if arg_uncertain:
                if spec.func.num_features != 1:
                    raise UnsupportedQueryError(
                        f"aggregate {spec.name!r} over an uncertain argument "
                        "requires a single identity feature (SUM/AVG-style)"
                    )
                self.lazy_specs.append(spec)
            elif spec.func.decomposable:
                self.sketch_specs.append(spec)
            else:
                self.holistic_specs.append(spec)
        self._init_state()

    def _init_state(self) -> None:
        self.state.put("sketch", AggBundle(self.sketch_specs, 0))
        self.state.put("sketch_ready", False)
        self.state.put("rows", None)
        self.state.put("certain_groups", SelfSizingSet())
        self.state.put("published_keys", SelfSizingSet())
        self.state.put("rollup", ResolvedRollupStore())
        self.state.put("quiesce", QuiescenceTracker())
        self.state.put(
            "output",
            BlockOutput(self.block_id, self.group_by, [s.name for s in self.specs]),
        )

    @property
    def sketch(self) -> AggBundle:
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
    def certain_groups(self) -> set[GroupKey]:
        return self.state.get("certain_groups")

    @property
    def _published_keys(self) -> set[GroupKey]:
        return self.state.get("published_keys")

    @property
    def _rollup(self) -> ResolvedRollupStore:
        return self.state.get("rollup")

    @property
    def _quiesce(self) -> QuiescenceTracker:
        return self.state.get("quiesce")

    @property
    def _output(self) -> BlockOutput:
        return self.state.get("output")

    @property
    def needs_row_store(self) -> bool:
        return bool(self.lazy_specs or self.holistic_specs)

    @property
    def rollup_eligible(self) -> bool:
        """Whether this sink can run the two-tier plan.

        Lazy/holistic paths recompute from the row store each batch and
        sample-weighted scaling aggregates (COUNT/SUM-style,
        ``scales_with_m``) are re-finalized with a new ``ctx.scale``
        every batch, so neither has a per-group fixed point to migrate;
        non-scaling decomposable sketches (AVG-style) do.
        """
        return not self.needs_row_store and (
            not self.sample_weighted
            or all(not s.func.scales_with_m for s in self.sketch_specs)
        )

    def process(self, delta: DeltaBatch, ctx: RuntimeContext) -> DeltaBatch:
        if not self.state.get("sketch_ready"):
            self.sketch = AggBundle(self.sketch_specs, ctx.num_trials)
            self.state.put("sketch_ready", True)
            if not self.group_by:
                # A scalar aggregate always yields one row, even if no
                # input ever arrives (COUNT -> 0, AVG -> NaN) — matching
                # the batch evaluator.
                self.sketch._ensure_groups([()])
                self.certain_groups.add(())
        cin, vin = delta.certain, delta.volatile
        ctx.metrics.shipped_bytes += cin.estimated_bytes() + vin.estimated_bytes()

        rollup_on = ctx.config.rollup and self.rollup_eligible
        if rollup_on:
            self._demote_and_touch(ctx, cin, vin)

        if self.needs_row_store:
            cin = cin.with_drawn_trials()  # folded now, re-read every batch
        self.sketch.fold(cin, self.group_by)
        if self.needs_row_store and len(cin):
            store = self.row_store
            self.row_store = cin if store is None else store.concat(cin)
        if len(cin):
            if ctx.config.vectorize:
                # The codec's distinct keys update the set identically to
                # the per-row tuples (set semantics), without building a
                # tuple per row.
                self.certain_groups.update(factorize_keys(cin, self.group_by).keys)
            else:
                self.certain_groups.update(
                    cin.key_tuples(self.group_by) if self.group_by else [()]
                )

        volatile_bundle = None
        if len(vin):
            ctx.metrics.recomputed_tuples += len(vin)
            volatile_bundle = AggBundle.from_relation(
                vin, self.group_by, self.sketch_specs, ctx.num_trials
            )
        combined = self.sketch.merged_with(volatile_bundle)

        scale = ctx.scale if self.sample_weighted else 1.0
        cols = {
            spec.name: combined.finalize(s, scale)
            for s, spec in enumerate(self.sketch_specs)
        }
        if self.lazy_specs or self.holistic_specs:
            self._add_lazy_and_holistic(ctx, vin, scale, combined.keys, cols)
        self._publish(ctx, combined, cols)
        if rollup_on:
            self._migrate_quiescent(ctx)
        return DeltaBatch(self.empty(ctx), self.empty(ctx))

    # -- rollup tier (repro.rollup) ----------------------------------------------------

    def _batch_touched_keys(
        self, ctx: RuntimeContext, cin: Relation, vin: Relation
    ) -> list[GroupKey]:
        """Distinct group keys receiving any contribution this batch."""
        if not self.group_by:
            return [()] if (len(cin) or len(vin)) else []
        touched: dict[GroupKey, None] = {}
        for rel in (cin, vin):
            if not len(rel):
                continue
            if ctx.config.vectorize:
                touched.update(
                    dict.fromkeys(factorize_keys(rel, self.group_by).keys)
                )
            else:
                touched.update(dict.fromkeys(rel.key_tuples(self.group_by)))
        return list(touched)

    def _demote_and_touch(
        self, ctx: RuntimeContext, cin: Relation, vin: Relation
    ) -> None:
        """Fold touched (or, off the happy path, all) rollup groups back.

        Runs before the batch's fold so reinsertion assigns into fresh
        sketch rows the fold then accumulates onto. Touch-demotion is
        the tier's structural flip detector; the conservative branch
        (pruning valve tripped, or a recovery replay in flight) demotes
        everything — resolved decisions are exactly what is no longer
        trusted there.
        """
        rollup = self._rollup
        tracker = self._quiesce
        active = ctx.monitor.enabled and not ctx.monitor.replaying
        touched = self._batch_touched_keys(ctx, cin, vin)
        if len(rollup):
            demote = (
                [k for k in touched if k in rollup]
                if active
                else list(rollup.keys())
            )
            if demote:
                rows = rollup.demote(demote)
                self.sketch.reinsert_groups(rows)
                tracker.forget(rows)
                if ctx.obs.enabled:
                    ctx.obs.metrics.counter(
                        "rollup.demotions", op=self.label
                    ).inc(len(rows))
                self.state.put("rollup", rollup)
                self.state.put("sketch", self.sketch)
        if touched:
            tracker.touch(touched, ctx.batch_no)
            self.state.put("quiesce", tracker)

    def _migrate_quiescent(self, ctx: RuntimeContext) -> None:
        """Move quiescent resolved groups out of the hot path."""
        if not (ctx.monitor.enabled and not ctx.monitor.replaying):
            return
        sketch = self.sketch
        output = self._output
        candidates = [
            key
            for key in self._quiesce.candidates(
                list(sketch.key_to_gid), ctx.batch_no, ctx.config.rollup_quiesce
            )
            if output.gid(key) >= 0
        ]
        if not candidates:
            return
        rollup = self._rollup
        rows = sketch.extract_groups(candidates)
        # Later outputs hand these same row objects back (``adopt_rows``).
        groups = output.rows([output.gid(key) for key in rows])
        for (key, accum), group in zip(rows.items(), groups):
            rollup.migrate(key, group, accum, ctx.batch_no)
        self._quiesce.forget(candidates)
        if ctx.obs.enabled:
            ctx.obs.metrics.counter("rollup.migrations", op=self.label).inc(
                len(rows)
            )
        self.state.put("rollup", rollup)
        self.state.put("sketch", sketch)

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
        vectorize = ctx.config.vectorize
        kc = factorize_keys(rows, self.group_by) if vectorize else None
        row_keys = (
            None
            if vectorize
            else rows.key_tuples(self.group_by) if self.group_by else [()] * len(rows)
        )
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
            if vectorize:
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
            else:
                bundle.fold_values(
                    [k for k, good in zip(row_keys, ok) if good],
                    0,
                    side.point[ok],
                    side.trial_matrix(ctx.num_trials)[ok],
                    rows.mult[ok],
                    trial_w[ok],
                )
            place(spec.name, bundle.keys, *bundle.finalize(0, scale))
        for spec in self.holistic_specs:
            values_arr = spec.arg_values(rows)
            if vectorize:
                group_iter = zip(kc.keys, grouped_indices(kc.codes, kc.num_keys))
            else:
                by_group: dict[GroupKey, list[int]] = {}
                for i, key in enumerate(row_keys):
                    by_group.setdefault(key, []).append(i)
                group_iter = (
                    (key, np.asarray(idx, dtype=np.intp))
                    for key, idx in by_group.items()
                )
            spec_keys, points, trial_rows = [], [], []
            for key, ix in group_iter:
                point = spec.func.compute(values_arr[ix], rows.mult[ix]) * (
                    scale if spec.func.scales_with_m else 1.0
                )
                # Holistic functions (user UDAFs among them) do their own
                # arithmetic on the weights: hand them floats, never the
                # raw uint8 counts.
                group_w = np.asarray(trial_w[ix], dtype=np.float64)
                if vectorize:
                    trials = spec.func.trial_compute(values_arr[ix], group_w)
                else:
                    trials = np.empty(ctx.num_trials)
                    for j in range(ctx.num_trials):
                        trials[j] = spec.func.compute(values_arr[ix], group_w[:, j])
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
        rollup_on = ctx.config.rollup and self.rollup_eligible
        published = self._published_keys
        # Groups that vanished (all their volatile contributors currently
        # excluded) stay visible with empty existence, so downstream
        # lineage references keep resolving. Sorted so the tombstone order
        # (and hence the output's group iteration order) does not depend
        # on set hashing. Migrated groups are published, just not
        # recomputed — they are not tombstones.
        vanished = published - set(keys)
        if rollup_on:
            vanished -= set(self._rollup.entries)
        index = ctx.indexes[self.block_id]
        gids = index.add(keys)
        tomb_gids = index.add(sorted(vanished))
        published.update(keys)
        g = len(index)
        republished = np.concatenate([gids, tomb_gids])
        # Replaced only with the rollup tier on (else the empty initial
        # one): its arrays are this operator's buffers, rewritten at the
        # republished gids only — migrated groups ride along untouched.
        prev = self._output

        def scattered(fill, values: np.ndarray, carry: np.ndarray) -> np.ndarray:
            # values at gids; elsewhere carry, or (tombstones too) fill.
            kept = len(carry)
            out = _extended(carry, g, values)
            out[kept:] = fill
            if kept:
                out[tomb_gids] = fill
            out[gids] = values
            return out

        n = len(keys)
        certain_n = np.fromiter(map(self.certain_groups.__contains__, keys), bool, n)
        certain = scattered(False, certain_n, prev.certain)
        member_point = scattered(False, certain_n | exist_point, prev.member_point)
        exist_g = scattered(False, exist | certain_n[:, None], prev.exist)

        obs_on = ctx.obs.enabled
        width_hist = (
            ctx.obs.metrics.histogram("range.width", block=str(self.block_id))
            if obs_on
            else None
        )
        ucols: dict[str, UColumn] = {}
        for spec in self.specs:
            points, trials = cols[spec.name]
            if ctx.config.vectorize:
                # One (G, T) reduction per spec column, bit-identical to
                # the per-cell observe() loop of the reference.
                lo, hi = ctx.monitor.observe_batch(points, trials)
            else:
                ranges = [
                    ctx.monitor.observe(float(p), row)
                    for p, row in zip(points, trials)
                ]
                lo = np.array([r.lo for r in ranges], dtype=np.float64)
                hi = np.array([r.hi for r in ranges], dtype=np.float64)
            if width_hist is not None:
                for width in (hi - lo).tolist():
                    width_hist.observe(width)
            old = prev.ucol(spec.name)
            ucols[spec.name] = UColumn(
                scattered(np.nan, points, old.point),
                scattered(np.nan, trials, old.trials),
                scattered(-np.inf, lo, old.lo),
                scattered(np.inf, hi, old.hi),
            )

        output = BlockOutput(
            self.block_id, self.group_by, [s.name for s in self.specs], index
        )
        if not rollup_on:
            order = republished
        else:
            # Hot groups keep their first-published position (the
            # rollup-off publication order; the sketch's own order drifts
            # when a migrate/demote cycle compacts and re-extends it);
            # the unstable tail (volatile-only keys, tombstones) is
            # re-appended each batch — migrations or not, so no drift.
            stable = prev.order[: len(prev.order) - prev.num_tail]
            placed = np.zeros(g, dtype=bool)
            placed[stable] = True
            hot = np.fromiter(map(self.sketch.key_to_gid.__contains__, keys), bool, n)
            tail = np.concatenate([gids[~hot], tomb_gids])
            order = np.concatenate([stable, gids[hot & ~placed[gids]], tail])
            output.persistent, output.num_tail = True, len(tail)
        all_members = np.full(g, MEMBER_TRUE, dtype=np.int8)
        output.fill(order, certain, all_members, member_point, exist_g, ucols)
        ctx.metrics.nd_groups += n
        if rollup_on:
            rollup = self._rollup
            ctx.metrics.rollup_groups += len(rollup)
            # Migrated groups keep the row object the tier holds, so
            # identity-keyed row caches downstream keep hitting.
            output.adopt_rows(prev, republished)
            self.state.put("output", output)
            if obs_on:
                ctx.obs.metrics.gauge("rollup.groups", op=self.label).set(
                    len(rollup)
                )
                ctx.obs.metrics.gauge("rollup.nd_groups", op=self.label).set(n)
                if len(rollup):
                    ctx.obs.metrics.counter("rollup.hits", op=self.label).inc(
                        len(rollup)
                    )
        if obs_on:
            ctx.obs.metrics.gauge("block.groups", op=self.label).set(len(output))
        ctx.blocks[self.block_id] = output


def _extended(buf: np.ndarray, g: int, like: np.ndarray) -> np.ndarray:
    """``buf`` lengthened to ``g`` rows (of ``like``'s row shape), in place
    while the allocation behind it has room; it doubles when not."""
    base = buf.base if isinstance(buf.base, np.ndarray) else buf
    if len(base) < g or base.shape[1:] != like.shape[1:]:
        base = np.empty((max(g, 2 * len(base)),) + like.shape[1:], dtype=like.dtype)
        if len(buf):
            base[: len(buf)] = buf
    return base[:g]
