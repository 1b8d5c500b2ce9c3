"""Lineage blocks, block outputs, and the per-batch runtime context.

Section 6.1 divides a query plan into maximal SPJA *lineage blocks*, each
ending at an AGGREGATE. iOLAP propagates fine-grained lineage within a
block and only ``(relation, group key)`` references across block
boundaries. This module holds the runtime datastructures that make that
work:

* :class:`BlockOutput` — the published output of an aggregate block, in
  columnar form: a stable group id per key (:class:`GroupIndex`) and, per
  gid, the uncertain aggregate values (point estimate + bootstrap trials +
  variation range) and the group's own existence uncertainty (a group
  backed only by non-deterministic tuples may still disappear from some
  bootstrap trials); :class:`GroupValue` is the row form of one group;
* :class:`RuntimeContext` — everything an operator needs during one
  mini-batch: the batch number and scale factor, this batch's delta
  relations (with their Poisson trial multiplicities), the block registry
  for lazy lineage resolution, the range monitor, metrics, and the
  feature flags for the Figure 9(a) ablations.
"""

from __future__ import annotations

import copy
import threading
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.bootstrap.poisson import trial_multiplicities
from repro.core.ranges import RangeMonitor
from repro.core.values import LineageRef, UncertainValue, VariationRange
from repro.errors import ReproError
from repro.metrics.stats import BatchMetrics
from repro.obs.session import NULL_OBS
from repro.relational.catalog import Catalog
from repro.relational.relation import LazyTrials, Relation
from repro.state import StateRegistry

GroupKey = tuple


#: Membership status codes (aligned with repro.core.classify constants).
MEMBER_FALSE, MEMBER_TRUE, MEMBER_UNKNOWN = 0, 1, 2


@dataclass
class GroupValue:
    """One group's published state in a block output.

    Besides the aggregate values, a group carries its *membership* state
    for consumers that join against the block: plain aggregate blocks
    publish every group as a member, while filtered views (HAVING /
    IN-subquery sides) classify membership against variation ranges —
    ``MEMBER_TRUE``/``MEMBER_FALSE`` are stable decisions, and
    ``MEMBER_UNKNOWN`` groups expose their current point decision and the
    per-bootstrap-trial decisions.
    """

    key: GroupKey
    #: column name -> UncertainValue (aggregates) or scalar (group keys).
    values: dict[str, object]
    #: The group contains at least one tuple without tuple uncertainty, so
    #: its existence is settled (the AGGREGATE ``u#`` rule of Section 4.1).
    certain: bool
    #: Range-classified membership: MEMBER_TRUE / MEMBER_FALSE / MEMBER_UNKNOWN.
    member_status: int = MEMBER_TRUE
    #: Current point decision of the membership predicate.
    member_point: bool = True
    #: Per-bootstrap-trial existence/membership (None = all trials).
    exist_trials: np.ndarray | None = None

    def exist_in_trial(self, num_trials: int) -> np.ndarray:
        if self.exist_trials is None:
            return np.ones(num_trials, dtype=bool)
        return self.exist_trials

    @property
    def certainly_in(self) -> bool:
        return self.certain and self.member_status == MEMBER_TRUE

    @property
    def certainly_out(self) -> bool:
        return self.member_status == MEMBER_FALSE


class GroupIndex:
    """Append-only ``key -> gid`` map of one lineage block, for a whole run.

    Gids follow first publication and never change — recovery rewinds
    operator state, not this index — so a gid stored in a sidecar, sentinel
    or checkpoint stays valid whatever is restored around it. A
    pass-through view shares the index of the block it renames, hence ref
    pools per ``(block, column)``.
    """

    __slots__ = ("keys", "gid_of", "_refs")

    def __init__(self) -> None:
        self.keys: list[GroupKey] = []
        self.gid_of: dict[GroupKey, int] = {}
        self._refs: dict[tuple[int, str], np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def __deepcopy__(self, memo: dict) -> "GroupIndex":
        return self  # run-long by design: snapshots share it

    def add(self, keys: Sequence[GroupKey]) -> np.ndarray:
        """Gid per key, allocating the next gid for each unseen key."""
        gid_of = self.gid_of
        out = np.empty(len(keys), dtype=np.intp)
        for i, key in enumerate(keys):
            gid = gid_of.get(key)
            if gid is None:
                gid = gid_of[key] = len(self.keys)
                self.keys.append(key)
            out[i] = gid
        return out

    def refs(self, block_id: int, column: str) -> np.ndarray:
        """Object array ``gid -> LineageRef(block_id, key, column)``: one
        shared ref per group (refs compare by value), grown with the index."""
        pool = self._refs.get((block_id, column))
        have = 0 if pool is None else len(pool)
        if have < len(self.keys):
            grown = np.empty(len(self.keys), dtype=object)
            grown[:have] = pool[:have] if have else ()
            for gid in range(have, len(grown)):
                grown[gid] = LineageRef(block_id, self.keys[gid], column)
            pool = self._refs[(block_id, column)] = grown
        return pool


class UColumn(NamedTuple):
    """One uncertain value column of a block output, indexed by gid."""

    point: np.ndarray  # (G,)
    trials: np.ndarray  # (G, T)
    lo: np.ndarray  # (G,) variation-range bounds
    hi: np.ndarray


class BlockOutput:
    """The (small) current output relation of a lineage block, columnar.

    Arrays are indexed by gid (:class:`GroupIndex`), sized to the index at
    publish time, replaced whole each batch and never written after
    publish — snapshots and pass-through views share them. ``order`` lists
    the gids this batch published, in publication order (``present`` is
    its mask; other gids hold NaN / unbounded / empty filler); ``certain``
    / ``member_status`` / ``member_point`` / ``exist (G, T)`` are the
    :class:`GroupValue` membership fields; :meth:`ucol` is an uncertain
    value column, :meth:`det_values` a plain one. :class:`GroupValue` rows
    are a cache over the arrays (:meth:`get`, :meth:`rows`,
    :attr:`groups`), the one thing written after publish: two threads
    materialising one group build equal rows and the later one stays.

    Exception: the ``persistent`` output of a rollup-on aggregate is that
    operator's state — the next publish extends its arrays and rewrites
    the republished gids in place, and a snapshot copies them.
    """

    #: ``estimate_nbytes`` threads its seen-set through ``estimated_bytes``
    #: so groups shared with a rollup store are not double-counted.
    nbytes_seen_aware = True

    def __init__(
        self,
        block_id: int,
        key_cols: list[str],
        value_cols: list[str],
        index: GroupIndex | None = None,
        num_trials: int = 0,
    ):
        self.block_id = block_id
        self.key_cols = key_cols
        self.value_cols = value_cols
        self.index = index if index is not None else GroupIndex()
        #: Rollup-on aggregate output; ``num_tail`` trailing entries of
        #: ``order`` lie outside its stable prefix.
        self.persistent = False
        self.num_tail = 0
        self._rows: dict[int, GroupValue] = {}
        self._dets: dict[str, np.ndarray] = {}
        self._join_status: np.ndarray | None = None
        none = np.zeros(0, dtype=bool)
        nan = np.zeros(0)
        self.fill(
            none.astype(np.intp), none, none.astype(np.int8), none,
            np.zeros((0, num_trials), dtype=bool),
            {
                name: UColumn(nan, np.zeros((0, num_trials)), nan, nan)
                for name in value_cols
                if name not in key_cols
            },
        )

    # -- construction ---------------------------------------------------------------

    def fill(
        self,
        order: np.ndarray,
        certain: np.ndarray,
        member_status: np.ndarray,
        member_point: np.ndarray,
        exist: np.ndarray,
        ucols: dict[str, UColumn],
    ) -> None:
        """Install this batch's arrays (the one write an output gets)."""
        self.order = order
        self.present = np.zeros(len(certain), dtype=bool)
        self.present[order] = True
        self.certain = certain
        self.member_status = member_status
        self.member_point = member_point
        self.exist = exist
        self._ucols = ucols

    @classmethod
    def published(
        cls, block_id: int, key_cols: list[str], value_cols: list[str], index: GroupIndex,
        gids: np.ndarray, certain: np.ndarray, member_status: np.ndarray,
        member_point: np.ndarray, exist: np.ndarray | None,
        columns: dict[str, "UColumn | np.ndarray"], num_trials: int,
    ) -> "BlockOutput":
        """Output publishing ``n`` rows at ``gids`` (distinct, in
        publication order): per row the membership fields, ``exist (n, T)``
        (None = every trial) and, per value column, a :class:`UColumn` or
        plain array of ``n`` rows. Other gids hold filler; a column no row
        carries reads as filler either way."""
        out = cls(block_id, key_cols, value_cols, index, num_trials)
        g = len(out.index)

        def scatter(fill, values: np.ndarray) -> np.ndarray:
            buf = np.full((g,) + values.shape[1:], fill, dtype=values.dtype)
            buf[gids] = values
            return buf

        ucols: dict[str, UColumn] = {}
        for name in value_cols:
            col = columns.get(name)
            if name in key_cols:
                continue
            if col is None:
                out._dets[name], col = np.zeros(g), out._ucols[name]
            if isinstance(col, np.ndarray):
                out._dets[name] = scatter(0, col)
            else:
                fills = (np.nan, np.nan, -np.inf, np.inf)
                ucols[name] = UColumn(*map(scatter, fills, col))
        exist_g = np.zeros((g, num_trials), dtype=bool)
        exist_g[gids] = True if exist is None else exist
        out.fill(
            gids, scatter(False, certain), scatter(0, member_status),
            scatter(False, member_point), exist_g, ucols,
        )
        return out

    def relabel(
        self, block_id: int, key_cols: list[str], value_cols: list[str],
        source: dict[str, str],
    ) -> "BlockOutput":
        """Pass-through view under new names, sharing the index and every
        array: ``key_cols`` rename ``self.key_cols`` one for one, ``source``
        maps each other view column to the column it renames. As for any
        small-plan leaf, an unsettled group is an UNKNOWN member."""
        view = BlockOutput(block_id, key_cols, value_cols, self.index)
        view.fill(
            self.order,
            self.certain,
            np.where(self.certain, MEMBER_TRUE, MEMBER_UNKNOWN).astype(np.int8),
            self.member_point,
            self.exist,
            {c: self._ucols[s] for c, s in source.items() if s in self._ucols},
        )
        view._dets = {c: self._dets[s] for c, s in source.items() if s in self._dets}
        return view

    def adopt_rows(self, prev: "BlockOutput", republished: np.ndarray) -> None:
        """Take over the rows of ``prev`` (the output being replaced) except
        the republished groups': the rollup tier's keep one row identity."""
        self._rows, prev._rows = prev._rows, {}
        for gid in republished.tolist():
            self._rows.pop(gid, None)

    # -- array reads ----------------------------------------------------------------

    def ucol(self, name: str) -> UColumn:
        """Uncertain value column ``name`` by gid."""
        return self._ucols[name]

    def det_values(self, name: str, dtype: np.dtype | None) -> np.ndarray:
        """``(G,)`` values of the key or plain value column ``name``."""
        if name in self.key_cols:
            at = self.key_cols.index(name)
            keys = self.index.keys[: len(self.present)]
            return np.array([key[at] for key in keys], dtype=dtype)
        return self._dets[name].astype(dtype, copy=False)

    def column(self, name: str) -> "UColumn | np.ndarray | None":
        """Column ``name`` by gid: a :class:`UColumn` if uncertain, else
        plain (keys' dtype inferred); None if there is no such column."""
        if name in self.key_cols:
            return self.det_values(name, None)
        return self._ucols.get(name, self._dets.get(name))

    @property
    def join_status(self) -> np.ndarray:
        """Per gid, how a joining stream row classifies: stably in
        (``certain`` and a TRUE member), stably out, or unresolved."""
        if self._join_status is None:
            self._join_status = np.where(
                self.certain | (self.member_status != MEMBER_TRUE),
                self.member_status,
                np.int8(MEMBER_UNKNOWN),
            )
        return self._join_status

    def absent(self, gids: np.ndarray) -> np.ndarray:
        """Mask of ``gids`` this batch did not publish (``-1`` and gids the
        index handed out after this publish included)."""
        out = (gids < 0) | (gids >= len(self.present))
        out[~out] = ~self.present[gids[~out]]
        return out

    def gid(self, key: GroupKey) -> int:
        """Gid of ``key`` if this batch published it, else ``-1``."""
        gid = self.index.gid_of.get(key, -1)
        return gid if 0 <= gid < len(self.present) and self.present[gid] else -1

    def probe(self, keys: Sequence[GroupKey]) -> np.ndarray:
        """:meth:`gid` for many keys."""
        gid_of = self.index.gid_of
        gids = np.fromiter(
            (gid_of.get(k, -1) for k in keys), dtype=np.intp, count=len(keys)
        )
        gids[self.absent(gids)] = -1
        return gids

    # -- row view -------------------------------------------------------------------

    @property
    def groups(self) -> dict[GroupKey, GroupValue]:
        """The whole output as rows, in publication order."""
        return {group.key: group for group in self.rows(self.order.tolist())}

    def get(self, key: GroupKey) -> GroupValue | None:
        gid = self.gid(key)
        return None if gid < 0 else self.rows([gid])[0]

    def rows(self, gids: list[int]) -> list[GroupValue]:
        """Row form of the published groups ``gids``, materialised on
        first use and cached for the life of this output."""
        cache = self._rows
        missing = sorted(set(gids).difference(cache))
        if missing:
            at = np.asarray(missing, dtype=np.intp)
            keys = self.index.keys
            certain = self.certain[at].tolist()
            status = self.member_status[at].tolist()
            point = self.member_point[at].tolist()
            # Gathers copy: a row owns its trial vectors.
            exist = self.exist[at]
            cols = [
                (name, col.point[at].tolist(), col.trials[at], col.lo[at].tolist(),
                 col.hi[at].tolist(), self.index.refs(self.block_id, name))
                for name, col in self._ucols.items()
            ]
            dets = [(name, det[at].tolist()) for name, det in self._dets.items()]
            for i, gid in enumerate(missing):
                key = keys[gid]
                values: dict[str, object] = dict(zip(self.key_cols, key))
                for name, plain in dets:
                    values[name] = plain[i]
                for name, points, trials, lo, hi, refs in cols:
                    values[name] = UncertainValue(
                        points[i], trials[i], VariationRange(lo[i], hi[i]), refs[gid]
                    )
                cache[gid] = GroupValue(
                    key, values, certain[i], status[i], point[i],
                    None if certain[i] else exist[i],
                )
        return [cache[gid] for gid in gids]

    def __len__(self) -> int:
        return len(self.order)

    def __deepcopy__(self, memo: dict) -> "BlockOutput":
        """Checkpoint copy: owns its row cache and shares every array,
        unless they are a persistent output's (written in place)."""
        clone = copy.copy(self)
        memo[id(self)] = clone
        clone._rows = dict(self._rows)
        if self.persistent:
            for name in ("certain", "member_point", "exist"):
                setattr(clone, name, getattr(self, name).copy())
            clone._ucols = {
                name: UColumn(*map(np.copy, col)) for name, col in self._ucols.items()
            }
        return clone

    def estimated_bytes(self, seen: set[int] | None = None) -> int:
        n = len(self.order)
        per_group = 32 + 8 * len(self.key_cols)
        per_group += (8 + 8 * self.exist.shape[1]) * len(self._ucols)
        if seen is not None:
            # Only a materialised row can also be held by another entry
            # (the rollup tier); it counts under whichever sizes first.
            for group in self._rows.values():
                if id(group) in seen:
                    n -= 1
                else:
                    seen.add(id(group))
        return per_group * n


@dataclass
class OnlineConfig:
    """Tunable knobs of an online execution (paper Sections 5, 7, 8.4)."""

    #: Bootstrap trials used for error estimation / variation ranges.
    num_trials: int = 100
    #: Slack parameter ε of the variation-range estimator.
    slack: float = 2.0
    #: OPT1 — tuple-uncertainty partitioning via variation ranges. Off =
    #: the conservative Section 4 algorithm (everything touched by an
    #: uncertain predicate stays non-deterministic forever).
    prune_with_ranges: bool = True
    #: OPT2 — lineage propagation + lazy evaluation. Off = regenerate
    #: non-deterministic tuples from their source rows through the full
    #: upstream operator chain every batch.
    lazy_lineage: bool = True
    #: RNG seed for partitioning and bootstrap draws.
    seed: int = 0
    #: Use the vectorized hot-path kernels (``repro.kernels``). Off = the
    #: row-wise reference implementations; results are bit-identical
    #: either way (enforced by tests), so this is a perf escape hatch and
    #: an A/B lever for the kernel benchmarks, not a semantics switch.
    vectorize: bool = True
    #: Contract-check mode: cross-check the static analyzer's claims at
    #: runtime (input fingerprints around each ``process`` call, state-key
    #: snapshots per batch, cross-thread store-write detection). Purely
    #: observational — results are bit-identical to a non-verify run.
    verify: bool = False
    #: Take a state checkpoint every N batches (Section 5.1 recovery):
    #: failure recovery restores the newest checkpoint at or before the
    #: failure's ``recover_from_batch`` and replays only the suffix. 0
    #: disables periodic checkpoints (recovery replays from the pristine
    #: pre-run snapshot, the pre-checkpoint behavior).
    checkpoint_interval: int = 8
    #: Ring-buffer capacity: at most this many checkpoints are retained
    #: (oldest evicted first; the pristine baseline is kept separately).
    checkpoint_keep: int = 4
    #: Byte budget across retained checkpoints (``estimate_nbytes`` of
    #: each snapshot); oldest checkpoints are evicted to stay under it.
    checkpoint_budget_bytes: int = 256 * 1024 * 1024
    #: Deterministic fault-injection plan: a spec string like
    #: ``"sentinel@16,unit@5:aggregate*2,checkpoint@12"`` (see
    #: :mod:`repro.faults`), an already-parsed ``FaultPlan``, or None
    #: (no faults — the production setting).
    faults: object = None
    #: Executor retries per unit for transient failures (errors carrying
    #: ``transient = True``, e.g. injected unit faults); anything else
    #: propagates immediately.
    unit_retry_attempts: int = 2
    #: Run the TSan-style buffer sanitizer
    #: (:class:`repro.analysis.sanitize.BufferSanitizer`): freeze every
    #: buffer handed to ``process`` and every zero-copy view base, track
    #: view provenance, and cross-check per-batch access logs between
    #: ParallelExecutor threads. Off by default (zero cost when off).
    sanitize: bool = False
    #: Continuous profiling (:mod:`repro.obs.profile`): fold every batch
    #: into a rolling per-operator EWMA profile and fit the predictive
    #: cost model from it. Purely observational — results are
    #: bit-identical to an unprofiled run (enforced by tests); zero cost
    #: when off (one ``is None`` test per batch).
    profile: bool = False
    #: Path of the ``profiles.json`` artifact: loaded (if present) at
    #: run start so predictions warm-start from prior runs of the same
    #: plan shape, saved at run end. None keeps profiles in memory only.
    profile_path: str | None = None
    #: Also run the sampling stack profiler (daemon thread reading
    #: ``sys._current_frames()`` of the controller thread); implies the
    #: same bit-identical guarantee — it only reads frames.
    profile_stack: bool = False
    #: Batches of samples the cost model needs before it starts issuing
    #: predictions (calibration counts only scored predictions).
    profile_warmup_batches: int = 5
    #: Accuracy target (worst relative stdev) the telemetry layer
    #: reports distance-to-convergence against (the
    #: ``costmodel.batches_to_target`` gauge and ``iolap top``'s ETA);
    #: None disables the gauge. Does not stop the run — early stopping
    #: stays the caller's decision, as in the paper's interaction model.
    target_rsd: float | None = None
    #: Two-tier aggregation (:mod:`repro.rollup`): migrate groups whose
    #: pruning decisions the sentinel layer has resolved out of the
    #: per-batch hot loop into a finalized rollup tier, so batch cost
    #: scales with the live ND set instead of the total group count.
    #: Results are bit-identical to a rollup-off run (enforced by tests).
    rollup: bool = False
    #: Consecutive batches a resolved group must go untouched (no new
    #: certain or ND contribution) before it migrates to the rollup tier.
    #: Higher = more conservative (fewer demotions on late arrivals).
    rollup_quiesce: int = 2
    #: Process-level scale-out (:mod:`repro.engine.shards`): hash-partition
    #: the streamed table across this many worker processes, each running
    #: the full delta algorithm over its shard with shared-nothing state,
    #: merging per-batch results deterministically at the sink. 0/1 = off
    #: (single-process execution). Plans without a fact-column group key
    #: fall back to single-process execution automatically.
    shards: int = 0


class RuntimeContext:
    """Mutable per-execution state threaded through all online operators."""

    def __init__(
        self,
        statics: Catalog,
        streamed_table: str,
        total_rows: int,
        config: OnlineConfig,
    ):
        self.statics = statics
        self.streamed_table = streamed_table
        self.total_rows = total_rows
        self.config = config
        self.monitor = RangeMonitor(slack=config.slack, enabled=config.prune_with_ranges)
        self.blocks: dict[int, BlockOutput] = {}
        #: One :class:`GroupIndex` per publishing block, for the whole
        #: run — deliberately not cleared by :meth:`reset_for_replay`.
        self.indexes: dict[int, GroupIndex] = defaultdict(GroupIndex)
        self.batch_no = 0
        self.seen_rows = 0
        #: Operator state stores, registered by ``SpineOp.open``; the
        #: engine checkpoints/restores through this registry.
        self.stores = StateRegistry()
        self._metrics: BatchMetrics = BatchMetrics(0)
        #: Per-thread metrics override (parallel executor workers record
        #: into private scratch metrics merged deterministically later).
        self._metrics_local = threading.local()
        self._delta: Relation | None = None
        #: True while replaying batches during failure recovery: range
        #: observations neither check integrity nor tighten ranges.
        self.replaying = False
        #: Runtime contract verifier (``--verify`` mode), or None. Imported
        #: lazily: repro.analysis must stay optional on the hot path.
        self.verifier = None
        if config.verify:
            from repro.analysis.verify import ContractVerifier

            self.verifier = ContractVerifier()
        #: Runtime buffer sanitizer (``config.sanitize``), or None. Like
        #: the verifier, imported lazily so the analysis layer stays off
        #: the engine's import path unless requested.
        self.sanitizer = None
        if config.sanitize:
            from repro.analysis.sanitize import BufferSanitizer

            self.sanitizer = BufferSanitizer()
        #: Observability session (tracer + metrics registry + event bus).
        #: The inert NULL_OBS by default; the engine attaches a real one.
        self.obs = NULL_OBS
        #: Deterministic fault injector (``config.faults``), or None. The
        #: operators and executors poke :meth:`fault` at their designated
        #: injection points; with no plan configured that is one attribute
        #: test per point.
        self.faults = None
        if config.faults:
            from repro.faults import FaultInjector, as_plan

            self.faults = FaultInjector(as_plan(config.faults))

    def fault(self, point: str, label: str | None = None) -> None:
        """Fault-injection hook: raises if an armed fault matches
        ``point`` at the current batch (no-op without a fault plan)."""
        if self.faults is not None:
            self.faults.fire(point, self, label=label)

    def attach_obs(self, obs) -> None:
        """Install an observability session (and wire the verifier's
        warning emitter into its trace timeline)."""
        self.obs = obs
        if self.verifier is not None and obs.enabled:
            self.verifier.emit = obs.tracer.warning
        if self.sanitizer is not None and obs.enabled:
            self.sanitizer.emit = obs.tracer.warning

    # -- metrics routing -----------------------------------------------------------

    @property
    def metrics(self) -> BatchMetrics:
        override = getattr(self._metrics_local, "stack", None)
        if override:
            return override[-1]
        return self._metrics

    @metrics.setter
    def metrics(self, value: BatchMetrics) -> None:
        self._metrics = value

    def push_metrics(self, metrics: BatchMetrics) -> None:
        """Route this thread's metric writes to ``metrics`` until popped."""
        stack = getattr(self._metrics_local, "stack", None)
        if stack is None:
            stack = self._metrics_local.stack = []
        stack.append(metrics)

    def pop_metrics(self) -> BatchMetrics:
        return self._metrics_local.stack.pop()

    # -- per-batch lifecycle -------------------------------------------------------

    def begin_batch(
        self, batch_no: int, delta: Relation, metrics: BatchMetrics
    ) -> None:
        """Install this batch's streamed delta, its bootstrap trials named
        by global row id (the partitioner's; arrival order for a delta
        built by hand) and drawn where something first reads them."""
        self.batch_no = batch_no
        self.metrics = metrics
        lazy = delta._trials
        ids = (
            lazy.ids
            if isinstance(lazy, LazyTrials)
            else self.seen_rows + np.arange(len(delta))
        )
        self._delta = self._owned(delta.with_mult(delta.mult, LazyTrials(ids, self)))
        self.seen_rows += len(delta)
        metrics.new_tuples += len(self._delta)

    def _owned(self, delta: Relation) -> Relation:
        """The rows of ``delta`` this context processes (all of them;
        a shard worker keeps its shard's)."""
        return delta

    def draw_trials(self, row_ids: np.ndarray) -> np.ndarray:
        """The (len(row_ids), T) ``uint8`` Poisson(1) counts of those rows."""
        # The disabled tracer hands back a shared no-op span.
        with self.obs.tracer.span(
            "bootstrap", cat="bootstrap", batch=self.batch_no,
            rows=len(row_ids), trials=self.config.num_trials,
        ):
            drawn = trial_multiplicities(
                len(row_ids),
                self.config.num_trials,
                self.config.seed,
                self.streamed_table,
                row_ids,
            )
        if self.sanitizer is not None:
            self.sanitizer.own_drawn(drawn)
        return drawn

    @property
    def delta(self) -> Relation:
        if self._delta is None:
            raise ReproError("no delta installed; call begin_batch first")
        return self._delta

    @property
    def scale(self) -> float:
        """The extrapolation factor ``m_i = |D| / |D_i|``."""
        if self.seen_rows == 0:
            return 1.0
        return self.total_rows / self.seen_rows

    @property
    def num_trials(self) -> int:
        return self.config.num_trials

    # -- lineage resolution (Section 6.2's broadcast-join lookup) -------------------

    def block(self, block_id: int) -> BlockOutput:
        try:
            return self.blocks[block_id]
        except KeyError:
            raise ReproError(f"block {block_id} has not published output yet") from None

    def resolve(self, ref: LineageRef) -> object | None:
        """Current value of a lineage reference (None if group unseen)."""
        output = self.blocks.get(ref.block_id)
        if output is None:
            return None
        group = output.get(ref.key)
        if group is None:
            return None
        return group.values.get(ref.column)

    def reset_for_replay(self, batch_no: int = 0, seen_rows: int = 0) -> None:
        """Rewind the batch cursor before a recovery replay.

        Published block outputs are dropped (the first replayed batch
        republishes every block: producers run before consumers within a
        batch); ``batch_no``/``seen_rows`` rewind to the restored
        checkpoint's position so ``ctx.scale`` extrapolates correctly
        through the replayed suffix.
        """
        self.blocks.clear()
        self.seen_rows = seen_rows
        self.batch_no = batch_no
        self._delta = None
