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
  bootstrap trials). The gid is the only per-row lineage: a stream row
  references a group by its gid, and every read of an uncertain cell is
  a gather by gid from these arrays;
* :class:`RuntimeContext` — everything an operator needs during one
  mini-batch: the batch number and scale factor, this batch's delta
  relations (with their Poisson trial multiplicities), the block registry
  the gids are resolved against, the range monitor, metrics, and the
  feature flags for the Figure 9(a) ablations.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.bootstrap.poisson import trial_multiplicities
from repro.core.ranges import RangeMonitor
from repro.errors import ReproError
from repro.metrics.stats import BatchMetrics
from repro.obs.session import NULL_OBS
from repro.relational.catalog import Catalog
from repro.relational.relation import LazyTrials, Relation

GroupKey = tuple


#: Membership status codes (aligned with repro.core.classify constants).
MEMBER_FALSE, MEMBER_TRUE, MEMBER_UNKNOWN = 0, 1, 2


class GroupIndex:
    """Append-only ``key -> gid`` map of one lineage block, for a whole run.

    Gids follow first publication and never change — recovery resets
    operator state, not this index — so a gid stored in a relation or
    sentinel stays valid across a replay. A pass-through view shares the
    index of the block it renames.
    """

    __slots__ = ("keys", "gid_of")

    def __init__(self) -> None:
        self.keys: list[GroupKey] = []
        self.gid_of: dict[GroupKey, int] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def add(self, keys: Sequence[GroupKey]) -> np.ndarray:
        """Gid per key, allocating the next gid for each unseen key."""
        gid_of = self.gid_of
        gids = list(map(gid_of.get, keys))
        if None in gids:
            for i, gid in enumerate(gids):
                if gid is None:
                    key = keys[i]  # may repeat among the misses
                    gids[i] = gid_of.setdefault(key, len(self.keys))
                    if gids[i] == len(self.keys):
                        self.keys.append(key)
        return np.array(gids, dtype=np.intp)


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
    publish — pass-through views share them. ``order`` lists
    the gids this batch published, in publication order (``present`` is
    its mask; other gids hold NaN / unbounded / empty filler).

    Per gid, ``certain`` says the group contains a tuple without tuple
    uncertainty, so its existence is settled (the AGGREGATE ``u#`` rule
    of Section 4.1); ``member_status`` is its range-classified membership
    for consumers that join against the block (plain aggregate blocks
    publish every group as a TRUE member; filtered views classify it:
    ``MEMBER_TRUE`` / ``MEMBER_FALSE`` are stable, ``MEMBER_UNKNOWN``
    groups expose their current decision ``member_point`` and per-trial
    ``exist (G, T)``). :meth:`ucol` is an uncertain value column,
    :meth:`det_values` a plain one.
    """

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
        """Value column ``name`` by gid: a :class:`UColumn` if uncertain,
        else plain; None if there is no such value column."""
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

    def probe(self, keys: Sequence[GroupKey]) -> np.ndarray:
        """Gid of each of ``keys`` if this batch published it, else ``-1``."""
        gid_of = self.index.gid_of
        gids = np.fromiter(
            (gid_of.get(k, -1) for k in keys), dtype=np.intp, count=len(keys)
        )
        gids[self.absent(gids)] = -1
        return gids

    def __len__(self) -> int:
        return len(self.order)

    def estimated_bytes(self) -> int:
        per_group = 32 + 8 * len(self.key_cols)
        per_group += (8 + 8 * self.exist.shape[1]) * len(self._ucols)
        return per_group * len(self.order)


def membership(
    view: BlockOutput | None, gids: np.ndarray, num_trials: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How rows joining ``view``'s groups ``gids`` count this batch:
    ``(point (n,), trials (n, T), settled (n,))``. A group stably in
    counts in every trial and is settled; one stably out, or unpublished
    (no ``view``, or a gid it did not publish), counts in none; an
    unresolved one by its current point and per-trial decisions."""
    n = len(gids)
    status = np.full(n, MEMBER_FALSE, dtype=np.int8)
    if view is not None:
        present = ~view.absent(gids)
        status[present] = view.join_status[gids[present]]
    settled = status == MEMBER_TRUE
    point = settled.copy()
    trials = np.repeat(settled[:, None], num_trials, axis=1)
    unknown = np.flatnonzero(status == MEMBER_UNKNOWN)
    if len(unknown):
        point[unknown] = view.member_point[gids[unknown]]
        trials[unknown] = view.exist[gids[unknown]]
    return point, trials, settled


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
    #: Deterministic fault-injection plan: a spec string like
    #: ``"sentinel@16,batch@18"`` (see :mod:`repro.faults`), an
    #: already-parsed ``FaultPlan``, or None (no faults — the production
    #: setting).
    faults: object = None
    #: The runtime debug mode
    #: (:class:`repro.analysis.sanitize.BufferSanitizer`): freeze every
    #: buffer handed to ``process`` and every zero-copy view base, track
    #: view provenance, check every write against the frozen set, and
    #: check each operator's state entries against its ``StateRule``
    #: after every ``process``. Off by default (zero cost when off).
    sanitize: bool = False
    #: Accepted for callers of :class:`repro.engine.shards.ShardedQueryEngine`
    #: and has no effect: every run executes in one process on the serial
    #: engine.
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
        self.metrics = BatchMetrics(0)
        self._delta: Relation | None = None
        #: True while replaying batches during failure recovery: range
        #: observations neither check integrity nor tighten ranges.
        self.replaying = False
        #: Runtime buffer sanitizer (``config.sanitize``), or None.
        #: Imported lazily so the analysis layer stays off the engine's
        #: import path unless requested.
        self.sanitizer = None
        if config.sanitize:
            from repro.analysis.sanitize import BufferSanitizer

            self.sanitizer = BufferSanitizer()
        #: Observability session (tracer + metrics registry + event bus).
        #: The inert NULL_OBS by default; the engine attaches a real one.
        self.obs = NULL_OBS
        #: Deterministic fault injector (``config.faults``), or None. The
        #: operators and the controller poke :meth:`fault` at their
        #: designated injection points; with no plan configured that is one
        #: attribute test per point.
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
        """Install an observability session (and wire the sanitizer's
        warning emitter into its trace timeline)."""
        self.obs = obs
        if self.sanitizer is not None and obs.enabled:
            self.sanitizer.emit = obs.tracer.warning

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
        self._delta = delta.with_mult(delta.mult, LazyTrials(ids, self))
        self.seen_rows += len(delta)
        metrics.new_tuples += len(delta)

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

    def reset_for_replay(self) -> None:
        """Rewind the batch cursor to the start of the run before a
        recovery replay.

        Published block outputs are dropped (the first replayed batch
        republishes every block: producers run before consumers within a
        batch); ``batch_no``/``seen_rows`` rewind to zero so ``ctx.scale``
        extrapolates correctly through the replayed batches.
        """
        self.blocks.clear()
        self.seen_rows = 0
        self.batch_no = 0
        self._delta = None
