"""The resolved-rollup tier: finalized group accumulators off the hot path.

A :class:`ResolvedRollupStore` lives as one named entry ("rollup") of its
aggregate operator's state store, so it rides the checkpoint/restore
machinery like any other between-batch state. Each entry pairs the
group's published row (:class:`~repro.core.blocks.GroupValue`,
materialised once at migration and handed back by every later block
output, whose arrays carry the group's values over unchanged) with the
extracted :class:`~repro.core.sketch.SketchRow` (the group's one
accumulator block) needed to fold the group back into the sketch on
demotion.

Invariants (DESIGN.md §15):

* A group key is in exactly one tier: the sketch (hot) or this store.
* Migration requires the group's pruning decision to be *resolved* and
  quiescent — no certain or volatile contribution for
  ``rollup_quiesce`` consecutive batches — so its finalized value is a
  fixed point of the per-batch recompute.
* Any touch (new contribution, recovery replay, pruning valve trip)
  demotes the group back to the sketch *before* the batch's fold, so
  the hot path never scatters into a missing row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from repro.core.blocks import GroupKey, GroupValue
    from repro.core.sketch import SketchRow
else:
    GroupKey = tuple


@dataclass
class RollupEntry:
    """One migrated group: its published value + its extracted sums."""

    group: "GroupValue"
    accum: "SketchRow"
    migrated_at: int


def _group_nbytes(group: "GroupValue") -> int:
    """Per-group published-value footprint (the block-output convention)."""
    per_group = 32
    for v in group.values.values():
        per_group += 8
        trials = getattr(v, "trials", None)
        if trials is not None:
            per_group += 8 * len(trials)
    return per_group


class ResolvedRollupStore:
    """Tier 1: finalized accumulators of resolved, quiescent groups."""

    #: ``estimate_nbytes`` threads its seen-set through
    #: :meth:`estimated_bytes`: the ``GroupValue`` objects here are shared
    #: by reference with the block-output entry of the same store, and
    #: must count once per store, not once per tier.
    nbytes_seen_aware = True

    def __init__(self) -> None:
        self.entries: dict[GroupKey, RollupEntry] = {}
        #: Lifetime migration/demotion counts (survive checkpoint rides;
        #: the obs layer samples them into the rollup.* series).
        self.migrations = 0
        self.demotions = 0
        #: Running footprint totals, maintained on migrate/demote so the
        #: per-batch accounting reads them in O(1) instead of re-walking
        #: every entry. Safe because entries are immutable while migrated
        #: (publishes replace GroupValues, demotion *copies* sums out).
        self._accum_bytes = 0
        self._group_bytes = 0
        self._group_ids: set[int] = set()

    def __deepcopy__(self, memo: dict) -> "ResolvedRollupStore":
        """Checkpoint copy: fresh dicts, shared immutable leaves.

        ``GroupValue`` and ``SketchRow`` objects are never mutated after
        migration (publishes replace, demotion *copies* the sums back
        into the sketch arrays), so a snapshot only needs its own entry
        dict — sharing keeps checkpoints O(entries) pointer copies.
        """
        clone = ResolvedRollupStore()
        memo[id(self)] = clone
        clone.entries = {
            key: RollupEntry(e.group, e.accum, e.migrated_at)
            for key, e in self.entries.items()
        }
        clone.migrations = self.migrations
        clone.demotions = self.demotions
        clone._accum_bytes = self._accum_bytes
        clone._group_bytes = self._group_bytes
        clone._group_ids = set(self._group_ids)
        return clone

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: GroupKey) -> bool:
        return key in self.entries

    def keys(self) -> Iterator[GroupKey]:
        return iter(self.entries)

    def migrate(
        self,
        key: GroupKey,
        group: "GroupValue",
        accum: "SketchRow",
        batch_no: int,
    ) -> None:
        assert key not in self.entries, f"group {key!r} already migrated"
        self.entries[key] = RollupEntry(group, accum, batch_no)
        self.migrations += 1
        self._accum_bytes += 48 + accum.estimated_bytes()
        self._group_bytes += _group_nbytes(group)
        self._group_ids.add(id(group))

    def demote(self, keys: Iterable[GroupKey]) -> dict[GroupKey, "SketchRow"]:
        """Pop ``keys``, returning their sum rows for sketch reinsertion."""
        rows: dict[GroupKey, SketchRow] = {}
        for key in keys:
            entry = self.entries.pop(key, None)
            if entry is not None:
                rows[key] = entry.accum
                self.demotions += 1
                self._accum_bytes -= 48 + entry.accum.estimated_bytes()
                self._group_bytes -= _group_nbytes(entry.group)
                self._group_ids.discard(id(entry.group))
        return rows

    def demote_all(self) -> dict[GroupKey, "SketchRow"]:
        return self.demote(list(self.entries))

    def estimated_bytes(self, seen: set[int] | None = None) -> int:
        """Footprint in bytes; ``seen`` dedups ``GroupValue`` objects
        shared with the block-output entry of the same store.

        The fast path serves the running totals: entries are immutable
        while migrated, so the sums maintained by migrate/demote are the
        exact walk result. The walk survives only for the (engine-unused)
        case where an earlier entry already measured one of our groups.
        """
        if seen is None:
            return self._accum_bytes + self._group_bytes
        if seen.isdisjoint(self._group_ids):
            seen |= self._group_ids
            return self._accum_bytes + self._group_bytes
        nbytes = 0
        for entry in self.entries.values():
            nbytes += 48 + entry.accum.estimated_bytes()
            group = entry.group
            if id(group) in seen:
                continue
            seen.add(id(group))
            nbytes += _group_nbytes(group)
        return nbytes


def demote_restored_rollups(registry: object) -> int:
    """Invalidate every rollup entry after a checkpoint restore.

    Recovery replay past a migration point must not trust migrated
    values: the replayed batches are refolded conservatively, and any
    group could be touched by them. This sweep walks the restored
    registry, folds every rollup entry's sums back into its operator's
    sketch, and clears the quiescence clocks of the demoted keys so they
    must re-quiesce before migrating again. Returns the demoted count.

    Called from :meth:`repro.state.checkpoints.CheckpointManager.restore`
    (and the baseline branch of the controller's ``_replay``), keeping
    the invalidation in the restore path itself rather than trusting
    every operator to notice it is replaying.
    """
    demoted = 0
    namespaces = getattr(registry, "namespaces", None)
    if namespaces is None:
        return 0
    for namespace in list(namespaces()):
        store = registry.get(namespace)  # type: ignore[attr-defined]
        if store is None:
            continue
        rollup = store.get("rollup")
        if not isinstance(rollup, ResolvedRollupStore) or not len(rollup):
            continue
        sketch = store.get("sketch")
        if sketch is None:
            continue
        rows = rollup.demote_all()
        sketch.reinsert_groups(rows)
        tracker = store.get("quiesce")
        if tracker is not None:
            tracker.forget(rows)
        # The demotion mutated entries in place; bump the store's write
        # clock so the byte-accounting memo re-measures.
        store.put("rollup", rollup)
        store.put("sketch", sketch)
        demoted += len(rows)
    return demoted
