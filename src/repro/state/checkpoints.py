"""Periodic state checkpoints for bounded-cost failure recovery.

Recovery (Section 5.1) rebuilds operator state by replaying processed
batches conservatively. Without intermediate snapshots that replay starts
from the pristine pre-run state, so its cost grows linearly with how deep
into the run the failure lands. The :class:`CheckpointManager` keeps a
ring buffer of :class:`~repro.state.StateRegistry` snapshots taken every
``OnlineConfig.checkpoint_interval`` batches; on a failure whose
``recover_from_batch`` is ``r``, the controller restores the newest valid
checkpoint at batch ``<= r`` and replays only the suffix. Theorem 1 is
preserved because the replayed suffix still runs with unbounded ranges
(no pruning), exactly as a full replay would.

Retention is doubly bounded: at most ``keep`` checkpoints, and at most
``budget_bytes`` across them (sized with
:func:`~repro.state.estimate_nbytes`, the same accounting the metrics
layer uses) — the oldest checkpoints are evicted first. The deep-copy
cost per checkpoint is amortized the same way the pristine baseline's is:
``static`` store entries (broadcast sides, derived indexes) are
snapshotted by reference.

A checkpoint is *validated* before it is restored (a corrupt snapshot
must not be half-applied across the registry); invalid checkpoints are
skipped, falling back to the next-older one — the behavior the
``checkpoint@N`` fault exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.state.registry import StateRegistry
from repro.state.store import estimate_nbytes


@dataclass
class Checkpoint:
    """One registry snapshot plus the batch cursor it belongs to."""

    batch_no: int
    #: ``ctx.seen_rows`` after the checkpointed batch — restored alongside
    #: the stores so the scale factor ``m_i`` rewinds consistently.
    seen_rows: int
    snapshot: dict[str, object]
    nbytes: int = 0
    #: Set by fault injection; a corrupted checkpoint fails validation.
    corrupted: bool = field(default=False, repr=False)


class CheckpointManager:
    """Ring buffer of periodic state checkpoints, byte-budgeted."""

    def __init__(
        self,
        interval: int,
        keep: int = 4,
        budget_bytes: int = 256 * 1024 * 1024,
        namespace: str = "",
    ):
        self.interval = max(int(interval), 0)
        #: Owner tag ("" for the single-process engine, ``shard<i>`` for a
        #: shard worker's manager): per-shard recovery keeps one isolated
        #: ring per worker, and the tag attributes snapshots and recovery
        #: log lines to the shard that owns them.
        self.namespace = namespace
        self.keep = max(int(keep), 1)
        self.budget_bytes = max(int(budget_bytes), 0)
        self._ring: list[Checkpoint] = []
        #: Lifetime counters (surfaced by the controller's obs sampling).
        self.taken = 0
        self.evicted = 0

    @property
    def enabled(self) -> bool:
        return self.interval > 0

    def due(self, batch_no: int) -> bool:
        """True when a checkpoint should be taken after ``batch_no``."""
        return self.enabled and batch_no % self.interval == 0

    def take(
        self, registry: StateRegistry, batch_no: int, seen_rows: int
    ) -> Checkpoint:
        """Snapshot the registry after ``batch_no`` and retain it."""
        snapshot = registry.checkpoint()
        ckpt = Checkpoint(
            batch_no=batch_no,
            seen_rows=seen_rows,
            snapshot=snapshot,
            nbytes=estimate_nbytes(snapshot),
        )
        self._ring.append(ckpt)
        self.taken += 1
        while len(self._ring) > self.keep or (
            len(self._ring) > 1 and self.total_bytes() > self.budget_bytes
        ):
            self._ring.pop(0)
            self.evicted += 1
        return ckpt

    def best_for(self, recover_from: int) -> Checkpoint | None:
        """Newest *valid* checkpoint at batch ``<= recover_from``.

        Checkpoints that fail validation (corrupt snapshots) are skipped
        — recovery falls back to the next-older one, or to the pristine
        baseline when none is usable.
        """
        for ckpt in reversed(self._ring):
            if ckpt.batch_no <= recover_from and self.validate(ckpt):
                return ckpt
        return None

    @staticmethod
    def restore(registry: StateRegistry, snapshot: dict[str, object]) -> None:
        """Apply a snapshot to every store of ``registry``."""
        registry.restore(snapshot)

    def drop_after(self, batch_no: int) -> int:
        """Invalidate checkpoints newer than ``batch_no``.

        Called after a recovery restore: newer checkpoints contain the
        pruning decisions the failure just invalidated and must never be
        restored. Returns the number dropped.
        """
        before = len(self._ring)
        self._ring = [c for c in self._ring if c.batch_no <= batch_no]
        return before - len(self._ring)

    def corrupt(self, batch_no: int) -> bool:
        """Fault injection: poison the checkpoint taken at ``batch_no``."""
        for ckpt in self._ring:
            if ckpt.batch_no == batch_no:
                ckpt.corrupted = True
                ckpt.snapshot = {"__corrupt__": True}  # type: ignore[dict-item]
                return True
        return False

    @staticmethod
    def validate(ckpt: Checkpoint) -> bool:
        """Structural soundness check, run *before* any store is touched.

        ``StateRegistry.restore`` applies store by store; validating up
        front keeps a corrupt snapshot from being half-applied.
        """
        if ckpt.corrupted or not isinstance(ckpt.snapshot, dict):
            return False
        for per_store in ckpt.snapshot.values():
            if (
                not isinstance(per_store, dict)
                or not isinstance(per_store.get("entries"), dict)
                or not isinstance(per_store.get("static"), set)
            ):
                return False
        return True

    def batches(self) -> list[int]:
        return [c.batch_no for c in self._ring]

    def total_bytes(self) -> int:
        return sum(c.nbytes for c in self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        tag = f" namespace={self.namespace!r}" if self.namespace else ""
        return (
            f"<CheckpointManager interval={self.interval} "
            f"kept={len(self._ring)}{tag}>"
        )
