"""Mini-batch partitioning of streamed relations (Section 2).

iOLAP randomly partitions the streamed input into ``p`` batches
``ΔD_1 … ΔD_p`` and processes one per iteration. Two partitioning modes
are provided, mirroring the paper:

* ``"blocks"`` — block-wise randomness: contiguous storage blocks are
  randomly assigned to batches. Cheap, and statistically fine when values
  are uncorrelated with storage order.
* ``"shuffle"`` — the pre-processing tool for when that assumption fails:
  a full random permutation of rows before slicing.
* ``"sequential"`` — contiguous ranges in storage order, for inputs that
  were already shuffled at rest (e.g. by :func:`shuffle_relation` before
  disk ingestion): every batch is then a zero-copy
  :meth:`~repro.relational.relation.Relation.slice`.

Whatever the mode, :meth:`Partitioner.source` computes only the batches'
row indices; its :class:`BatchSource` gathers batch ``i`` when a run asks
for it, with ``Relation.slice`` (views, no copies) whenever the sorted
row indices turn out contiguous and ``take`` gathers otherwise. A run
that stops after batch ``k`` never gathers the rest. Every batch carries
its rows' indices in the partitioned relation
(:class:`~repro.relational.relation.LazyTrials` with no source yet): the
global row ids the run's bootstrap weights are a function of, so a row
keeps its weights whatever the mode or the batch count.

The partitioner also exposes the accumulated-sampling bookkeeping: after
batch ``i`` the engine has seen ``|D_i|`` rows of ``|D|``, so partial
aggregates extrapolate with ``m_i = |D| / |D_i|``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.relational.relation import LazyTrials, Relation


@dataclass(frozen=True)
class BatchInfo:
    """Bookkeeping for one mini-batch of a streamed relation."""

    batch_no: int  # 1-based, as in the paper
    delta_rows: int
    seen_rows: int
    total_rows: int

    @property
    def scale(self) -> float:
        """The extrapolation factor ``m_i = |D| / |D_i|``."""
        if self.seen_rows == 0:
            return 1.0
        return self.total_rows / self.seen_rows

    @property
    def fraction_seen(self) -> float:
        return self.seen_rows / self.total_rows if self.total_rows else 1.0


class Partitioner:
    """Splits one relation into mini-batches with a deterministic seed."""

    def __init__(
        self,
        mode: str = "shuffle",
        seed: int = 0,
        block_rows: int = 64,
    ):
        if mode not in ("shuffle", "blocks", "sequential"):
            raise ReproError(f"unknown partition mode {mode!r}")
        self.mode = mode
        self.seed = seed
        self.block_rows = block_rows

    def partition_indices(
        self, num_rows: int, num_batches: int
    ) -> list[np.ndarray]:
        """Row-index arrays for each batch (deterministic given the seed)."""
        if num_batches < 1:
            raise ReproError("need at least one batch")
        num_batches = min(num_batches, max(num_rows, 1))
        rng = np.random.default_rng(self.seed)
        if self.mode == "sequential":
            order = np.arange(num_rows, dtype=np.intp)
        elif self.mode == "shuffle":
            order = rng.permutation(num_rows)
        else:
            blocks = [
                np.arange(start, min(start + self.block_rows, num_rows))
                for start in range(0, num_rows, self.block_rows)
            ]
            rng.shuffle(blocks)
            order = (
                np.concatenate(blocks) if blocks else np.empty(0, dtype=np.intp)
            )
        return [np.sort(part) for part in np.array_split(order, num_batches)]

    def source(
        self,
        relation: Relation,
        num_batches: int,
        columns: Sequence[str] | None = None,
    ) -> "BatchSource":
        """The mini-batches of ``relation``, each gathered on demand, of
        ``columns`` only when given: what is not read is not gathered."""
        indices = self._batch_indices(relation, num_batches)
        if columns is not None:
            relation = relation.project(columns)
        return BatchSource(relation, indices)

    def partition(
        self,
        relation: Relation,
        num_batches: int,
        columns: Sequence[str] | None = None,
    ) -> list[Relation]:
        """Every mini-batch relation at once (zero-copy when contiguous)."""
        return list(self.source(relation, num_batches, columns))

    def _batch_indices(self, relation: Relation, num_batches: int) -> list[np.ndarray]:
        """Each batch's sorted row indices (value-aware subclasses override)."""
        return self.partition_indices(len(relation), num_batches)


class BatchSource(Sequence):
    """One run's mini-batches, gathered only when indexed.

    Holds the streamed relation (already projected to the columns the run
    reads) and each batch's sorted row indices. ``source[i]`` gathers
    batch ``i + 1`` afresh and keeps nothing: work and memory follow the
    batches a run consumes, and a recovery replay re-gathers the same
    bits.
    """

    def __init__(self, relation: Relation, indices: list[np.ndarray]):
        self.relation = relation
        self.indices = indices

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i: int) -> Relation:
        return _materialize_batch(self.relation, self.indices[i])


def _materialize_batch(relation: Relation, ix: np.ndarray) -> Relation:
    """One batch from its sorted row indices.

    ``partition_indices`` returns sorted unique indices, so contiguity is
    a single range check; contiguous batches become zero-copy slices of
    the streamed table (its buffers may themselves be disk maps).
    """
    if len(ix) and int(ix[-1]) - int(ix[0]) == len(ix) - 1:
        batch = relation.slice(int(ix[0]), int(ix[-1]) + 1)
    else:
        batch = relation.take(ix)
    if isinstance(batch._trials, LazyTrials):
        return batch  # ids of an enclosing table (a disk table's offsets)
    return batch.with_mult(batch.mult, LazyTrials(ix))


def num_batches_for(total_rows: int, batch_rows: int) -> int:
    """Batch count for a target per-batch row count (at least one)."""
    if batch_rows <= 0:
        raise ReproError("batch_rows must be positive")
    return max(1, -(-total_rows // batch_rows))


def shuffle_relation(relation: Relation, seed: int = 0) -> Relation:
    """The pre-processing shuffle tool: a seeded random permutation."""
    rng = np.random.default_rng(seed)
    return relation.take(rng.permutation(len(relation)))
