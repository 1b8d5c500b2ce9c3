"""Stratified mini-batch partitioning (the paper's Section 9 extension).

The paper notes iOLAP "can be extended to incorporate stratified
sampling": when a group-by column is heavily skewed, uniform batches may
starve rare groups of tuples for many batches, making their estimates
useless early on. A stratified partitioner splits *within each stratum*
(typically the group-by column of interest), so every batch contains a
proportional sample of every stratum and rare groups converge at the
same relative rate as common ones.

Semantics are unchanged: the union of the batches is the whole relation
and each batch is a random sample *within strata*; the scale factor
``m_i`` remains |D|/|D_i| because strata are sampled proportionally.
"""

from __future__ import annotations

import numpy as np

from repro.batching.partitioner import Partitioner
from repro.errors import ReproError
from repro.relational.relation import Relation


class StratifiedPartitioner(Partitioner):
    """Splits each stratum of ``stratify_by`` evenly across batches."""

    def __init__(self, stratify_by: str, seed: int = 0):
        super().__init__(mode="shuffle", seed=seed)
        self.stratify_by = stratify_by

    def partition_relation_indices(
        self, relation: Relation, num_batches: int
    ) -> list[np.ndarray]:
        if self.stratify_by not in relation.schema:
            raise ReproError(
                f"stratification column {self.stratify_by!r} not in "
                f"{relation.schema.names}"
            )
        if num_batches < 1:
            raise ReproError("need at least one batch")
        rng = np.random.default_rng(self.seed)
        values = relation.column(self.stratify_by)
        batches: list[list[np.ndarray]] = [[] for _ in range(num_batches)]
        for value in np.unique(values):
            members = np.flatnonzero(values == value)
            rng.shuffle(members)
            # Rotate the starting batch per stratum so remainders spread
            # evenly instead of piling into batch 1.
            offset = int(rng.integers(num_batches))
            for j, part in enumerate(np.array_split(members, num_batches)):
                batches[(j + offset) % num_batches].append(part)
        return [
            np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.intp)
            for parts in batches
        ]

    _batch_indices = partition_relation_indices


def stratum_coverage(
    batches: list[Relation], column: str
) -> list[float]:
    """Fraction of all strata present in each batch (diagnostic)."""
    all_values: set = set()
    per_batch: list[set] = []
    for batch in batches:
        values = set(batch.column(column).tolist())
        per_batch.append(values)
        all_values |= values
    if not all_values:
        return [1.0 for _ in batches]
    return [len(v) / len(all_values) for v in per_batch]
