"""Mini-batch partitioning of streamed relations."""

from repro.batching.partitioner import (
    BatchInfo,
    BatchSource,
    Partitioner,
    num_batches_for,
    shuffle_relation,
)
from repro.batching.stratified import StratifiedPartitioner, stratum_coverage

__all__ = [
    "BatchInfo",
    "BatchSource",
    "Partitioner",
    "StratifiedPartitioner",
    "num_batches_for",
    "shuffle_relation",
    "stratum_coverage",
]
