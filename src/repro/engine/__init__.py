"""The execution layer: the unit loop that runs one batch of a compiled query.

``repro.engine.shards`` adds the scale-out tier: a sharded engine that
hash-partitions the stream across worker processes and merges per-batch
results deterministically (imported lazily here to keep the serial
import path free of multiprocessing).
"""

from repro.engine.executor import run_units

__all__ = [
    "ShardedQueryEngine",
    "run_units",
]


def __getattr__(name: str):
    if name == "ShardedQueryEngine":
        from repro.engine.shards import ShardedQueryEngine

        return ShardedQueryEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
