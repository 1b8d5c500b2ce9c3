"""The execution layer: the unit loop that runs one batch of a compiled query.

``repro.engine.shards`` holds the sharded entry point, which runs on the
serial engine, and its shardability planner.
"""

from repro.engine.executor import run_units

__all__ = ["run_units"]
