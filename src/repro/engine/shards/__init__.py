"""The sharded entry point, the shardability planner and row ownership.

:mod:`.planner` decides whether a plan admits group-key sharding;
:mod:`.engine` runs every plan on the serial engine and reports that
verdict; :mod:`.keys` assigns each row to a shard from its shard-key
values.
"""

from repro.engine.shards.engine import ShardedQueryEngine
from repro.engine.shards.keys import shard_ids
from repro.engine.shards.planner import ShardPlan, analyze_shardability

__all__ = [
    "ShardPlan",
    "ShardedQueryEngine",
    "analyze_shardability",
    "shard_ids",
]
