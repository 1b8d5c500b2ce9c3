"""The sharded entry point: a sharded run executes on the serial engine.

:class:`ShardedQueryEngine` is :class:`~repro.core.controller.OnlineQueryEngine`
plus the two facts sharded callers read. ``shard_plan`` is the planner's
verdict on the most recent plan (see :mod:`.planner`), and
``shard_cpu_seconds`` stays empty because no shard session exists.
``OnlineConfig.shards`` is accepted and has no effect: every run executes
in this process, and every partial equals the serial engine's bit for bit.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.controller import OnlineQueryEngine
from repro.core.result import PartialResult
from repro.engine.shards.planner import ShardPlan, analyze_shardability
from repro.relational.algebra import PlanNode


class ShardedQueryEngine(OnlineQueryEngine):
    """The serial engine under the sharded engine's name."""

    #: The ShardPlan of the most recent run (None before any run).
    shard_plan: ShardPlan | None = None

    @property
    def shard_cpu_seconds(self) -> dict[int, float]:
        """CPU seconds per shard session: none, since no shard session runs."""
        return {}

    def run(
        self,
        plan: PlanNode,
        num_batches: int,
        batch_rows: int | None = None,
    ) -> Iterator[PartialResult]:
        """Record the planner's verdict, then run ``plan`` serially."""
        self.shard_plan = analyze_shardability(plan, self.streamed_table)
        return super().run(plan, num_batches, batch_rows=batch_rows)
