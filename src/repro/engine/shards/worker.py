"""The shard worker: a full shared-nothing engine over one sub-stream.

Each shard runs the *complete* online delta algorithm — its own
compiled plan, operator state stores, sentinels and range monitor —
over the rows whose shard-key hash it owns. Nothing is shared with the
parent or siblings; the only coordination is the batch-step protocol
over the pipe. :func:`open_shard` and :func:`run_shard_batch` are that
protocol's two steps: a worker process runs them in :func:`worker_main`,
and the parent runs the same two for the shard it keeps for itself.

A worker partitions the *full* stream with the same seeded partitioner
the serial engine uses and cuts each batch's row indices to the rows its
shard owns (by the parent's one hash of the stream) before gathering them; it draws trial weights
for those rows only: a row's weights are a pure function of its global
row id, so no shard ever gathers or draws a row it drops. Group-key
sharding (see :mod:`.planner`) guarantees each owned group receives
exactly the serial row sequence, so every per-group float accumulation
is bit-identical to the serial reference. Range-integrity recovery runs
entirely inside the worker — reset the shard's own operators, replay the
shard's own batches — giving single-shard recovery.
"""

from __future__ import annotations

import time
import traceback

import numpy as np

from repro.batching.partitioner import BatchSource
from repro.core.blocks import OnlineConfig
from repro.core.controller import OnlineQueryEngine, RunSession
from repro.engine.shards.envelope import (
    BatchTask,
    InitTask,
    ShardFailure,
    ShardResult,
    ShardSpec,
    StopTask,
)
from repro.relational.catalog import Catalog
from repro.relational.relation import Relation


class ShardWorkerEngine(OnlineQueryEngine):
    """The in-worker engine: a stock controller over its shard's rows.

    Row accounting is deliberately two-faced: ``seen_rows`` advances by
    the *global* batch size (the source's ``sizes``) so the extrapolation
    factor ``scale`` matches the serial engine bit for bit, while
    per-batch metrics count shard-local rows so per-shard counters sum to
    the serial totals.
    """

    def __init__(
        self,
        catalog: Catalog,
        streamed_table: str,
        config: OnlineConfig,
        partition_mode: str,
        shard: ShardSpec,
        owners: np.ndarray,
    ):
        super().__init__(
            catalog, streamed_table, config=config, partition_mode=partition_mode
        )
        self.shard = shard
        self.owners = owners

    def _batch_source(
        self, streamed: Relation, num_batches: int, columns: list[str]
    ) -> BatchSource:
        # The parent hashes the stream once per run (``owners``), and each
        # batch's indices are cut to this shard's rows before anything is
        # gathered. Original order is kept, so each group's row sequence
        # matches serial; the indices are the rows' global ids, which name
        # their trial weights.
        source = super()._batch_source(streamed, num_batches, columns)
        mine = self.owners == self.shard.index
        return BatchSource(
            source.relation, [ix[mine[ix]] for ix in source.indices], source.sizes
        )


def open_shard(catalog: Catalog, init: InitTask) -> RunSession:
    """One shard's run session, in a worker or in the parent."""
    engine = ShardWorkerEngine(
        catalog,
        init.streamed_table,
        init.config,
        init.partition_mode,
        init.shard,
        init.owners,
    )
    return engine.open_run(init.plan, init.num_batches)


def run_shard_batch(
    session: RunSession, init: InitTask, batch_no: int, cpu_origin: float = 0.0
) -> ShardResult | ShardFailure:
    """Run one batch of a shard's session and wrap the outcome.

    ``cpu_seconds`` is ``process_time() - cpu_origin``: a worker's whole
    process, or (with an origin) the parent's time inside one session.
    """
    try:
        partial = session.process(batch_no)
    except Exception as exc:  # noqa: BLE001 — reported to the scheduler
        return ShardFailure(
            shard_index=init.shard.index,
            batch_no=batch_no,
            kind=type(exc).__name__,
            message=str(exc),
            traceback=traceback.format_exc(),
        )
    return ShardResult(
        shard_index=init.shard.index,
        batch_no=batch_no,
        rows=partial.rows,
        metrics=partial.metrics,
        counters=_shard_counters(session) if init.collect_counters else {},
        cpu_seconds=time.process_time() - cpu_origin,
        sanitize_seconds=(
            session.ctx.sanitizer.seconds
            if session.ctx.sanitizer is not None
            else 0.0
        ),
    )


def worker_main(conn, init: InitTask) -> None:
    """Worker process entry point: an inherited InitTask, then batch steps."""
    session = None
    try:
        session = open_shard(Catalog(init.tables), init)
        while True:
            task = conn.recv()
            if isinstance(task, StopTask):
                break
            assert isinstance(task, BatchTask)
            reply = run_shard_batch(session, init, task.batch_no)
            conn.send(reply)
            if isinstance(reply, ShardFailure):
                break
    except (EOFError, OSError):
        # Parent died or killed the pipe: exit quietly (the shard fault
        # path terminates workers without a StopTask).
        pass
    finally:
        if session is not None:
            session.close()
        conn.close()


def _shard_counters(session) -> dict[str, float]:
    """Shard-local gauges shipped to the parent's metrics registry."""
    ctx = session.ctx
    return {
        "range_failures": float(ctx.monitor.failures),
        "state_bytes": float(ctx.metrics.total_state_bytes),
        "seen_rows": float(ctx.seen_rows),
    }
