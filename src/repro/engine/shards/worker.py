"""The shard worker: a full shared-nothing engine over one sub-stream.

Each shard runs the *complete* online delta algorithm — its own
compiled plan, operator state stores, sentinels and range monitor —
over the rows whose shard-key hash it owns. Nothing is shared with the
parent or siblings; the only coordination is the batch-step protocol
over the pipe. :func:`open_shard` and :func:`run_shard_batch` are that
protocol's two steps. The parent runs them for every live shard up to
the first estimate; :func:`worker_main` runs them in a worker process
from batch 2 on. Under fork the worker adopts the session the parent
already advanced (inherited as a process argument, never pickled);
under spawn, and after a restart, it opens its own session and the
parent replays the batches it missed.

No shard partitions the stream: the parent computes each batch's row
indices once per run with the seeded partitioner the serial engine uses
(``InitTask.batches``) and hashes the stream once (``InitTask.owners``).
A shard cuts each batch's indices to the rows it owns before gathering
them, and draws trial weights for those rows only: a row's weights are
a pure function of its global row id, so no shard ever gathers or draws
a row it drops. Group-key sharding (see :mod:`.planner`) guarantees each
owned group receives exactly the serial row sequence, so every
per-group float accumulation is bit-identical to the serial reference.
Range-integrity recovery runs entirely inside the shard's session —
reset the shard's own operators, replay the shard's own batches —
giving single-shard recovery.
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
        shard: ShardSpec,
        owners: np.ndarray,
        batches: list[np.ndarray],
    ):
        super().__init__(catalog, streamed_table, config=config)
        self.shard = shard
        self.owners = owners
        self.batches = batches

    def _batch_source(
        self, streamed: Relation, num_batches: int, columns: list[str]
    ) -> BatchSource:
        # The parent partitions (``batches``) and hashes (``owners``) the
        # stream once per run, and each batch's indices are cut to this
        # shard's rows before anything is gathered. Original order is
        # kept, so each group's row sequence matches serial; the indices
        # are the rows' global ids, which name their trial weights.
        mine = self.owners == self.shard.index
        return BatchSource(
            streamed.project(columns),
            [ix[mine[ix]] for ix in self.batches],
            [len(ix) for ix in self.batches],
        )


def open_shard(catalog: Catalog, init: InitTask) -> RunSession:
    """One shard's run session, in a worker or in the parent."""
    engine = ShardWorkerEngine(
        catalog,
        init.streamed_table,
        init.config,
        init.shard,
        init.owners,
        init.batches,
    )
    return engine.open_run(init.plan, len(init.batches))


def run_shard_batch(
    session: RunSession, init: InitTask, batch_no: int, cpu_origin: float = 0.0
) -> ShardResult | ShardFailure:
    """Run one batch of a shard's session and wrap the outcome.

    ``cpu_seconds`` is ``process_time() - cpu_origin``: the parent's time
    inside one session (the origin moves past the time spent elsewhere),
    or a worker's whole process, plus, for an adopted session, the CPU it
    had already cost the parent (a negative origin).
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


def worker_main(
    conn, init: InitTask, session: RunSession | None = None, cpu_before: float = 0.0
) -> None:
    """Worker process entry point: an inherited InitTask, then batch steps.

    Under fork the worker adopts ``session``, the parent's session of
    this shard, and continues its CPU count from ``cpu_before`` (a forked
    child's ``process_time`` starts at 0). Without one it opens its own
    session and the parent replays the batches it missed.
    """
    try:
        if session is None:
            session = open_shard(Catalog(init.tables), init)
        while True:
            task = conn.recv()
            if isinstance(task, StopTask):
                break
            assert isinstance(task, BatchTask)
            reply = run_shard_batch(
                session, init, task.batch_no, cpu_origin=-cpu_before
            )
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
