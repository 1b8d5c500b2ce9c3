"""The shard scheduler: live shards in processes, one deterministic merge sink.

:class:`ShardedQueryEngine` is a drop-in facade over
:class:`~repro.core.controller.OnlineQueryEngine`: same constructor
shape, same ``run``/``run_to_completion`` surface, same
:class:`PartialResult` stream. When the plan admits group-key sharding
(see :mod:`.planner`) it hash-partitions the streamed table across
``OnlineConfig.shards`` shards and merges their per-batch results at the
sink; otherwise it falls back to single-process execution (bit-identity
then holds trivially) after recording a ``shard-fallback`` trace warning.

Process layout: one :func:`shard_ids` pass counts each shard's rows and
one seeded partition fixes every batch's row indices; every shard gets
both through its :class:`InitTask`. A shard that owns no row gets no
session and no process. The parent opens a session for every live shard
and runs batch 1 of each itself, so the first estimate is merged and
yielded before any process exists. When the consumer asks for batch 2,
the parent keeps the live shard with the most rows (ties: lowest index)
and starts one worker per other live shard. Under fork the worker adopts
the session the parent advanced (a process argument, inherited, never
pickled); under spawn it opens its own and the parent replays batch 1
into it, the catch-up a restarted worker runs too. A run that ends, or
is abandoned, after batch 1 starts no process. From batch 2 on, each
batch is sent to the workers first, so they run while the parent runs
its own shard.

Merge discipline (the PR 1/3 determinism contract, extended):

* **group-by partials merge by key** — shards own disjoint group sets,
  so the merge is a disjoint union, checked against the plan's
  shard-key result columns and ordered canonically;
* **holistic/quantile sinks merge at trial level** — result cells keep
  their full per-trial arrays across the pipe, nothing is collapsed
  before the merge;
* **metrics merge in shard-index order** via
  :meth:`BatchMetrics.merge_from`.

The ``shard`` fault kind is handled here: before dispatching a batch the
scheduler claims ``shard@batch:index`` faults and restarts the targeted
shard — a worker is killed and respawned, a session the parent runs is
reopened — which replays its sub-stream deterministically:
single-shard recovery, the other shards' state is never touched. A fault
on a shard that owns no row is claimed and counted, with nothing to
rebuild.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import time
from multiprocessing.connection import wait
from typing import Iterator

import numpy as np

from repro.batching.partitioner import Partitioner, num_batches_for
from repro.core.blocks import OnlineConfig
from repro.core.result import PartialResult, _key
from repro.engine.shards.envelope import (
    BatchTask,
    InitTask,
    ShardFailure,
    ShardResult,
    ShardSpec,
    StopTask,
    shard_ids,
)
from repro.engine.shards.planner import ShardPlan, analyze_shardability
from repro.engine.shards.worker import open_shard, run_shard_batch, worker_main
from repro.errors import ReproError
from repro.metrics.stats import RunMetrics
from repro.obs.session import NULL_OBS
from repro.relational.algebra import PlanNode
from repro.relational.catalog import Catalog
from repro.core.values import UncertainValue


def _mp_context():
    """Prefer fork (cheap, Linux); fall back to spawn elsewhere."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _result(reply: ShardResult | ShardFailure, replaying: bool = False) -> ShardResult:
    """A shard's result, or its failure raised with the shard's traceback."""
    if isinstance(reply, ShardResult):
        return reply
    where = (
        f"replaying batch {reply.batch_no}"
        if replaying
        else f"at batch {reply.batch_no}"
    )
    raise ReproError(
        f"shard {reply.shard_index} failed {where} "
        f"({reply.kind}: {reply.message})\n{reply.traceback}"
    )


class _WorkerHandle:
    """One worker process + its pipe, serving one live shard's batches
    from batch 2 on."""

    def __init__(self, ctx, shard: "_LocalShard", adopt: bool):
        self.ctx = ctx
        self.init = shard.init
        self.index = shard.index
        # An adopted session stays referenced here until the worker has
        # exited: freeing it while the child still shares its pages would
        # copy every page the frees touch.
        self.adopted = shard if adopt else None
        if not adopt:
            shard.close()
        self._start(self.adopted)

    def _start(self, adopt: "_LocalShard | None" = None) -> None:
        parent_conn, child_conn = self.ctx.Pipe()
        self.conn = parent_conn
        # The InitTask rides along as a process argument: under fork the
        # catalog is inherited copy-on-write (no pickle on either side);
        # under spawn it is pickled once, same as a pipe send would cost.
        # An adopted session rides the same way, under fork only.
        args = (child_conn, self.init)
        if adopt is not None:
            args += (adopt.session, adopt.cpu_seconds)
        self.proc = self.ctx.Process(
            target=worker_main,
            args=args,
            name=f"iolap-shard-{self.index}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()

    def send(self, task: BatchTask) -> None:
        try:
            self.conn.send(task)
        except OSError as exc:  # BrokenPipeError: the worker is gone
            raise self._died(task.batch_no) from exc

    def recv(self, batch_no: int) -> ShardResult | ShardFailure:
        """The worker's reply, or a ``ReproError`` if it died first.

        Waits on the process sentinel too: a worker that exits without
        replying (or never started) cannot leave the parent blocked.
        """
        if self.conn in wait([self.conn, self.proc.sentinel]):
            try:
                return self.conn.recv()
            except (EOFError, OSError):
                pass
        raise self._died(batch_no)

    def _died(self, batch_no: int) -> ReproError:
        self.proc.join(timeout=10)
        return ReproError(
            f"shard {self.index} worker died at batch {batch_no} "
            f"(exit code {self.proc.exitcode})"
        )

    def catch_up(self, batch_no: int) -> None:
        """Replay batches ``1..batch_no-1`` into a worker that opened its
        own session (deterministic: the replies are discarded)."""
        for b in range(1, batch_no):
            self.send(BatchTask(b, replay=True))
            _result(self.recv(b), replaying=True)

    def restart(self, batch_no: int) -> None:
        """The shard fault: hard-kill the worker (no goodbye, no state
        flush), start a fresh one and catch it up."""
        self.proc.kill()
        self.proc.join()
        self.conn.close()
        self._start()
        self.catch_up(batch_no)

    def stop(self) -> None:
        """Orderly shutdown; escalates to terminate if the pipe is gone."""
        try:
            self.conn.send(StopTask())
        except OSError:
            pass
        self.proc.join(timeout=10)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()
        self.conn.close()
        if self.adopted is not None:
            self.adopted.close()


class _LocalShard:
    """A live shard's session in the parent: every live shard's up to
    batch 1, the largest shard's for the whole run.

    It drives the same session a worker drives; ``cpu_seconds`` counts the
    parent CPU spent inside it, as a worker's counts its process's.
    """

    def __init__(self, catalog: Catalog, init: InitTask):
        self.index = init.shard.index
        self.catalog = catalog
        self.init = init
        self.open()

    def open(self) -> None:
        started = time.process_time()
        self.session = open_shard(self.catalog, self.init)
        self.cpu_seconds = time.process_time() - started

    def step(self, batch_no: int) -> ShardResult | ShardFailure:
        reply = run_shard_batch(
            self.session, self.init, batch_no,
            cpu_origin=time.process_time() - self.cpu_seconds,
        )
        if isinstance(reply, ShardResult):
            self.cpu_seconds = reply.cpu_seconds
        return reply

    def restart(self, batch_no: int) -> None:
        """The shard fault: a fresh session replays batches
        ``1..batch_no-1``."""
        self.close()
        self.open()
        for b in range(1, batch_no):
            _result(self.step(b), replaying=True)

    def close(self) -> None:
        self.session.close()  # idempotent


class ShardedQueryEngine:
    """Runs queries online across N shared-nothing shard processes."""

    def __init__(
        self,
        catalog: Catalog,
        streamed_table: str,
        config: OnlineConfig | None = None,
        partition_mode: str = "shuffle",
        obs=None,
    ):
        self.catalog = catalog
        self.streamed_table = streamed_table
        self.config = config if config is not None else OnlineConfig()
        self.partition_mode = partition_mode
        self.obs = obs if obs is not None else NULL_OBS
        self.metrics = RunMetrics()
        #: The ShardPlan of the most recent run (None before any run).
        self.shard_plan: ShardPlan | None = None
        #: Shard restarts performed by the shard fault path (per run).
        self.shard_respawns = 0
        #: Cumulative CPU seconds per live shard (shard index -> latest
        #: reported): a worker's ``process_time``, or for the shard the
        #: parent runs, the parent CPU spent in that shard's session.
        self.shard_cpu_seconds: dict[int, float] = {}

    @property
    def shards(self) -> int:
        return max(int(self.config.shards), 1)

    def run(
        self,
        plan: PlanNode,
        num_batches: int,
        batch_rows: int | None = None,
    ) -> Iterator[PartialResult]:
        """Execute ``plan`` online; yields one merged result per batch."""
        shard_plan = analyze_shardability(plan, self.streamed_table)
        self.shard_plan = shard_plan
        tracer = self.obs.tracer
        if self.shards <= 1 or not shard_plan.shardable:
            if self.shards > 1:
                reason = shard_plan.reason
                tracer.warning(
                    "shard-fallback",
                    message=f"plan is not shardable ({reason}); running "
                    "single-process",
                    reason=reason,
                )
            yield from self._run_fallback(plan, num_batches, batch_rows)
            return
        yield from self._run_sharded(plan, shard_plan, num_batches, batch_rows)

    def run_to_completion(
        self,
        plan: PlanNode,
        num_batches: int,
        batch_rows: int | None = None,
    ) -> PartialResult:
        """Convenience: run all batches, return the final (exact) result."""
        last: PartialResult | None = None
        for last in self.run(plan, num_batches, batch_rows=batch_rows):
            pass
        if last is None:
            raise ReproError("streamed table is empty")
        return last

    # -- single-process fallback ---------------------------------------------------

    def _run_fallback(
        self, plan: PlanNode, num_batches: int, batch_rows: int | None
    ) -> Iterator[PartialResult]:
        from repro.core.controller import OnlineQueryEngine

        inner = OnlineQueryEngine(
            self.catalog,
            self.streamed_table,
            config=self.config,
            partition_mode=self.partition_mode,
            obs=self.obs,
        )
        self.metrics = inner.metrics
        for partial in inner.run(plan, num_batches, batch_rows=batch_rows):
            self.metrics = inner.metrics
            yield partial

    # -- the sharded path ----------------------------------------------------------

    def _run_sharded(
        self,
        plan: PlanNode,
        shard_plan: ShardPlan,
        num_batches: int,
        batch_rows: int | None,
    ) -> Iterator[PartialResult]:
        streamed = self.catalog.get(self.streamed_table)
        if batch_rows is not None:
            num_batches = num_batches_for(len(streamed), batch_rows)
        self.metrics = RunMetrics()
        self.shard_respawns = 0
        self.shard_cpu_seconds = {}
        sanitize_seconds: dict[int, float] = {}

        injector = None
        if self.config.faults:
            from repro.faults import FaultInjector, as_plan

            injector = FaultInjector(as_plan(self.config.faults))
            for spec in injector.plan.specs:
                if spec.kind == "shard" and int(spec.target or 0) >= self.shards:
                    raise ReproError(
                        f"fault {spec} targets shard {spec.target}, but the "
                        f"run has {self.shards} shards"
                    )

        # Only shards that own rows run. The parent keeps the largest one
        # (ties: lowest index; an empty stream's one empty batch runs as
        # shard 0); every other live shard gets a worker at batch 2.
        key = shard_plan.shard_key
        owners = shard_ids(streamed, key, self.shards)
        owned = np.bincount(owners, minlength=self.shards)
        kept = int(np.argmax(owned))
        live = [s for s in range(self.shards) if owned[s] or s == kept]
        # One seeded partition for every shard: the serial engine's.
        batches = Partitioner(
            mode=self.partition_mode, seed=self.config.seed
        ).partition_indices(len(streamed), num_batches)
        batch_sizes = [len(ix) for ix in batches]

        obs = self.obs
        tracer = obs.tracer
        init = InitTask(
            tables={name: self.catalog.get(name) for name in self.catalog},
            streamed_table=self.streamed_table,
            plan=plan,
            config=self.config,
            shard=ShardSpec(index=kept, count=self.shards, key=key),
            collect_counters=obs.enabled,
            owners=owners,
            batches=batches,
        )
        run_span = tracer.span(
            "run", cat="run",
            streamed_table=self.streamed_table,
            total_rows=len(streamed),
            num_batches=len(batches),
            shards=self.shards,
            shard_key=",".join(key),
        ) if tracer.enabled else None
        if run_span:
            run_span.__enter__()
        local: dict[int, _LocalShard] = {}
        workers: dict[int, _WorkerHandle] = {}
        try:
            for s in live:
                shard = dataclasses.replace(init.shard, index=s)
                local[s] = _LocalShard(
                    self.catalog, dataclasses.replace(init, shard=shard)
                )
            schema = local[kept].session.compiled.result_schema
            seen_rows = 0
            for i in range(1, len(batches) + 1):
                if i == 2:
                    self._start_workers(local, workers, kept)
                if injector is not None:
                    self._fire_shard_faults({**local, **workers}, injector, i)
                bm = self.metrics.start_batch(i)
                started = time.perf_counter()
                for handle in workers.values():
                    handle.send(BatchTask(i))
                replies = {s: shard.step(i) for s, shard in local.items()}
                for s, handle in workers.items():
                    replies[s] = handle.recv(i)
                results = [_result(replies[s]) for s in sorted(replies)]
                rows = _merge_rows(results, shard_plan.result_key_cols)
                for r in results:
                    bm.merge_from(r.metrics)
                    self.shard_cpu_seconds[r.shard_index] = r.cpu_seconds
                    sanitize_seconds[r.shard_index] = r.sanitize_seconds
                self.metrics.sanitize_seconds = sum(sanitize_seconds.values())
                bm.wall_seconds = time.perf_counter() - started
                seen_rows += batch_sizes[i - 1]
                if obs.enabled:
                    self._sample_shard_metrics(results, i)
                is_final = i == len(batches)
                yield PartialResult(
                    batch_no=i,
                    num_batches=len(batches),
                    fraction_processed=(
                        seen_rows / len(streamed) if len(streamed) else 1.0
                    ),
                    schema=schema,
                    rows=rows,
                    metrics=bm,
                    is_final=is_final,
                )
        finally:
            for handle in workers.values():
                handle.stop()
            for shard in local.values():
                shard.close()
            if run_span:
                run_span.__exit__(None, None, None)
            obs.flush()

    def _start_workers(self, local, workers, kept: int) -> None:
        """Before batch 2, move every live shard but ``kept`` to a worker.

        Under fork the worker adopts the parent's session, already past
        batch 1; under spawn the worker opens its own session and batch 1
        is replayed into it.
        """
        mp_ctx = _mp_context()
        adopt = mp_ctx.get_start_method() == "fork"
        for s in [s for s in local if s != kept]:
            # The shard leaves ``local`` only once its handle exists, so a
            # failed start still leaves its session to the run's cleanup.
            handle = workers[s] = _WorkerHandle(mp_ctx, local[s], adopt)
            del local[s]
            if not adopt:
                handle.catch_up(2)

    def _fire_shard_faults(self, live, injector, batch_no: int) -> None:
        """Restart any shard a ``shard@batch[:index]`` fault targets.

        Single-shard recovery: a worker is killed and restarted, a
        session in the parent is reopened, and either replays its
        sub-stream (deterministically identical to the lost state) while
        every other shard's state is left untouched. A shard that owns no
        row has nothing to rebuild; its fault is claimed all the same.
        """
        tracer = self.obs.tracer
        for s in range(self.shards):
            if not injector.claim("shard", batch_no, label=str(s)):
                continue
            tracer.warning(
                "shard-killed", batch=batch_no, shard=s,
                message=f"injected shard fault: restarting shard {s} "
                f"before batch {batch_no}",
            )
            if s in live:
                live[s].restart(batch_no)
            self.shard_respawns += 1
            self.obs.metrics.counter("shard.respawns").inc()

    def _sample_shard_metrics(self, results: list[ShardResult], batch_no: int) -> None:
        """Per-shard span tracks + counters merged into the run trace."""
        obs = self.obs
        tracer = obs.tracer
        reg = obs.metrics
        for r in results:
            if tracer.enabled:
                with tracer.span(
                    "shard-batch", cat="shard", batch=batch_no,
                    shard=r.shard_index,
                ) as span:
                    span.set(
                        rows=len(r.rows),
                        new_tuples=r.metrics.new_tuples,
                        unit_seconds=r.metrics.unit_seconds,
                        recovered=r.metrics.recovered,
                        cpu_seconds=r.cpu_seconds,
                    )
            for name, value in r.counters.items():
                reg.gauge(f"shard.{r.shard_index}.{name}").set(value)
            reg.gauge(f"shard.{r.shard_index}.cpu_seconds").set(r.cpu_seconds)
        obs.emit_metrics(batch=batch_no)
        obs.flush()


def _merge_rows(
    results: list[ShardResult], key_cols: tuple[str, ...]
) -> list[dict[str, object]]:
    """Disjoint union of per-shard result rows in canonical order.

    Group-key sharding guarantees shards publish disjoint group sets;
    ``key_cols`` (the result columns with shard-key provenance) back an
    explicit check of that invariant. Rows are ordered canonically (the
    ``sorted_plain_rows`` key over every column) so the merged stream is
    independent of shard count and arrival order.
    """
    rows: list[dict[str, object]] = []
    if key_cols:
        seen: dict[tuple, int] = {}
        for r in results:
            for row in r.rows:
                key = tuple(_point(row[c]) for c in key_cols)
                owner = seen.setdefault(key, r.shard_index)
                if owner != r.shard_index:
                    raise ReproError(
                        f"shard merge invariant violated: group {key!r} "
                        f"published by shards {owner} and {r.shard_index}"
                    )
    for r in results:
        rows.extend(r.rows)
    rows.sort(
        key=lambda row: tuple(_key(_point(v)) for v in row.values())
    )
    return rows


def _point(value: object) -> object:
    return value.value if isinstance(value, UncertainValue) else value
