"""The query controller (Section 7, module 3) — iOLAP's public entry point.

Partitions the streamed input into mini-batches, runs the compiled
delta query's units on each batch, collects
partial results with error estimates, monitors variation-range integrity,
and runs the failure-recovery replay when a check fails.

Typical use::

    engine = OnlineQueryEngine(catalog, streamed_table="sessions")
    for partial in engine.run(plan, num_batches=20):
        print(partial.batch_no, partial.to_plain_rows(),
              partial.max_relative_stdev())
        if partial.max_relative_stdev() < 0.02:
            break    # the user is satisfied — stop any time

The final partial result (all batches consumed) equals the exact answer
of the batch evaluator on the full dataset (Theorem 1), which the test
suite verifies query by query.
"""

from __future__ import annotations

import time
from typing import Iterator

from repro.batching.partitioner import BatchSource, Partitioner
from repro.core.blocks import OnlineConfig, RuntimeContext
from repro.core.compiler import CompiledQuery, compile_online
from repro.core.result import PartialResult
from repro.core.values import UncertainValue
from repro.engine.executor import run_units
from repro.errors import RangeIntegrityError, ReproError, UnsupportedQueryError
from repro.kernels.stats import STATS as KERNEL_STATS
from repro.metrics.stats import BatchMetrics, RunMetrics
from repro.obs.session import NULL_OBS
from repro.relational.algebra import PlanNode
from repro.relational.catalog import Catalog
from repro.relational.relation import Relation

#: Safety valve: recoveries per run before pruning is disabled outright.
_MAX_RECOVERIES = 8


class OnlineQueryEngine:
    """Runs queries online over one streamed table, batch by batch."""

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
        self.partitioner = Partitioner(mode=partition_mode, seed=self.config.seed)
        #: Observability session (tracing + metrics registry); the inert
        #: NULL_OBS unless the caller wants a trace.
        self.obs = obs if obs is not None else NULL_OBS
        #: Metrics of the most recent (or in-progress) run.
        self.metrics = RunMetrics()

    def run(
        self,
        plan: PlanNode,
        num_batches: int,
        batch_rows: int | None = None,
    ) -> Iterator[PartialResult]:
        """Execute ``plan`` online; yields one partial result per batch."""
        session = self.open_run(plan, num_batches, batch_rows=batch_rows)
        try:
            for i in range(1, session.num_batches + 1):
                yield session.process(i)
        finally:
            session.close()

    def open_run(
        self,
        plan: PlanNode,
        num_batches: int,
        batch_rows: int | None = None,
    ) -> "RunSession":
        """Set up one online run and hand back its batch driver.

        ``run`` drives the session start to finish; a caller that wants
        one batch at a time drives the session itself.
        """
        streamed = self.catalog.get(self.streamed_table)
        if batch_rows is not None:
            from repro.batching.partitioner import num_batches_for

            num_batches = num_batches_for(len(streamed), batch_rows)

        obs = self.obs
        tracer = obs.tracer
        try:
            compiled = compile_online(plan, self.catalog, self.streamed_table)
        except UnsupportedQueryError as exc:
            # Rejections belong on the trace timeline, not only in the
            # raised exception: a saved trace should show *why* a run
            # produced no batches.
            tracer.warning(
                "unsupported-query",
                message=str(exc),
                node=type(exc.node).__name__ if exc.node is not None else None,
                rule=exc.rule_id,
            )
            obs.flush()
            raise
        batches = self.partitioner.source(
            streamed, num_batches, compiled.stream_columns
        )
        ctx = RuntimeContext(
            self.catalog, self.streamed_table, len(streamed), self.config
        )
        ctx.attach_obs(obs)
        if ctx.sanitizer is not None:
            # Install the Relation.slice / DiskTable chunk-view aliasing
            # hooks for the duration of this run (removed on close).
            ctx.sanitizer.activate()
        self.metrics = RunMetrics()

        run_span = tracer.span(
            "run", cat="run",
            streamed_table=self.streamed_table,
            num_batches=len(batches),
            total_rows=len(streamed),
        ) if tracer.enabled else None
        if run_span:
            run_span.__enter__()
        return RunSession(self, compiled, ctx, batches, obs, run_span)

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

    # -- internals ---------------------------------------------------------------------

    def _process_batch(
        self,
        compiled: CompiledQuery,
        ctx: RuntimeContext,
        batches: BatchSource,
        batch_no: int,
        delta: Relation,
        bm: BatchMetrics,
    ) -> None:
        attempts = 0
        while True:
            try:
                ctx.begin_batch(batch_no, delta, bm)
                # Controller-level fault seam: fires before any unit runs.
                ctx.fault("batch")
                run_units(compiled.units, ctx)
                return
            except RangeIntegrityError:
                bm.recovered = True
                attempts += 1
                ctx.obs.metrics.counter("recovery.failures").inc()
                if attempts > _MAX_RECOVERIES:
                    if not ctx.monitor.enabled:
                        # A conservative replay cannot record sentinels, so
                        # a second failure here is a logic error, not a
                        # pruning mistake — don't loop forever on it.
                        raise
                    # Safety valve: conservative mode (no pruning) is always
                    # correct; disable ranges for the rest of the run, then
                    # replay and re-run this batch one more time.
                    ctx.monitor.enabled = False
                    self.metrics.pruning_disabled = True
                    ctx.obs.tracer.warning(
                        "pruning-disabled", batch=batch_no,
                        message="recovery budget exhausted; finishing the "
                        "run in conservative (no-pruning) mode",
                    )
                # The failed attempt's per-batch counters are about to be
                # earned again by the re-run; zero them so recovered
                # batches are not double-counted in the run totals.
                bm.reset_attempt()
                self._replay(compiled, ctx, batches, batch_no, bm)

    def _replay(
        self,
        compiled: CompiledQuery,
        ctx: RuntimeContext,
        batches: BatchSource,
        failed_batch: int,
        bm: BatchMetrics,
    ) -> None:
        """Failure recovery (Section 5.1): reset every operator to its
        pristine state, then rebuild it by replaying batches
        ``1..failed_batch-1`` conservatively.

        During the replay the monitor publishes unbounded ranges, so no
        pruning happens and no sentinels are created — the rebuilt state
        is unconditionally correct (Theorem 1). The failed batch is then
        re-processed live: pruning resumes with fresh ranges, whose
        sentinels are recorded from the *current* estimates and therefore
        cannot flip within the same batch, guaranteeing recovery
        terminates.
        """
        obs = ctx.obs
        tracer = obs.tracer
        replayed = failed_batch - 1
        obs.metrics.counter("recovery.replays").inc()
        obs.metrics.histogram("recovery.depth").observe(replayed)
        span = tracer.span(
            "recovery-replay", cat="recovery", batch=failed_batch,
            replayed_batches=replayed,
        ) if tracer.enabled else None
        if span:
            span.__enter__()
        started = time.perf_counter()
        ctx.monitor.replaying = True
        compiled.reset()
        ctx.reset_for_replay()
        scratch = BatchMetrics(0)
        saved = ctx.metrics
        try:
            for b in range(1, failed_batch):
                ctx.begin_batch(b, batches[b - 1], scratch)
                run_units(compiled.units, ctx)
        finally:
            ctx.metrics = saved
            ctx.monitor.replaying = False
            if span:
                span.__exit__(None, None, None)
        bm.recovery_seconds += time.perf_counter() - started

    def _sample_metrics(self, ctx: RuntimeContext, bm: BatchMetrics, batch_no: int) -> None:
        """Per-batch sampling of engine-level gauges + the full registry.

        Runs between batches, so the snapshot is a consistent cut: every
        unit of batch ``batch_no`` has finished.
        """
        reg = ctx.obs.metrics
        reg.gauge("state.total_bytes").set(bm.total_state_bytes)
        reg.gauge("engine.seen_rows").set(ctx.seen_rows)
        reg.gauge("engine.range_failures").set(ctx.monitor.failures)
        reg.counter("engine.recomputed_tuples").inc(bm.recomputed_tuples)
        reg.counter("engine.shipped_bytes").inc(bm.shipped_bytes)
        for name, value in KERNEL_STATS.snapshot().items():
            reg.gauge(f"kernel.{name}").set(value)
        ctx.obs.emit_metrics(batch=batch_no)

    def _make_result(
        self,
        compiled: CompiledQuery,
        ctx: RuntimeContext,
        batch_no: int,
        num_batches: int,
        bm: BatchMetrics,
    ) -> PartialResult:
        names = compiled.result_schema.names
        rows = [
            {name: values[name] for name in names}
            for values in compiled.current_rows(ctx)
        ]
        is_final = batch_no == num_batches
        if is_final:
            rows = [_finalize_row(r) for r in rows]
        return PartialResult(
            batch_no=batch_no,
            num_batches=num_batches,
            # An empty stream's one batch processed all of it.
            fraction_processed=(
                ctx.seen_rows / ctx.total_rows if ctx.total_rows else 1.0
            ),
            schema=compiled.result_schema,
            rows=rows,
            metrics=bm,
            is_final=is_final,
        )


class RunSession:
    """One in-progress online run, driven one batch at a time.

    Owns everything ``open_run`` acquired and releases it in :meth:`close`,
    whether the run ended, raised, or its generator was abandoned
    mid-stream.
    """

    def __init__(
        self,
        engine: OnlineQueryEngine,
        compiled: CompiledQuery,
        ctx: RuntimeContext,
        batches: BatchSource,
        obs,
        run_span,
    ):
        self.engine = engine
        self.compiled = compiled
        self.ctx = ctx
        self.batches = batches
        self.obs = obs
        self.run_span = run_span
        self.num_batches = len(batches)
        self._closed = False

    def process(self, batch_no: int) -> PartialResult:
        """Run mini-batch ``batch_no`` (1-based) and build its result."""
        engine = self.engine
        compiled, ctx, obs = self.compiled, self.ctx, self.obs
        tracer = obs.tracer
        i = batch_no
        bm = engine.metrics.start_batch(i)
        started = time.perf_counter()
        # Gathered here, not at open_run: the first estimate waits for
        # one batch, and a run that stops early never gathers the rest.
        delta = self.batches[i - 1]
        if tracer.enabled:
            with tracer.span(
                "batch", cat="exec", batch=i, rows=len(delta)
            ) as batch_span:
                engine._process_batch(compiled, ctx, self.batches, i, delta, bm)
                batch_span.set(
                    recovered=bm.recovered,
                    recomputed_tuples=bm.recomputed_tuples,
                )
        else:
            engine._process_batch(compiled, ctx, self.batches, i, delta, bm)
        bm.wall_seconds = time.perf_counter() - started
        if ctx.sanitizer is not None:
            engine.metrics.sanitize_seconds = ctx.sanitizer.seconds
        if obs.enabled:
            engine._sample_metrics(ctx, bm, i)
            obs.flush()
        return engine._make_result(compiled, ctx, i, self.num_batches, bm)

    def close(self) -> None:
        """Release everything the run acquired (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.run_span:
            self.run_span.__exit__(None, None, None)
        if self.ctx.sanitizer is not None:
            self.ctx.sanitizer.deactivate()
        self.obs.flush()


def _finalize_row(row: dict[str, object]) -> dict[str, object]:
    """At the final batch estimates are exact; collapse them to scalars."""
    return {
        k: (v.value if isinstance(v, UncertainValue) else v)
        for k, v in row.items()
    }
