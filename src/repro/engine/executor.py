"""Batch executors: schedule a compiled query's units within one batch.

The compiler emits execution units in block-topological order, each
declaring the lineage-block ids it ``produces`` and ``consumes``. The
serial executor simply runs them in that order; the parallel executor
turns the declarations into a dependency DAG and runs independent units
concurrently in deterministic *waves* (a unit joins a wave once every
block it consumes has been published by a completed wave).

Determinism: worker threads record their counters into per-unit scratch
:class:`~repro.metrics.stats.BatchMetrics` (installed thread-locally via
``ctx.push_metrics``) which are merged in unit-index order after the
wave, so parallel totals equal serial totals bit for bit. Cross-unit
dataflow goes exclusively through ``ctx.blocks`` entries keyed by the
declared block ids, and distinct units never write the same id, so no
locking is needed beyond the merge barrier.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from repro.core.blocks import RuntimeContext
from repro.core.compiler import ExecutionUnit
from repro.metrics.stats import BatchMetrics
from repro.obs.tracer import TraceBuffer


class BatchExecutor:
    """Runs all units of a compiled query for one batch."""

    name = "base"

    def execute(self, units: Sequence[ExecutionUnit], ctx: RuntimeContext) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release scheduler resources (thread pools)."""


class SerialExecutor(BatchExecutor):
    """Runs units one by one in compiler (block-topological) order."""

    name = "serial"

    def execute(self, units: Sequence[ExecutionUnit], ctx: RuntimeContext) -> None:
        if ctx.verifier is not None:
            ctx.verifier.begin_batch(ctx.batch_no)
        if ctx.sanitizer is not None:
            ctx.sanitizer.begin_batch(ctx.batch_no, ctx.delta)
        for unit in units:
            started = time.perf_counter()
            _run_with_retry(unit, ctx)
            elapsed = time.perf_counter() - started
            ctx.metrics.add_op_seconds(unit.label, elapsed)
            ctx.metrics.unit_seconds += elapsed


def dependency_waves(units: Sequence[ExecutionUnit]) -> list[list[int]]:
    """Partition unit indices into waves of mutually independent units.

    A unit is ready once every block id it consumes has been produced by
    an earlier wave. Ids no unit in the list produces are treated as
    already available (they come from outside this schedule). Falls back
    to one-unit-per-wave serial order if the declarations ever fail to
    make progress, so a bad declaration degrades to correct-but-serial.
    """
    producible = set()
    for unit in units:
        producible |= unit.produces
    available: set[int] = set()
    remaining = list(range(len(units)))
    waves: list[list[int]] = []
    while remaining:
        wave = [
            i
            for i in remaining
            if all(
                dep in available or dep not in producible
                for dep in units[i].consumes
            )
        ]
        if not wave:
            waves.extend([i] for i in remaining)
            break
        waves.append(wave)
        in_wave = set(wave)
        for i in wave:
            available |= units[i].produces
        remaining = [i for i in remaining if i not in in_wave]
    return waves


class ParallelExecutor(BatchExecutor):
    """Runs independent units concurrently on a thread pool.

    Produces per-batch results identical to :class:`SerialExecutor`: the
    schedule respects the declared dependency DAG, and metrics are merged
    deterministically (see module docstring).
    """

    name = "parallel"

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-exec"
            )
        return self._pool

    def execute(self, units: Sequence[ExecutionUnit], ctx: RuntimeContext) -> None:
        if ctx.verifier is not None:
            ctx.verifier.begin_batch(ctx.batch_no)
        if ctx.sanitizer is not None:
            ctx.sanitizer.begin_batch(ctx.batch_no, ctx.delta)
        pool = self._ensure_pool()
        tracer = ctx.obs.tracer
        scratches: list[tuple[int, BatchMetrics]] = []
        #: Per-unit trace scratch, merged in unit-index order below — the
        #: same determinism discipline as the metrics scratches.
        buffers: list[tuple[int, TraceBuffer]] = []
        failures: list[tuple[int, BaseException]] = []
        for wave_no, wave in enumerate(dependency_waves(units)):
            wave_span = tracer.span(
                "wave", cat="exec", batch=ctx.batch_no,
                wave=wave_no, units=len(wave),
            ) if tracer.enabled else None
            if wave_span:
                wave_span.__enter__()
            try:
                if len(wave) == 1:
                    i = wave[0]
                    scratch = BatchMetrics(ctx.batch_no)
                    scratches.append((i, scratch))
                    buffer = _unit_buffer(tracer, units[i], buffers, i)
                    err = _run_unit(units[i], ctx, scratch, buffer)
                    if err is not None:
                        failures.append((i, err))
                else:
                    futures = []
                    for i in wave:
                        scratch = BatchMetrics(ctx.batch_no)
                        scratches.append((i, scratch))
                        buffer = _unit_buffer(tracer, units[i], buffers, i)
                        futures.append(
                            (i, pool.submit(_run_unit, units[i], ctx, scratch, buffer))
                        )
                    for i, future in futures:
                        err = future.result()
                        if err is not None:
                            failures.append((i, err))
            finally:
                if wave_span:
                    wave_span.__exit__(None, None, None)
            if failures:
                break
            if ctx.sanitizer is not None:
                # Wave barrier: cross-check the per-batch buffer access
                # log between the threads that just ran (SAN003).
                ctx.sanitizer.check_batch()
        for _, scratch in sorted(scratches, key=lambda pair: pair[0]):
            ctx.metrics.merge_from(scratch)
        if buffers:
            tracer.merge(
                buf for _, buf in sorted(buffers, key=lambda pair: pair[0])
            )
        if failures:
            # Deterministic failure choice: the lowest unit index, i.e.
            # the one the serial executor would have hit first. The other
            # same-wave failures are attached (notes + __context__ chain)
            # and surfaced as tracer warnings so none is silently lost.
            failures.sort(key=lambda pair: pair[0])
            primary_index, primary = failures[0]
            for index, err in failures[1:]:
                tracer.warning(
                    "wave-multi-failure", batch=ctx.batch_no,
                    unit=units[index].label,
                    primary_unit=units[primary_index].label,
                    message=str(err),
                )
                if hasattr(primary, "add_note"):  # Python >= 3.11
                    primary.add_note(
                        f"[executor] unit {units[index].label!r} also "
                        f"failed in the same wave: {err!r}"
                    )
            _chain_failures(primary, [err for _, err in failures[1:]])
            raise primary

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def _chain_failures(primary: BaseException, others: list[BaseException]) -> None:
    """Thread suppressed same-wave failures onto ``primary.__context__``.

    A full traceback of the raised failure then renders every failure of
    the wave. Walks to the end of each chain and guards against linking
    an exception twice (distinct units can, in principle, surface the
    same exception object).
    """
    seen = {id(primary)}
    tail = primary
    while tail.__context__ is not None and id(tail.__context__) not in seen:
        tail = tail.__context__
        seen.add(id(tail))
    for err in others:
        if id(err) in seen:
            continue
        tail.__context__ = err
        seen.add(id(err))
        tail = err
        while tail.__context__ is not None and id(tail.__context__) not in seen:
            tail = tail.__context__
            seen.add(id(tail))


def _unit_buffer(
    tracer, unit: ExecutionUnit, buffers: list[tuple[int, TraceBuffer]], index: int
) -> TraceBuffer | None:
    """Allocate (and register) a per-unit trace scratch, if tracing."""
    if not tracer.enabled:
        return None
    buffer = TraceBuffer(track=f"unit:{unit.label}")
    buffers.append((index, buffer))
    return buffer


def _run_unit(
    unit: ExecutionUnit,
    ctx: RuntimeContext,
    scratch: BatchMetrics,
    buffer: TraceBuffer | None = None,
) -> BaseException | None:
    """Run one unit with thread-local scratch metrics (and, when tracing,
    a thread-local scratch trace buffer); report, don't raise (the
    scheduler decides deterministically which failure wins)."""
    tracer = ctx.obs.tracer
    ctx.push_metrics(scratch)
    if buffer is not None:
        tracer.push_buffer(buffer)
    started = time.perf_counter()
    try:
        _run_with_retry(unit, ctx)
        return None
    except BaseException as err:  # noqa: BLE001 — forwarded to the scheduler
        return err
    finally:
        elapsed = time.perf_counter() - started
        scratch.add_op_seconds(unit.label, elapsed)
        scratch.unit_seconds += elapsed
        if buffer is not None:
            tracer.pop_buffer()
        ctx.pop_metrics()


def _run_with_retry(unit: ExecutionUnit, ctx: RuntimeContext) -> None:
    """Run one unit body, absorbing transient failures.

    Only errors marked ``transient`` (:class:`~repro.errors.
    TransientUnitError`) are retried at once, up to
    ``OnlineConfig.unit_retry_attempts`` extra attempts; everything else
    propagates immediately. The ``unit`` fault
    probe fires *before* the unit body, so a retried injected fault
    re-runs the unit from an untouched slate — no store mutation is ever
    applied twice. (A real transient error raised mid-body would need an
    idempotent body; none of the built-in units raise those.)
    """
    retries = ctx.config.unit_retry_attempts
    tracer = ctx.obs.tracer
    attempt = 0
    while True:
        attempt += 1
        try:
            # One "unit" span per *attempt*, tagged with its ordinal: a
            # retried unit renders as separate slices instead of
            # overlapping spans with identical args.
            if tracer.enabled:
                with tracer.span(
                    "unit", cat="exec", batch=ctx.batch_no,
                    unit=unit.label, attempt=attempt,
                ):
                    ctx.fault("unit", unit.label)
                    unit.run(ctx)
            else:
                ctx.fault("unit", unit.label)
                unit.run(ctx)
            return
        except BaseException as err:  # noqa: BLE001 — filtered on `transient`
            if not getattr(err, "transient", False) or attempt > retries:
                raise
            ctx.obs.tracer.warning(
                "unit-retry", batch=ctx.batch_no, unit=unit.label,
                attempt=attempt, message=str(err),
            )


def make_executor(spec: str | BatchExecutor, max_workers: int | None = None) -> BatchExecutor:
    """Resolve an executor name (``"serial"``/``"parallel"``) or instance."""
    if isinstance(spec, BatchExecutor):
        return spec
    if spec == "serial":
        return SerialExecutor()
    if spec == "parallel":
        return ParallelExecutor(max_workers=max_workers)
    raise ValueError(f"unknown executor {spec!r} (expected 'serial' or 'parallel')")
