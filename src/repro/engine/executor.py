"""Run a compiled query's units within one batch.

The compiler emits execution units in block-topological order, each
declaring the lineage-block ids it ``produces`` and ``consumes``; a unit
therefore only reads blocks published by units before it, and
:func:`run_units` runs them one by one in that order.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.core.blocks import RuntimeContext
from repro.core.compiler import ExecutionUnit


def run_units(units: Sequence[ExecutionUnit], ctx: RuntimeContext) -> None:
    """Run every unit of one batch in compiler order, timing each."""
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
