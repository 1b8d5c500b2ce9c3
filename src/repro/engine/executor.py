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
    if ctx.sanitizer is not None:
        ctx.sanitizer.begin_batch(ctx.batch_no, ctx.delta)
    tracer = ctx.obs.tracer
    for unit in units:
        started = time.perf_counter()
        if tracer.enabled:
            with tracer.span("unit", cat="exec", batch=ctx.batch_no, unit=unit.label):
                unit.run(ctx)
        else:
            unit.run(ctx)
        elapsed = time.perf_counter() - started
        ctx.metrics.add_op_seconds(unit.label, elapsed)
        ctx.metrics.unit_seconds += elapsed

