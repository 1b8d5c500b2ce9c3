"""The fault injector: deterministic failures at designated engine seams.

The injector holds an armed :class:`~repro.faults.plan.FaultPlan` and is
probed by :meth:`FaultInjector.fire` from ``RuntimeContext.fault``: a
matching ``sentinel`` or ``batch`` spec raises a
:class:`~repro.errors.RangeIntegrityError` exactly like a real
variation-range violation. It is guarded against firing during a
recovery replay — a raise there would escape the controller's handler,
and re-faulting the replay of an already-faulted batch would livelock
recovery.

A fired spec decrements its remaining count, so ``times`` is honored
across the whole run.
"""

from __future__ import annotations

from repro.errors import RangeIntegrityError, ReproError
from repro.faults.plan import FaultPlan, FaultSpec


class FaultInjector:
    """Arms a fault plan and fires matching faults when probed."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._remaining = [spec.times for spec in plan.specs]
        #: Log of fired faults (spec, batch) in firing order, for tests
        #: and the trace timeline.
        self.fired: list[tuple[FaultSpec, int]] = []

    def claim(self, kind: str, batch: int, label: str | None = None) -> bool:
        """Consume one armed firing matching (kind, batch, label).

        A ``sentinel`` target matches any label containing it."""
        for i, spec in enumerate(self.plan.specs):
            if spec.kind != kind or self._remaining[i] <= 0:
                continue
            if spec.batch != batch:
                continue
            if spec.target is not None and (label is None or spec.target not in label):
                continue
            self._remaining[i] -= 1
            self.fired.append((spec, batch))
            return True
        return False

    def fire(self, point: str, ctx, label: str | None = None) -> None:
        """Probe from an engine seam; raises when an armed fault matches."""
        if point in ("sentinel", "batch"):
            if ctx.monitor.replaying:
                return
            if self.claim(point, ctx.batch_no, label):
                ctx.monitor.record_failure()
                where = f" in {label}" if label else ""
                raise RangeIntegrityError(
                    f"injected {point} fault at batch {ctx.batch_no}{where}"
                )
        else:
            raise ReproError(f"unknown fault point {point!r}")

    def exhausted(self) -> bool:
        """True once every armed firing has been consumed."""
        return not any(self._remaining)
