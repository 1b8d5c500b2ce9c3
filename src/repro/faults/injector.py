"""The fault injector: deterministic failures at designated engine seams.

The injector holds an armed :class:`~repro.faults.plan.FaultPlan` and is
probed from three seams:

* **sentinel / batch** — :meth:`FaultInjector.fire` from
  ``RuntimeContext.fault``: raises a
  :class:`~repro.errors.RangeIntegrityError` exactly like a real
  variation-range violation, with ``recover_from_batch = batch - 1`` (no
  actual decision flipped, so the immediately preceding batch is
  consistent). Guarded against firing during a recovery replay — a raise
  there would escape the controller's handler, and re-faulting the replay
  of an already-faulted batch would livelock recovery.
* **unit** — also via :meth:`fire`, from the unit loop *before* the unit
  body runs: raises a :class:`~repro.errors.TransientUnitError`, which
  the unit retry policy absorbs (so a fault with ``*times`` up to
  ``OnlineConfig.unit_retry_attempts`` is invisible in the results).
* **checkpoint** — :meth:`claim` from the controller after taking a
  checkpoint: returns True when the checkpoint should be corrupted
  (exercising recovery's fall-back to the next-older snapshot).

A fired spec decrements its remaining count, so ``times`` is honored
across the whole run.
"""

from __future__ import annotations

from repro.errors import RangeIntegrityError, ReproError, TransientUnitError
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
        """Consume one armed firing matching (kind, batch, label)."""
        for i, spec in enumerate(self.plan.specs):
            if spec.kind != kind or self._remaining[i] <= 0:
                continue
            if spec.batch != batch:
                continue
            if spec.target is not None and (
                label is None or spec.target not in label
            ):
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
                    f"injected {point} fault at batch {ctx.batch_no}{where}",
                    recover_from_batch=ctx.batch_no - 1,
                )
        elif point == "unit":
            if self.claim("unit", ctx.batch_no, label):
                raise TransientUnitError(
                    f"injected unit fault at batch {ctx.batch_no} ({label})"
                )
        else:
            raise ReproError(f"unknown fault point {point!r}")

    def exhausted(self) -> bool:
        """True once every armed firing has been consumed."""
        return not any(self._remaining)
