"""Variation ranges and integrity failure bookkeeping (Section 5.1).

The :class:`RangeMonitor` publishes, for every uncertain cell at a
lineage-block boundary, the paper's variation-range estimate

``R(u) = [min(û) − ε·σ(û), max(û) + ε·σ(û)]``

hulled with the running point estimate (whose side classification's point
decisions depend on) and guarded against degenerate bootstraps (see
:meth:`VariationRange.from_trials`). Classifiers prune near-deterministic
tuples against these ranges.

Integrity of the pruning decisions is enforced where the decisions live:
each online operator records a *sentinel* for every decision it resolved
(the det-side value and the expected outcome) and re-checks the tightest
sentinels against the current point estimates every batch
(:mod:`repro.core.sentinels`). A violated sentinel raises
:class:`~repro.errors.RangeIntegrityError`; the controller then rebuilds
all operator state by replaying the processed batches conservatively
(ranges frozen to "everything" → no pruning during the replay), after
which pruning resumes with fresh ranges. This protects exactly the
Theorem-1 property — the delivered partial result equals ``Q(D_i)`` —
while avoiding spurious recoveries for cells whose ranges are never used.
"""

from __future__ import annotations

import numpy as np

from repro.core.values import VariationRange
from repro.kernels.ranges import batched_range_bounds


class RangeMonitor:
    """Publishes variation ranges and counts integrity failures."""

    def __init__(self, slack: float = 2.0, enabled: bool = True):
        self.slack = slack
        self.enabled = enabled
        #: Count of integrity failures observed (drives Figure 9(d)).
        self.failures = 0
        #: While True (failure-recovery replay), published ranges are
        #: unbounded, so no pruning happens — which is what makes the
        #: replay unconditionally correct and recovery terminate.
        self.replaying = False

    def observe(self, value: float, trials: np.ndarray) -> VariationRange:
        """This batch's range for one cell.

        With the monitor disabled (OPT1 off) or during a recovery replay,
        every cell keeps the unbounded range, so range-based pruning
        degenerates to "never prune".
        """
        if not self.enabled or self.replaying:
            return VariationRange.everything()
        fresh = VariationRange.from_trials(trials, self.slack)
        if np.isfinite(value):
            fresh = VariationRange(min(fresh.lo, value), max(fresh.hi, value))
        return fresh

    def observe_batch(
        self, points: np.ndarray, trials: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`observe` over every group of one column:
        ``points (G,)``, ``trials (G, T)`` -> ``(lo, hi)`` arrays, entry for
        entry the ranges the per-cell loop would produce
        (:func:`repro.kernels.ranges.batched_range_bounds`)."""
        if not self.enabled or self.replaying:
            g = len(points)
            return np.full(g, -np.inf), np.full(g, np.inf)
        return batched_range_bounds(points, trials, self.slack)

    def observe_columns(
        self, columns: list[tuple[np.ndarray, np.ndarray]]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """:meth:`observe_batch` over every ``(points, trials)`` column of
        one block in a single call: the columns are stacked row-wise and
        the bounds split back per column. ``batched_range_bounds`` reduces
        row by row, so each column's bounds are the bits its own call
        would give."""
        if not columns:
            return []
        lo, hi = self.observe_batch(
            np.concatenate([points for points, _ in columns]),
            np.concatenate([trials for _, trials in columns]),
        )
        bounds, start = [], 0
        for points, _ in columns:
            stop = start + len(points)
            bounds.append((lo[start:stop], hi[start:stop]))
            start = stop
        return bounds

    def record_failure(self) -> None:
        self.failures += 1
