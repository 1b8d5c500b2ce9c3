"""Batched variation-range estimation for block publishing.

``AggregateOp._publish`` calls ``RangeMonitor.observe`` once per
``(group, spec)`` cell, and each call pays a fresh ``np.min``/``np.max``/
``np.std`` over a T-element trial vector — for a few hundred groups the
NumPy call overhead dwarfs the arithmetic. :func:`batched_range_bounds`
computes the same bounds for a whole column of groups at once by stacking
the trial vectors into a ``(G, T)`` matrix and reducing along axis 1.

Bit-identity contract: for every row the results equal
``VariationRange.from_trials(trials[g], slack)`` hulled with a finite
``points[g]``, exactly as ``RangeMonitor.observe`` produces them.
Axis-1 reductions over a C-contiguous matrix use the same pairwise
summation as the equivalent 1-D calls, so ``min``/``max``/``std`` agree
to the last bit; rows containing non-finite trials (where the reference
filters before reducing) take a per-row fallback that mirrors
``from_trials`` literally. Both run NumPy's ``std`` ufunc sequence
directly (:func:`_std_rows`), without its Python wrapper.
"""

from __future__ import annotations

import numpy as np

_INF = float("inf")


def batched_range_bounds(
    points: np.ndarray, trials: np.ndarray, slack: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``[lo, hi]`` bounds for a ``(G, T)`` matrix of trial vectors.

    Returns ``(lo, hi)`` arrays of shape ``(G,)``. Row semantics match
    ``VariationRange.from_trials`` followed by the hull with the row's
    point estimate when that point is finite:

    * no finite trials -> ``(-inf, inf)``
    * all-identical trials with zero spread -> padded by ``|v| + 1``
    * otherwise ``[min - slack*std, max + slack*std]``
    """
    pts = np.asarray(points, dtype=np.float64)
    t = np.asarray(trials, dtype=np.float64)
    finite = np.isfinite(t)
    ok = np.logical_and.reduce(finite, axis=1)
    if t.shape[1] and np.logical_and.reduce(ok):
        lo, hi = _finite_bounds(np.ascontiguousarray(t), slack)
    else:
        lo = np.full(t.shape[0], -_INF)
        hi = np.full(t.shape[0], _INF)
        if t.shape[1] and ok.any():
            lo[ok], hi[ok] = _finite_bounds(t[ok], slack)
        # Rows with NaN/inf trials are rare (empty-weight AVG cells); run
        # them through the scalar formula so the finite-filtering — and
        # therefore the std over the *cleaned* vector — matches exactly.
        for i in np.flatnonzero(~ok).tolist():
            clean = t[i][finite[i]]
            if len(clean):
                row_lo = float(np.minimum.reduce(clean))
                row_hi = float(np.maximum.reduce(clean))
                spread = float(_std_rows(clean[None])[0]) * slack
                degenerate = row_hi - row_lo == 0.0 and spread == 0.0
                pad = abs(row_hi) + 1.0 if degenerate else spread
                lo[i], hi[i] = row_lo - pad, row_hi + pad
    hull = np.isfinite(pts)
    if hull.any():
        lo[hull] = np.minimum(lo[hull], pts[hull])
        hi[hull] = np.maximum(hi[hull], pts[hull])
    return lo, hi


def _finite_bounds(sub: np.ndarray, slack: float) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` of C-contiguous rows of finite trials."""
    sub_lo = np.minimum.reduce(sub, axis=1)
    sub_hi = np.maximum.reduce(sub, axis=1)
    spread = _std_rows(sub) * slack
    degenerate = (sub_hi - sub_lo == 0.0) & (spread == 0.0)
    pad = np.where(degenerate, np.abs(sub_hi) + 1.0, spread)
    return sub_lo - pad, sub_hi + pad


def _std_rows(sub: np.ndarray) -> np.ndarray:
    """``np.std(sub, axis=1)`` for a C-contiguous float64 ``(G, T)``
    matrix: the ufunc sequence of NumPy's ``_var`` / ``_std`` (mean,
    squared deviations, mean, root), without the wrapper's checks."""
    m = sub.shape[1]
    dev = sub - np.add.reduce(sub, axis=1, keepdims=True) / m
    np.square(dev, out=dev)
    var = np.add.reduce(dev, axis=1) / m
    return np.sqrt(var, out=var)
