"""Poissonized bootstrap (Section 7, rewrite step 2).

The error-estimation substrate: instead of materializing resampled
datasets, each source tuple is tagged with ``T`` independent Poisson(1)
multiplicities — one per bootstrap trial. These per-trial multiplicities
ride through the plan exactly like ordinary multiplicities (filters zero
them, joins multiply them, aggregates sum them), so after any aggregate
the ``T`` per-trial results form an empirical distribution of the
estimator, from which standard errors, confidence intervals, and the
variation ranges of Section 5 are all derived.

Draws are deterministic per ``(seed, table, batch)`` so that multiple
scans of the same streamed table inside one query observe identical trial
weights — required for the bootstrap to be consistent across a query's
lineage blocks — and so that failure-recovery replays reproduce history.
"""

from __future__ import annotations

import math
import zlib

import numpy as np


def _poisson1_table() -> np.ndarray:
    """Inverse CDF of Poisson(1) over all 65 536 values of 16 uniform bits.

    Entry ``u`` is the count ``k`` with ``CDF(k-1) <= u / 65536 < CDF(k)``,
    the CDF rounded to the nearest multiple of 2**-16. Every ``P(k)`` is
    therefore exact to within 2**-16 (1.5e-5); the table's mean is 1.0,
    its variance 0.99997 and its largest count 8 (``P(k >= 9)`` is 1.1e-6,
    less than half a table entry).
    """
    # e**-1 / k! for k < 16; the mass beyond is below 1e-13.
    pmf = math.exp(-1.0) / np.cumprod(np.maximum(np.arange(16.0), 1.0))
    edges = np.rint(np.cumsum(pmf) * 65536.0)
    return np.searchsorted(edges, np.arange(65536.0), side="right").astype(np.uint8)


_POISSON1 = _poisson1_table()


def trial_multiplicities(
    num_rows: int, num_trials: int, seed: int, table: str, batch_no: int
) -> np.ndarray:
    """A (num_rows, num_trials) ``uint8`` matrix of Poisson(1) trial counts.

    Sixteen uniform bits per cell, mapped through :data:`_POISSON1`. The
    bytes are read little-endian so the stream is the same on every host.
    Counts stay ``uint8`` until something multiplies them by a float;
    callers must never sum them or multiply two of them in ``uint8``.
    """
    rng = np.random.default_rng(_derive_seed(seed, table, batch_no))
    bits = np.frombuffer(rng.bytes(2 * num_rows * num_trials), dtype="<u2")
    return np.take(_POISSON1, bits).reshape(num_rows, num_trials)


def _derive_seed(seed: int, table: str, batch_no: int) -> np.random.SeedSequence:
    # CRC32 rather than hash(): stable across processes and replays.
    table_code = zlib.crc32(table.encode("utf-8"))
    return np.random.SeedSequence(entropy=seed, spawn_key=(table_code, batch_no))


def bootstrap_stdev(trials: np.ndarray) -> float:
    """Standard error estimate from trial outputs (NaN-safe)."""
    clean = np.asarray(trials, dtype=np.float64)
    clean = clean[np.isfinite(clean)]
    return float(np.std(clean)) if len(clean) else float("nan")


def bootstrap_ci(trials: np.ndarray, level: float = 0.95) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval from trial outputs."""
    clean = np.asarray(trials, dtype=np.float64)
    clean = clean[np.isfinite(clean)]
    if len(clean) == 0:
        return (float("nan"), float("nan"))
    alpha = (1.0 - level) / 2.0
    return (float(np.quantile(clean, alpha)), float(np.quantile(clean, 1.0 - alpha)))
