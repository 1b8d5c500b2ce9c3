"""Poissonized bootstrap (Section 7, rewrite step 2).

The error-estimation substrate: instead of materializing resampled
datasets, each source tuple is tagged with ``T`` independent Poisson(1)
multiplicities — one per bootstrap trial. These per-trial multiplicities
ride through the plan exactly like ordinary multiplicities (filters zero
them, joins multiply them, aggregates sum them), so after any aggregate
the ``T`` per-trial results form an empirical distribution of the
estimator, from which standard errors, confidence intervals, and the
variation ranges of Section 5 are all derived.

A row's ``T`` weights are a pure function of ``(seed, streamed table,
global row id, trial)`` — a counter-based hash, no generator state — so
every scan of the streamed table inside one query and every
failure-recovery replay observes identical weights, whatever the batch
count or partition mode, and only the rows that survive to a consumer of
trials are ever drawn
(:class:`~repro.relational.relation.LazyTrials`).
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


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on a ``uint64`` array (callers
    silence the wrap-around: ``np.errstate(over="ignore")``)."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def trial_multiplicities(
    num_rows: int,
    num_trials: int,
    seed: int,
    table: str,
    row_ids: np.ndarray | None = None,
) -> np.ndarray:
    """A (num_rows, num_trials) ``uint8`` matrix of Poisson(1) trial counts.

    Row ``i`` holds the weights of global row ``row_ids[i]`` of ``table``
    (``arange(num_rows)`` when omitted); ids may repeat or come in any
    order. Each row id is hashed with the ``(seed, table)`` key into a
    splitmix64 stream start, one 64-bit word of that stream feeds four
    trials (16 uniform bits each, read little-endian so every host agrees)
    and each lane is mapped through :data:`_POISSON1`. Trial ``t`` of a
    row therefore does not depend on ``num_trials``, on the other rows of
    the call or on any earlier call. Counts stay ``uint8`` until something
    multiplies them by a float; callers must never sum them or multiply
    two of them in ``uint8``.
    """
    ids = np.arange(num_rows) if row_ids is None else np.asarray(row_ids)
    words = -(-num_trials // 4)
    # CRC32 rather than hash(): stable across processes and replays.
    key = np.uint64((seed ^ zlib.crc32(table.encode("utf-8")) << 32) & (2**64 - 1))
    with np.errstate(over="ignore"):
        start = mix64((ids.astype(np.uint64) + np.uint64(1)) * _GOLDEN ^ mix64(key * _GOLDEN))
        steps = np.arange(1, words + 1, dtype=np.uint64) * _GOLDEN
        bits = mix64(start[:, None] + steps).astype("<u8", copy=False).view("<u2")
    counts = np.take(_POISSON1, bits)
    return counts if 4 * words == num_trials else np.ascontiguousarray(counts[:, :num_trials])


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
