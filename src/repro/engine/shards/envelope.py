"""Shard worker protocol: pickle-able task/result envelopes + row hashing.

Everything that crosses the process boundary is defined here, as plain
dataclasses over already-picklable engine types (:class:`Relation`,
:class:`PartialResult` rows, :class:`BatchMetrics`). The parent builds
one :class:`InitTask` per live shard, opens that shard's session from it
and, from batch 2 on, hands it to the shard's worker as a process
argument (a forked worker inherits it copy-on-write instead of
unpickling it), then sends one :class:`BatchTask` per mini-batch; the
worker answers each batch with a :class:`ShardResult`
(or a :class:`ShardFailure` carrying the formatted traceback — raw
exceptions never cross the pipe, so an unpicklable error cannot wedge
the scheduler).

Shard ownership is a pure function of the row's shard-key values —
:func:`shard_ids` — computed once per run by the parent and handed to
every shard with the run's batch partition, so a respawned worker
gathers exactly the rows its predecessor owned.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.bootstrap.poisson import mix64
from repro.core.blocks import OnlineConfig
from repro.metrics.stats import BatchMetrics
from repro.relational.algebra import PlanNode
from repro.relational.relation import Relation
from repro.storage.columns import EncodedColumn

_FNV_PRIME = np.uint64(1099511628211)
_FNV_OFFSET = np.uint64(14695981039346656037)


@dataclass(frozen=True)
class ShardSpec:
    """One worker's identity: which slice of the key space it owns."""

    index: int
    count: int
    key: tuple[str, ...]


@dataclass
class InitTask:
    """Everything a worker needs to build its shard-local engine."""

    tables: dict[str, Relation]
    streamed_table: str
    plan: PlanNode
    config: OnlineConfig
    shard: ShardSpec
    #: Each streamed row's shard (:func:`shard_ids`), hashed once per run
    #: by the parent.
    owners: np.ndarray
    #: Each batch's sorted global row indices, partitioned once per run by
    #: the parent with the serial engine's seeded partitioner.
    batches: list[np.ndarray]
    #: Whether the parent's observability session is live: workers skip
    #: computing per-batch counters (state walks) when nobody reads them.
    collect_counters: bool = True


@dataclass(frozen=True)
class BatchTask:
    """Advance the worker's run by one mini-batch."""

    batch_no: int
    #: True while re-driving already-processed batches after a respawn:
    #: the worker processes them identically (deterministic replay); the
    #: parent discards the result envelopes.
    replay: bool = False


@dataclass(frozen=True)
class StopTask:
    """Close the worker's run session and exit the worker loop."""


@dataclass
class ShardResult:
    """One shard's contribution to one batch's merged PartialResult."""

    shard_index: int
    batch_no: int
    #: The shard's result rows (UncertainValue cells ride along intact,
    #: so holistic/quantile sinks merge at full trial fidelity).
    rows: list[dict[str, object]]
    metrics: BatchMetrics
    #: Shard-local observability counters, merged into the parent's
    #: metrics registry under ``shard.<i>.*``.
    counters: dict[str, float] = field(default_factory=dict)
    #: Cumulative CPU seconds of the worker process (``process_time``) —
    #: the scaling benchmark's critical-path input.
    cpu_seconds: float = 0.0
    #: Cumulative wall seconds of the worker's sanitizer (0 when off);
    #: the parent reports their sum as ``RunMetrics.sanitize_seconds``.
    sanitize_seconds: float = 0.0


@dataclass
class ShardFailure:
    """A worker-fatal error, shipped as formatted text (always picklable)."""

    shard_index: int
    batch_no: int
    kind: str
    message: str
    traceback: str


def shard_ids(rel: Relation, key: tuple[str, ...], count: int) -> np.ndarray:
    """Deterministic shard assignment per row from its key-column values.

    FNV-1a over per-column splitmix64-mixed value hashes: stable across
    processes and runs (no Python hash randomization), vectorized for
    numeric columns. All rows of one group land on one shard because the
    hash reads only the shard-key columns.
    """
    with np.errstate(over="ignore"):
        h = np.full(len(rel), _FNV_OFFSET, dtype=np.uint64)
        for name in key:
            hashed = _column_hash(rel.columns[name], rel.encodings.get(name))
            h = (h ^ mix64(hashed)) * _FNV_PRIME
        return (h % np.uint64(count)).astype(np.int64)


def _column_hash(arr: np.ndarray, enc: "EncodedColumn | None" = None) -> np.ndarray:
    """A fresh ``uint64`` per row: the value's bits, or for strings and
    objects the CRC32 of its stable text form — computed once per distinct
    value (shard keys are group-key columns: few values, many rows) and
    gathered, never once per row."""
    kind = arr.dtype.kind
    if kind in "iub":
        return arr.astype(np.uint64)
    if kind == "f":
        return arr.astype(np.float64).view(np.uint64)
    if enc is not None and len(enc.page) <= len(arr):
        # Cells are the page's canonical objects: hash the dictionary.
        return _text_hashes(enc.page.tolist())[enc.codes]
    values = arr.tolist()
    distinct = dict.fromkeys(values)
    if not all(type(x) is str for x in distinct):
        # Equal keys of different types (1, 1.0, True) differ as text.
        return _text_hashes(values)
    code = dict(zip(distinct, range(len(distinct))))
    return _text_hashes(distinct)[[code[x] for x in values]]


def _text_hashes(values) -> np.ndarray:
    return np.fromiter(
        (zlib.crc32(str(x).encode("utf-8")) for x in values),
        dtype=np.uint64,
        count=len(values),
    )
