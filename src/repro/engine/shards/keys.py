"""Row ownership under a shard key: which shard each row belongs to.

:func:`shard_ids` is a pure function of a row's shard-key values (the
key :func:`~repro.engine.shards.planner.analyze_shardability` reports),
stable across processes and runs, so every row of one group lands on
one shard. No engine partitions by it today: sharded runs execute on
the serial engine. The assignment is pinned by the tests because it is
the split a key-partitioned executor must reproduce.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.bootstrap.poisson import mix64
from repro.relational.relation import Relation
from repro.storage.columns import EncodedColumn

_FNV_PRIME = np.uint64(1099511628211)
_FNV_OFFSET = np.uint64(14695981039346656037)


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
