"""Columnar storage plane: encoded columns, structured lineage, chunked disk tables.

This package owns the physical representation of relation data:

* :mod:`repro.storage.columns` — append-only dictionary pages and
  dictionary-encoded columns with explicit null masks. Encoding is a
  property of storage (carried across operators), not a per-call cache.
* :mod:`repro.storage.lineage` — structured lineage: an attached
  uncertain column's cells are int32 group ids, and its sidecar names the
  ``(block, column)`` they index.
* :mod:`repro.storage.chunks` / :mod:`repro.storage.ingest` — the on-disk
  chunked columnar format (memory-mapped buffers, Arrow-IPC in spirit)
  and streaming ingestion, so fact tables never materialize as in-memory
  lists.

Buffer ownership: arrays handed out by this layer are shared, not copied.
All in-place writes to column/mask buffers must happen inside this
package; engine code copies before writing (a ``--sanitize`` run raises
SAN001/SAN002 at any write into a handed-out buffer).
"""

from repro.storage.columns import (
    DictPage,
    EncodedColumn,
    encode_relation,
    sidecar_nbytes,
)
from repro.storage.chunks import ChunkWriter, DiskTable
from repro.storage.ingest import ingest_chunks, open_table, write_relation
from repro.storage.lineage import LineageColumn

__all__ = [
    "ChunkWriter",
    "DictPage",
    "DiskTable",
    "EncodedColumn",
    "LineageColumn",
    "encode_relation",
    "ingest_chunks",
    "open_table",
    "sidecar_nbytes",
    "write_relation",
]
