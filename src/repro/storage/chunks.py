"""On-disk chunked columnar tables (Arrow-IPC in spirit, NumPy in practice).

A table is a directory::

    table/
      meta.json        format tag, schema, chunk row counts, dictionaries
      <column>.bin     contiguous little-endian buffer, all chunks back to back
      <column>.mask.bin   optional null bitmask (uint8, 1 = null)

Numeric columns are stored raw; ``STRING`` columns are dictionary-encoded
(int32 codes in the ``.bin`` file, the dictionary in ``meta.json``) with
one dictionary per column for the whole table — the same page then backs
every chunk's :class:`~repro.storage.columns.EncodedColumn`, so codes
remain comparable across chunks and across the operators they flow into.

Reading memory-maps each buffer (``mode="r"``): a chunk's numeric columns
are zero-copy views into the mapping, so scanning a table never
materializes it — peak memory is one chunk's object cells plus the maps.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Iterator, Mapping

import numpy as np

from repro.errors import ReproError
from repro.relational.relation import LazyTrials, Relation
from repro.relational.schema import ColumnType, Schema
from repro.storage.columns import CODE_DTYPE, DictPage, EncodedColumn

_FORMAT = "iolap-chunks-v1"

#: On-disk dtypes (explicit endianness; bool has none).
_DISK_DTYPES = {
    ColumnType.INT: "<i8",
    ColumnType.FLOAT: "<f8",
    ColumnType.BOOL: "|b1",
}
_CODES_DTYPE = "<i4"

#: Aliasing-observer hook for memmapped chunk views, installed by the
#: buffer sanitizer (``repro.analysis.sanitize``). Called as
#: ``hook(disk_table, view_relation)`` for every relation built over the
#: memory mapping; ``None`` (the default) costs one comparison per chunk.
_chunk_view_hook: Callable[["DiskTable", Relation], None] | None = None


def set_chunk_view_hook(
    hook: Callable[["DiskTable", Relation], None] | None,
) -> None:
    """Install (or clear, with ``None``) the chunk-view observer."""
    global _chunk_view_hook
    _chunk_view_hook = hook


class ChunkWriter:
    """Streaming writer: each :meth:`append` call persists one chunk.

    Buffers are flushed per append, so ingestion memory is bounded by one
    chunk regardless of table size. ``STRING`` columns grow a shared
    dictionary as new values appear (append-only, so earlier chunks'
    codes stay valid).
    """

    def __init__(self, path: str, schema: Schema):
        self.path = path
        self.schema = schema
        os.makedirs(path, exist_ok=True)
        self._chunk_rows: list[int] = []
        self._pages: dict[str, DictPage] = {}
        self._files = {}
        self._mask_files: dict[str, object] = {}
        self._has_nulls: dict[str, bool] = {}
        self._closed = False
        for col in schema:
            if col.ctype is ColumnType.STRING:
                self._pages[col.name] = DictPage()
            self._files[col.name] = open(os.path.join(path, f"{col.name}.bin"), "wb")

    def append(self, columns: Mapping[str, np.ndarray]) -> None:
        """Persist one chunk given column arrays of equal length."""
        if self._closed:
            raise ReproError("ChunkWriter is closed")
        n = None
        for col in self.schema:
            arr = np.asarray(columns[col.name])
            if n is None:
                n = len(arr)
            elif len(arr) != n:
                raise ReproError(
                    f"chunk column {col.name!r} has {len(arr)} rows, expected {n}"
                )
            if col.ctype is ColumnType.STRING:
                codes, null_mask = self._pages[col.name].encode_array(arr)
                self._files[col.name].write(
                    codes.astype(_CODES_DTYPE, copy=False).tobytes()
                )
                self._write_mask(col.name, null_mask, n)
            else:
                dtype = _DISK_DTYPES[col.ctype]
                self._files[col.name].write(arr.astype(dtype, copy=False).tobytes())
        self._chunk_rows.append(n if n is not None else 0)

    def append_relation(self, rel: Relation) -> None:
        self.append(rel.columns)

    def _write_mask(self, name: str, null_mask: np.ndarray | None, n: int) -> None:
        f = self._mask_files.get(name)
        if null_mask is None and f is None:
            return
        if f is None:
            # First nulls for this column: open the mask file and backfill
            # the already-written (null-free) rows.
            f = open(os.path.join(self.path, f"{name}.mask.bin"), "wb")
            self._mask_files[name] = f
            prior = sum(self._chunk_rows)
            if prior:
                f.write(np.zeros(prior, dtype=np.uint8).tobytes())
        if null_mask is None:
            f.write(np.zeros(n, dtype=np.uint8).tobytes())
        else:
            self._has_nulls[name] = True
            f.write(null_mask.astype(np.uint8, copy=False).tobytes())

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for f in self._files.values():
            f.close()
        for f in self._mask_files.values():
            f.close()
        meta = {
            "format": _FORMAT,
            "num_rows": sum(self._chunk_rows),
            "chunk_rows": self._chunk_rows,
            "columns": [
                {
                    "name": col.name,
                    "type": col.ctype.name,
                    "encoding": "dict" if col.ctype is ColumnType.STRING else "plain",
                    "dtype": _CODES_DTYPE
                    if col.ctype is ColumnType.STRING
                    else _DISK_DTYPES[col.ctype],
                    **(
                        {
                            "dictionary": self._pages[col.name].tolist(),
                            "has_nulls": self._has_nulls.get(col.name, False),
                        }
                        if col.ctype is ColumnType.STRING
                        else {}
                    ),
                }
                for col in self.schema
            ],
        }
        with open(os.path.join(self.path, "meta.json"), "w") as f:
            json.dump(meta, f)

    def __enter__(self) -> "ChunkWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class DiskTable:
    """Reader over a chunked table directory; buffers are memory-mapped."""

    def __init__(self, path: str):
        self.path = path
        with open(os.path.join(path, "meta.json")) as f:
            meta = json.load(f)
        if meta.get("format") != _FORMAT:
            raise ReproError(f"not an iolap chunk table: {path}")
        self.num_rows: int = meta["num_rows"]
        self.chunk_rows: list[int] = meta["chunk_rows"]
        self._starts = np.concatenate([[0], np.cumsum(self.chunk_rows)]).astype(np.intp)
        self.schema = Schema(
            [(c["name"], ColumnType[c["type"]]) for c in meta["columns"]]
        )
        self._buffers: dict[str, np.ndarray] = {}
        self._masks: dict[str, np.ndarray] = {}
        self._pages: dict[str, DictPage] = {}
        for c in meta["columns"]:
            name = c["name"]
            fname = os.path.join(path, f"{name}.bin")
            dtype = np.dtype(c["dtype"])
            if self.num_rows:
                self._buffers[name] = np.memmap(
                    fname, dtype=dtype, mode="r", shape=(self.num_rows,)
                )
            else:
                self._buffers[name] = np.empty(0, dtype=dtype)
            if c["encoding"] == "dict":
                page = DictPage()
                page.encode_values(c["dictionary"])
                self._pages[name] = page
                if c.get("has_nulls"):
                    self._masks[name] = np.memmap(
                        os.path.join(path, f"{name}.mask.bin"),
                        dtype=np.uint8,
                        mode="r",
                        shape=(self.num_rows,),
                    )

    @property
    def num_chunks(self) -> int:
        return len(self.chunk_rows)

    def page(self, name: str) -> DictPage:
        """The shared dictionary page of one encoded column."""
        return self._pages[name]

    def _slice_relation(self, start: int, stop: int) -> Relation:
        n = stop - start
        cols: dict[str, np.ndarray] = {}
        encodings: dict[str, EncodedColumn] = {}
        for col in self.schema:
            name = col.name
            buf = self._buffers[name][start:stop]
            if name in self._pages:
                codes = np.asarray(buf, dtype=CODE_DTYPE)
                mask_buf = self._masks.get(name)
                null_mask = (
                    None
                    if mask_buf is None
                    else np.asarray(mask_buf[start:stop], dtype=bool)
                )
                enc = EncodedColumn(self._pages[name], codes, null_mask)
                encodings[name] = enc
                cols[name] = enc.materialize()
            else:
                cols[name] = buf
        view = Relation._from_parts(
            self.schema,
            cols,
            np.ones(n, dtype=np.float64),
            # Global row ids: a chunk streamed on its own keeps the
            # bootstrap weights its rows have in the whole table.
            LazyTrials(np.arange(start, stop)),
            encodings=encodings,
        )
        if _chunk_view_hook is not None:
            _chunk_view_hook(self, view)
        return view

    def chunk(self, i: int) -> Relation:
        """Chunk ``i`` as a relation; numeric columns are zero-copy views."""
        if not 0 <= i < self.num_chunks:
            raise ReproError(f"chunk {i} out of range (have {self.num_chunks})")
        return self._slice_relation(int(self._starts[i]), int(self._starts[i + 1]))

    def iter_chunks(self) -> Iterator[Relation]:
        for i in range(self.num_chunks):
            yield self.chunk(i)

    def relation(self) -> Relation:
        """The whole table as one relation (numeric columns still mapped)."""
        return self._slice_relation(0, self.num_rows)
