"""Structured lineage sidecar: the group ids behind a column of references.

The online operators attach lineage by storing one
:class:`~repro.core.values.LineageRef` object per cell of an object
column. Every such column is produced by one uncertain join against one
published block, so its structure is three facts: the block, the block's
value column, and — per row — the *gid* of the referenced group in the
block's append-only :class:`~repro.core.blocks.GroupIndex`. A
:class:`LineageColumn` records exactly that, at attachment time, and
rides through every ``Relation`` transformation beside the objects.

Gids are stable for a run (``GroupIndex`` never rewinds, not even in a
recovery replay), so sidecars written in different batches always
concatenate. Consumers gather from the block output's gid-indexed
arrays; the row-wise reference paths ignore the sidecar.
"""

from __future__ import annotations

import numpy as np

from repro.storage.columns import CODE_DTYPE


class LineageColumn:
    """Lineage structure of one all-reference column, parallel to its rows."""

    __slots__ = ("block_id", "column", "gids")

    def __init__(self, block_id: int, column: str, gids: np.ndarray) -> None:
        self.block_id = block_id
        self.column = column
        self.gids = gids.astype(CODE_DTYPE, copy=False)

    def __len__(self) -> int:
        return len(self.gids)

    # -- index operations (parallel to Relation transformations) ----------------

    def take(self, indices: np.ndarray) -> "LineageColumn":
        return LineageColumn(self.block_id, self.column, self.gids[indices])

    def slice(self, start: int, stop: int) -> "LineageColumn":
        return LineageColumn(self.block_id, self.column, self.gids[start:stop])

    def concat(self, other: "LineageColumn") -> "LineageColumn | None":
        """Concatenation, or ``None`` (the caller drops the sidecar) for a
        union of columns attached from different blocks."""
        if other.block_id != self.block_id or other.column != self.column:
            return None
        return LineageColumn(
            self.block_id, self.column, np.concatenate([self.gids, other.gids])
        )

    def estimated_bytes(self, seen: set[int] | None = None) -> int:
        return int(self.gids.nbytes)
