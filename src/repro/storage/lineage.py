"""Structured lineage: what the gids of an attached uncertain column index.

Definition 1's lineage across a lineage-block boundary is one pair,
``(rel(γ), t.key)``. The uncertain join attaches a side column by
storing, per row, the *gid* of the row's group in the side block's
append-only :class:`~repro.core.blocks.GroupIndex`: the column's cells
*are* its gids (``CODE_DTYPE``), and a :class:`LineageColumn` in
``Relation.lineage`` names the ``(block, column)`` they index. Row
operations (take, filter, slice, concat) move the gids like any other
column; the sidecar itself has no per-row state.

Gids are stable for a run (``GroupIndex`` never rewinds, not even in a
recovery replay), so columns attached in different batches always
concatenate. Every reader gathers from the block output's gid-indexed
arrays (Section 6.2's broadcast-join lookup).
"""

from __future__ import annotations

from typing import NamedTuple


class LineageColumn(NamedTuple):
    """The ``(block_id, column)`` an attached uncertain column's gids index."""

    block_id: int
    column: str
