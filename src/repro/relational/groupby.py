"""Grouping helpers shared by the batch evaluator and the online sketches."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kernels.codec import _carried_codes, segment_lengths, sort_keys, stable_segments
from repro.relational.relation import Relation

#: A group key is the tuple of group-by column values (``()`` for scalar
#: aggregates, matching the paper's "empty join key" in Figure 2).
GroupKey = tuple


def group_ids(rel: Relation, group_by: Sequence[str]) -> tuple[list[GroupKey], np.ndarray]:
    """Assign a dense group id to each row.

    Returns ``(keys, gids)`` where ``keys[g]`` is the key tuple of group
    ``g`` and ``gids[i]`` the group of row ``i``. Group ids follow first
    appearance order, which keeps online outputs stable across batches.
    A view of :func:`key_segments`.
    """
    keys, segments = key_segments(rel, group_by)
    gids = np.empty(len(rel), dtype=np.intp)
    gids[segments.order] = np.repeat(segments.groups, segments.lengths())
    return keys, gids


def key_segments(
    rel: Relation, group_by: Sequence[str]
) -> tuple[list[GroupKey], "RowSegments"]:
    """The rows grouped by key with one stable sort (:func:`sort_keys`):
    ``(keys, segments)``, ``keys`` in first-appearance order and
    ``segments.groups`` each segment's index into ``keys``."""
    n = len(rel)
    if not group_by:
        return [()], RowSegments.of_gids(np.zeros(n, dtype=np.intp))
    arrays = [rel.column(name) for name in group_by]
    order, starts, ranks, rows = sort_keys(arrays, n, _carried_codes(rel, list(group_by)))
    return list(zip(*(a[rows].tolist() for a in arrays))), RowSegments(order, starts, ranks)


def weighted_sums(
    features: np.ndarray, weights: np.ndarray, gids: np.ndarray, num_groups: int
) -> np.ndarray:
    """Per-group weighted feature sums.

    ``features`` is (k, n), ``weights`` (n,); result is (num_groups, k).
    """
    k = features.shape[0]
    out = np.zeros((num_groups, k), dtype=np.float64)
    for j in range(k):
        out[:, j] = np.bincount(gids, weights=features[j] * weights, minlength=num_groups)
    return out


class RowSegments:
    """The rows of one call grouped by id, for segmented sums.

    One stable argsort of the ids, shared by every sum the call
    accumulates: ``order`` lists the rows group by group (original
    order within a group), ``starts`` the first sorted position of each
    segment and ``groups`` its id. A segment's sum depends only on that
    group's own row sequence, never on which other rows share the call.
    """

    __slots__ = ("order", "starts", "groups")

    def __init__(self, order: np.ndarray, starts: np.ndarray, groups: np.ndarray):
        self.order, self.starts, self.groups = order, starts, groups

    @classmethod
    def of_gids(cls, gids: np.ndarray) -> "RowSegments":
        """The rows grouped by their ids ``gids``."""
        order, starts = stable_segments(gids)
        return cls(order, starts, gids[order[starts]])

    def lengths(self) -> np.ndarray:
        """Rows per segment."""
        return segment_lengths(self.starts, len(self.order))

    def sums(self, sorted_rows: np.ndarray) -> np.ndarray:
        """Per-segment float64 sums over axis 0 of rows already in ``order``.

        Accumulates in float64 whatever the input dtype, so narrow
        (``uint8``) trial counts never wrap.
        """
        return np.add.reduceat(sorted_rows, self.starts, axis=0, dtype=np.float64)

    def contract(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Per-segment products ``left[:, seg] @ right[seg]``, ``(S, k, m)``.

        ``left`` is ``(k, n)`` and ``right`` ``(n, m)``, both float64 and
        already in ``order``. A segment of several rows is one BLAS
        product over its own rows; length-1 segments are outer products,
        exact, so they are formed together in one broadcast multiply with
        the bits a one-row product would give. Either way a segment's
        block depends only on its own rows in their order.
        """
        n = right.shape[0]
        out = np.empty((len(self.starts), left.shape[0], right.shape[1]))
        single = self.lengths() == 1
        at = self.starts[single]
        out[single] = left[:, at].T[:, :, None] * right[at][:, None, :]
        bounds = self.starts.tolist() + [n]
        for s in np.flatnonzero(~single).tolist():
            a, b = bounds[s], bounds[s + 1]
            np.matmul(left[:, a:b], right[a:b], out=out[s])
        return out
