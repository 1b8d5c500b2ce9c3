"""Grouping helpers shared by the batch evaluator and the online sketches."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kernels.codec import _carried_codes, factorize_arrays
from repro.relational.relation import Relation

#: A group key is the tuple of group-by column values (``()`` for scalar
#: aggregates, matching the paper's "empty join key" in Figure 2).
GroupKey = tuple


def group_ids(rel: Relation, group_by: Sequence[str]) -> tuple[list[GroupKey], np.ndarray]:
    """Assign a dense group id to each row.

    Returns ``(keys, gids)`` where ``keys[g]`` is the key tuple of group
    ``g`` and ``gids[i]`` the group of row ``i``. Group ids follow first
    appearance order, which keeps online outputs stable across batches.
    """
    n = len(rel)
    if not group_by:
        return [()], np.zeros(n, dtype=np.intp)
    carried = _carried_codes(rel, list(group_by))
    if carried is not None:
        # Dictionary-encoded key columns: group directly on storage codes,
        # no value hashing or object sorting.
        arrays = [rel.column(name) for name in group_by]
        factorized = factorize_arrays(arrays, n, carried)
        if factorized is not None:
            codes, first_rows = factorized
            keys = list(zip(*(a[first_rows].tolist() for a in arrays)))
            return keys, codes
    if len(group_by) == 1:
        values = rel.column(group_by[0])
        uniques, inverse = np.unique(values, return_inverse=True)
        # Re-order so that ids follow first appearance, not sorted order.
        first_pos = np.full(len(uniques), n, dtype=np.intp)
        np.minimum.at(first_pos, inverse, np.arange(n, dtype=np.intp))
        order = np.argsort(first_pos, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(uniques))
        keys = [(uniques[g],) for g in order]
        return keys, rank[inverse]
    arrays = [rel.column(name) for name in group_by]
    factorized = factorize_arrays(arrays, n)
    if factorized is not None:
        codes, first_rows = factorized
        keys = list(zip(*(a[first_rows].tolist() for a in arrays)))
        return keys, codes
    # Fallback for keys np.unique cannot order faithfully (NaN floats,
    # unorderable objects): the dict reference.
    mapping: dict[GroupKey, int] = {}
    gids = np.empty(n, dtype=np.intp)
    keys = []
    for i, key in enumerate(rel.key_tuples(group_by)):
        gid = mapping.get(key)
        if gid is None:
            gid = len(keys)
            mapping[key] = gid
            keys.append(key)
        gids[i] = gid
    return keys, gids


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
    group's own row sequence, never on which other rows share the call —
    this is what keeps serial and sharded runs bit-identical.
    """

    __slots__ = ("order", "starts", "groups")

    def __init__(self, gids: np.ndarray):
        self.order = np.argsort(gids, kind="stable")
        sorted_gids = gids[self.order]
        is_start = np.ones(len(sorted_gids), dtype=bool)
        is_start[1:] = sorted_gids[1:] != sorted_gids[:-1]
        self.starts = np.flatnonzero(is_start)
        self.groups = sorted_gids[self.starts]

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
        single = np.diff(self.starts, append=n) == 1
        at = self.starts[single]
        out[single] = left[:, at].T[:, :, None] * right[at][:, None, :]
        bounds = self.starts.tolist() + [n]
        for s in np.flatnonzero(~single).tolist():
            a, b = bounds[s], bounds[s + 1]
            np.matmul(left[:, a:b], right[a:b], out=out[s])
        return out
