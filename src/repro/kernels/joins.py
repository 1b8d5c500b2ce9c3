"""Vectorized hash equi-join with a reusable (cross-batch) side index.

This is the one join of both engines: the online operators and the batch
evaluator (``relational.evaluator``, the ``run_batch`` baseline) call
:func:`vectorized_join`. It sorts the right side's key codes once into a
:class:`SideIndex` — a single integer key column is its own code, other
keys factorize (memoized per relation) — probes it with the left side's
keys (``np.searchsorted`` for an integer key, a dict over the distinct
factorized keys otherwise), and derives the joined row pairs with pure
array arithmetic. The static join caches the index of its (immutable)
dimension side in its state store, so batches after the first skip the
build entirely.

Output contract: left-major order, matches of one left row ordered by
ascending right row (the stable sort keeps a key's rows in row order).
The test reference ``tests/test_kernels.py::join_relations`` (a dict over
the right side walked row by row from the left) must produce the same
schema, columns, multiplicities and trial multiplicities bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.codec import factorize_keys
from repro.relational.groupby import RowSegments
from repro.relational.relation import LazyTrials, Relation
from repro.relational.schema import Schema


class SideIndex:
    """Sorted-code index over one relation's join-key columns: one integer
    key column is its own code, other keys factorize (``key_to_code``)."""

    def __init__(self, rel: Relation, key_cols: list[str]):
        self.key_cols = list(key_cols)
        column = rel.columns[key_cols[0]] if len(key_cols) == 1 else None
        self.key_to_code: dict[tuple, int] | None = None
        if column is not None and column.dtype.kind in "iu":
            codes = column
        else:
            kc = factorize_keys(rel, key_cols)
            codes = kc.codes
            self.key_to_code = {key: code for code, key in enumerate(kc.keys)}
        # Rows grouped by key code; the stable sort keeps rows of one key
        # in ascending row order (the reference's match order).
        segments = RowSegments.of_gids(codes)
        self.order, self.starts = segments.order, segments.starts
        self.counts = segments.lengths()
        #: Distinct integer keys, ascending (a key's code is its position).
        self.sorted_keys = segments.groups if self.key_to_code is None else None

    def estimated_bytes(self) -> int:
        return self.order.nbytes + self.counts.nbytes + self.starts.nbytes + 64 * len(self.counts)

    def probe(self, left: Relation, lkeys: list[str]) -> np.ndarray:
        """Per row of ``left``, the code of its key (``-1`` when absent):
        one ``np.searchsorted`` when both key dtypes promote to an integer
        type; pairs that meet only as float64 (``uint64`` against
        ``int64``) and other keys take the exact :meth:`probe_by_dict`."""
        keys, column = self.sorted_keys, left.columns[lkeys[0]]
        if keys is None or not len(keys) or column.dtype.kind not in "iu" or (
            np.result_type(column.dtype, keys.dtype).kind not in "iu"
        ):
            return self.probe_by_dict(left, lkeys)
        at = np.searchsorted(keys, column)
        at[at == len(keys)] = 0
        return np.where(keys[at] == column, at, -1)

    def probe_by_dict(self, left: Relation, lkeys: list[str]) -> np.ndarray:
        """:meth:`probe` through the key codec and a dict of key tuples."""
        key_to_code = self.key_to_code
        if key_to_code is None:
            key_to_code = {(k,): c for c, k in enumerate(self.sorted_keys.tolist())}
        lkc = factorize_keys(left, lkeys)
        code_of_key = np.fromiter(
            (key_to_code.get(k, -1) for k in lkc.keys), dtype=np.intp, count=lkc.num_keys
        )
        return code_of_key[lkc.codes]


def vectorized_join(
    left: Relation,
    right: Relation,
    keys: list[tuple[str, str]],
    right_index: SideIndex | None = None,
) -> Relation:
    """Equi-join (cross join for no ``keys``) carrying the storage
    sidecars.

    ``right_index`` may be a prebuilt :class:`SideIndex` over ``right``'s
    key columns (the cross-batch cache); otherwise one is built here.
    """
    lkeys = [lk for lk, _ in keys]
    rkeys = [rk for _, rk in keys]
    index = None
    if keys:
        index = right_index if right_index is not None else SideIndex(right, rkeys)

    if index is None:
        li = np.repeat(np.arange(len(left)), len(right))
        ri = np.tile(np.arange(len(right)), len(left))
    elif len(left) == 0 or len(index.counts) == 0:
        li = np.empty(0, dtype=np.intp)
        ri = np.empty(0, dtype=np.intp)
    else:
        slots = index.probe(left, lkeys)
        present = slots >= 0
        safe = np.where(present, slots, 0)
        cnt = np.where(present, index.counts[safe], 0)

        total = int(cnt.sum())
        li = np.repeat(np.arange(len(left), dtype=np.intp), cnt)
        row_start = np.concatenate([np.zeros(1, dtype=np.intp), np.cumsum(cnt)])[:-1]
        within = np.arange(total, dtype=np.intp) - np.repeat(row_start, cnt)
        ri = index.order[np.repeat(index.starts[safe], cnt) + within]

    drop = set(rkeys)
    kept_right = [c for c in right.schema if c.name not in drop]
    schema = Schema(list(left.schema.columns) + kept_right)
    cols: dict[str, np.ndarray] = {}
    encodings: dict = {}
    lineage: dict = {}
    for c in left.schema:
        cols[c.name] = left.columns[c.name][li]
        _gather_sidecars(left, c.name, li, encodings, lineage)
    for c in kept_right:
        cols[c.name] = right.columns[c.name][ri]
        _gather_sidecars(right, c.name, ri, encodings, lineage)
    lm, rm = left.mult[li], right.mult[ri]
    return Relation._from_parts(
        schema,
        cols,
        lm * rm,
        _join_trials(left, right, li, ri, lm, rm),
        encodings=encodings or None,
        lineage=lineage or None,
    )


def _gather_sidecars(
    side: Relation, name: str, rows: np.ndarray, encodings: dict, lineage: dict
) -> None:
    """Carry a column's storage sidecars through the join row gather."""
    enc = side.encodings.get(name)
    if enc is not None:
        encodings[name] = enc.take(rows)
    lin = side.lineage.get(name)
    if lin is not None:
        lineage[name] = lin


def _join_trials(
    left: Relation,
    right: Relation,
    li: np.ndarray,
    ri: np.ndarray,
    lm: np.ndarray,
    rm: np.ndarray,
) -> "np.ndarray | LazyTrials | None":
    """Trial weights of the joined rows ``(li, ri)``; ``lm``/``rm`` are the
    sides' gathered multiplicities. Weights joined with a trial-less side
    of unit multiplicity (a dimension table) are gathered as they are,
    lazy or drawn: the product would multiply every count by 1.0."""
    # Ids no run has installed (a disk table as dimension side) are not trials.
    lt, rt = (
        None if isinstance(t, LazyTrials) and t.source is None else t
        for t in (left._trials, right._trials)
    )
    if rt is None and lt is not None and (rm == 1.0).all():
        return lt[li]
    if lt is None and rt is not None and (lm == 1.0).all():
        return rt[ri]
    lt, rt = left.trials_at(li), right.trials_at(ri)
    if lt is None and rt is None:
        return None
    # Both sides may carry uint8 Poisson counts: widen before the product.
    return np.multiply(
        lm[:, None] if lt is None else lt,
        rm[:, None] if rt is None else rt,
        dtype=np.float64,
    )
