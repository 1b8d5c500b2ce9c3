"""Key codec: factorize key columns into dense integer codes.

The row-wise engine identifies groups by Python tuples
(:meth:`Relation.key_tuples`) and probes dictionaries per row. The codec
replaces that with one stable sort of one integer code per row
(:func:`sort_keys`): each distinct key gets a dense integer code in
*first-appearance order* (the same order the dict-based reference
assigns group ids), and per-row work collapses into array gathers. Codes
are memoized per relation — relations are immutable-by-convention, so a
relation's key codes never change — which is what makes re-examining a
non-deterministic store every batch cheap.

Equality contract with the reference: key tuples are built from
``.tolist()`` scalars (plain Python values), exactly like
``Relation.key_tuples``, so codec keys hash/compare interchangeably with
reference keys. Object/string columns, and float columns holding NaN,
never go through a sort of their values: sorting an object array
compares elements in Python, which is both slower than a dict sweep and
wrong for unordered or NaN-bearing cells, so those columns code through a
per-column dict (identical semantics to the reference's tuple keys, which
also hash the cell objects: every NaN object is its own key);
unhashable cells raise ``TypeError`` as the reference's keys would.

This module depends only on NumPy so both ``repro.relational`` and the
online operators may import it without cycles.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.kernels.stats import STATS


@dataclass
class KeyCodes:
    """Dense key codes of one relation for one key-column list.

    ``codes[i]`` is the id of row ``i``'s key; ``keys[g]`` the Python
    key tuple of id ``g``. Ids follow first appearance order.
    """

    codes: np.ndarray  # (n,) intp
    keys: list[tuple]

    @property
    def num_keys(self) -> int:
        return len(self.keys)


def _dict_factorize_column(arr: np.ndarray) -> np.ndarray:
    """First-appearance codes of one object column via a dict sweep.

    Matches the reference's key semantics exactly — cells are compared
    the way tuple keys compare them (hash + equality, with the identity
    shortcut that keeps each NaN object its own key). Raises ``TypeError``
    for unhashable cells, as the reference's key tuples would.
    """
    mapping: dict = {}
    codes = np.empty(len(arr), dtype=np.intp)
    missing = object()  # None is a legal cell value
    next_code = 0
    for i, value in enumerate(arr.tolist()):
        code = mapping.get(value, missing)
        if code is missing:
            code = next_code
            mapping[value] = next_code
            next_code += 1
        codes[i] = code
    return codes


def factorize_arrays(
    arrays: Sequence[np.ndarray],
    n: int,
    column_codes: Sequence[np.ndarray | None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Factorize parallel key arrays into first-appearance codes.

    Returns ``(codes, first_rows)`` where ``first_rows[g]`` is the row at
    which key ``g`` first occurs. Unhashable object cells raise
    ``TypeError``, as the reference's key tuples would.

    ``column_codes`` optionally injects storage-carried dictionary codes
    (``EncodedColumn.codes``) per column: a dictionary page assigns codes
    with exactly the dict-sweep semantics (distinct code ↔ distinct
    value), so encoded key columns skip re-hashing Python objects on
    every hop. One stable sort of the rows' key codes (:func:`sort_keys`)
    gives both outputs.
    """
    if not arrays:
        return np.zeros(n, dtype=np.intp), np.zeros(min(n, 1), dtype=np.intp)
    order, starts, ranks, first_rows = sort_keys(arrays, n, column_codes)
    codes = np.empty(n, dtype=np.intp)
    codes[order] = np.repeat(ranks, segment_lengths(starts, n))
    return codes, first_rows


def segment_lengths(starts: np.ndarray, n: int) -> np.ndarray:
    """Rows per segment of ``n`` sorted rows, from the segment starts."""
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1:] = n
    return ends - starts


def stable_segments(code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: one stable argsort of ``code`` and the first
    sorted position of each run of equal codes."""
    order = np.argsort(code, kind="stable")
    ordered = code[order]
    is_start = np.ones(len(ordered), dtype=bool)
    is_start[1:] = ordered[1:] != ordered[:-1]
    return order, is_start.nonzero()[0]


def sort_keys(
    arrays: Sequence[np.ndarray],
    n: int,
    column_codes: Sequence[np.ndarray | None] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows grouped by key with one stable sort.

    Returns ``(order, starts, ranks, first_rows)``: :func:`stable_segments`
    of the rows' key codes, each segment's key rank in first-appearance
    order, and the first row of each key in that order. A segment's first
    sorted row is its key's first row, so listing those rows in row order
    ranks the keys without a second sort.
    """
    carried = column_codes or [None] * len(arrays)
    order, starts = stable_segments(_key_code(
        [_column_code(arr, pre) for arr, pre in zip(arrays, carried)], n
    ))
    first = order[starts]
    is_first = np.zeros(n, dtype=bool)
    is_first[first] = True
    first_rows = is_first.nonzero()[0]
    rank = np.empty(n, dtype=np.intp)
    rank[first_rows] = np.arange(len(first_rows))
    return order, starts, rank[first], first_rows


def _column_code(arr: np.ndarray, carried: np.ndarray | None) -> np.ndarray:
    """A column's code: its storage dictionary codes when it carries them;
    first-appearance dict codes for an object column or a float column
    holding NaN (cells compare as dict keys do, so every NaN is its own
    key); the column itself otherwise."""
    if carried is not None:
        STATS.inc("codec_encoded_cols")
        return carried
    if arr.dtype.kind == "O" or (arr.dtype.kind == "f" and np.isnan(arr).any()):
        return _dict_factorize_column(arr)
    return arr


#: Mixed-radix codes stay below this bound, so they never overflow int64.
_WIDE = 1 << 62


def _key_code(cols: list[np.ndarray], n: int) -> np.ndarray:
    """One code per row, equal exactly when the keys are: a single column
    is its own code; a compound key combines the columns' digits in mixed
    radix (re-compacting to dense ranks, a sort, if it grows too wide)."""
    if len(cols) == 1:
        return cols[0]
    code, span = np.zeros(n, dtype=np.int64), 1
    for col in cols:
        digits, radix = _digits(col, n)
        if span * radix >= _WIDE:
            (code, span), (digits, radix) = _digits(code, n, True), _digits(digits, n, True)
        code, span = code * radix + digits, span * radix
    return code


def _digits(col: np.ndarray, n: int, dense: bool = False) -> tuple[np.ndarray, int]:
    """``(digits, radix)``: int64 codes in ``[0, radix)`` of one column —
    offsets from the minimum of a narrow integer column, else sorted ranks."""
    if col.dtype.kind == "b":
        col = col.view(np.uint8)
    if not dense and col.dtype.kind in "iu" and n:
        lo, hi = int(col.min()), int(col.max())
        if hi - lo < _WIDE:
            offsets = col - col.min() if col.dtype.kind == "u" else col.astype(np.int64) - lo
            return offsets.astype(np.int64, copy=False), hi - lo + 1
    _, inv = np.unique(col, return_inverse=True)
    return inv.reshape(n).astype(np.int64, copy=False), int(inv.max()) + 1 if n else 1


def _carried_codes(rel, names: Sequence[str]) -> list[np.ndarray | None] | None:
    """Storage-carried dictionary codes for each key column (or ``None``)."""
    encodings = getattr(rel, "encodings", None)
    if not encodings:
        return None
    out = [
        encodings[name].codes if name in encodings else None for name in names
    ]
    return out if any(c is not None for c in out) else None


def _factorize_relation(rel, names: Sequence[str]) -> KeyCodes:
    n = len(rel)
    if not names:
        # The scalar-aggregate key: one empty tuple, but only when rows
        # exist (the reference derives keys from rows, so zero rows give
        # zero keys).
        return KeyCodes(np.zeros(n, dtype=np.intp), [()] if n else [])
    arrays = [rel.columns[name] for name in names]
    codes, first_rows = factorize_arrays(arrays, n, _carried_codes(rel, names))
    keys = list(zip(*(a[first_rows].tolist() for a in arrays)))
    return KeyCodes(codes, keys)


#: rel -> {key-column tuple -> KeyCodes}. Weak keys: codes die with the
#: relation.
_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def factorize_keys(rel, names: Sequence[str]) -> KeyCodes:
    """Memoized key codes of ``rel`` over key columns ``names``."""
    cache_key = tuple(names)
    per_rel = _CACHE.get(rel)
    entry = None if per_rel is None else per_rel.get(cache_key)
    if entry is not None:
        STATS.inc("codec_hits")
        return entry
    STATS.inc("codec_misses")
    kc = _factorize_relation(rel, names)
    _CACHE.setdefault(rel, {})[cache_key] = kc
    return kc


def recode_subset(kc: KeyCodes, mask: np.ndarray) -> tuple[list[tuple], np.ndarray]:
    """Re-factorize the rows selected by ``mask``.

    The reference assigns group ids by first appearance *among the kept
    rows*, which generally differs from the full relation's order; this
    re-derives that order from the existing codes without touching key
    values again. Returns ``(keys, codes)`` over the masked rows.
    """
    sub = kc.codes[mask]
    codes, first_rows = factorize_arrays([sub], len(sub))
    return [kc.keys[g] for g in sub[first_rows].tolist()], codes
