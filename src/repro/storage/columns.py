"""Dictionary pages and encoded key columns.

The key codec (``repro.kernels.codec``) factorizes key columns per call;
this module keeps that factorization in the column format itself. A
:class:`DictPage` is an append-only
dictionary of distinct cell values; an :class:`EncodedColumn` is the
``(page, codes, null_mask)`` triple riding alongside a materialized
object column. Pages are shared across every slice, batch, and join
output derived from a table, so group-bys and joins consume int codes
directly instead of re-hashing Python objects each hop.

Equality contract: a page assigns codes with exactly the semantics of
``codec._dict_factorize_column`` — values compare the way dict keys
compare (hash + equality, with the identity shortcut that keeps each NaN
object its own key), and unhashable values raise ``TypeError`` so the
caller leaves the column unencoded.

Pages are *append-only*: encoding new values never reassigns existing
codes, which is what lets old slices keep their code buffers while new
chunks extend the dictionary. This is the single sanctioned mutation in
the storage plane (SAN001 guards the rest). It also makes a page's byte count exact
as a running sum, kept as values are appended.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

#: dtype of code and slot buffers throughout the storage plane.
CODE_DTYPE = np.int32


def _scalar_nbytes(value: object) -> int:
    """Flat footprint of one dictionary value: a string's 49 + length,
    8 for anything else, 0 for None."""
    if value is None:
        return 0
    if isinstance(value, str):
        return 49 + len(value)
    return 8


class DictPage:
    """Append-only dictionary of distinct cell values.

    ``values[code]`` is the canonical Python object for ``code``. Codes
    are assigned in first-appearance order across every ``encode`` call,
    and never change once assigned. The page's byte count grows with each
    appended value, so reading it costs nothing per value.
    """

    __slots__ = ("_mapping", "_values", "_array", "_nbytes", "__weakref__")

    def __init__(self) -> None:
        self._mapping: dict = {}
        self._values: list = []
        self._array: np.ndarray | None = None
        self._nbytes = 64

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> np.ndarray:
        """The dictionary as an object array (rebuilt lazily after growth)."""
        if self._array is None or len(self._array) != len(self._values):
            arr = np.empty(len(self._values), dtype=object)
            arr[:] = self._values
            self._array = arr
        return self._array

    def tolist(self) -> list:
        return list(self._values)

    def encode_values(self, values: Iterable) -> np.ndarray:
        """Codes for ``values``, appending unseen ones to the page."""
        mapping = self._mapping
        store = self._values
        missing = object()  # None is a legal cell value
        out = []
        for value in values:
            code = mapping.get(value, missing)
            if code is missing:
                code = len(store)
                mapping[value] = code
                store.append(value)
                self._nbytes += 16 + _scalar_nbytes(value)
            out.append(code)
        return np.asarray(out, dtype=CODE_DTYPE)

    def encode_array(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Encode one column; returns ``(codes, null_mask-or-None)``.

        The null mask marks cells that are ``None`` (SQL NULL in this
        engine's modelling); it is ``None`` when no cell is null.
        """
        codes = self.encode_values(arr.tolist())
        null_mask = None
        if None in self._mapping:
            null_mask = np.asarray(codes == self._mapping[None], dtype=bool)
            if not null_mask.any():
                null_mask = None
        return codes, null_mask

    def gather(self, codes: np.ndarray) -> np.ndarray:
        """Materialize ``codes`` into an object column of canonical cells."""
        return self.values[codes]

    def estimated_bytes(self) -> int:
        """``64 + Σ (16 + value bytes)`` over the page's values."""
        return self._nbytes


class EncodedColumn:
    """One dictionary-encoded column: shared page + per-row codes + null mask.

    Index operations mirror :class:`~repro.relational.relation.Relation`
    transformations and always reuse the page, so a table's dictionary is
    carried across operators. Code buffers obtained from ``slice`` are
    zero-copy views; callers must not write into them (SAN001).
    """

    __slots__ = ("page", "codes", "null_mask")

    def __init__(
        self,
        page: DictPage,
        codes: np.ndarray,
        null_mask: np.ndarray | None = None,
    ) -> None:
        self.page = page
        self.codes = codes
        self.null_mask = null_mask

    def __len__(self) -> int:
        return len(self.codes)

    @classmethod
    def encode(cls, arr: np.ndarray, page: DictPage | None = None) -> "EncodedColumn":
        """Encode a materialized column (appending to ``page`` if given)."""
        page = page if page is not None else DictPage()
        codes, null_mask = page.encode_array(arr)
        return cls(page, codes, null_mask)

    # -- index operations (parallel to Relation transformations) ----------------

    def take(self, indices: np.ndarray) -> "EncodedColumn":
        mask = None if self.null_mask is None else self.null_mask[indices]
        return EncodedColumn(self.page, self.codes[indices], mask)

    def slice(self, start: int, stop: int) -> "EncodedColumn":
        mask = None if self.null_mask is None else self.null_mask[start:stop]
        return EncodedColumn(self.page, self.codes[start:stop], mask)

    def concat(self, other: "EncodedColumn") -> "EncodedColumn":
        """Concatenate, translating ``other`` onto this page if needed."""
        other_codes = other.codes
        if other.page is not self.page:
            # Append-only pages make translation a one-shot gather: encode
            # the other dictionary once, then remap its codes.
            trans = self.page.encode_values(other.page.tolist())
            other_codes = trans[other.codes] if len(other.codes) else other.codes
        codes = np.concatenate([self.codes, other_codes]).astype(CODE_DTYPE, copy=False)
        mask = None
        if self.null_mask is not None or other.null_mask is not None:
            a = (
                self.null_mask
                if self.null_mask is not None
                else np.zeros(len(self.codes), dtype=bool)
            )
            b = (
                other.null_mask
                if other.null_mask is not None
                else np.zeros(len(other_codes), dtype=bool)
            )
            mask = np.concatenate([a, b])
        return EncodedColumn(self.page, codes, mask)

    # -- materialization / accounting ---------------------------------------------

    def materialize(self) -> np.ndarray:
        return self.page.gather(self.codes)

    def estimated_bytes(self, seen: set[int] | None = None) -> int:
        """Physical footprint; a shared page counts once per ``seen`` set."""
        total = int(self.codes.nbytes)
        if self.null_mask is not None:
            total += int(self.null_mask.nbytes)
        if seen is None or id(self.page) not in seen:
            if seen is not None:
                seen.add(id(self.page))
            total += self.page.estimated_bytes()
        return total


def encode_relation(rel, columns: Sequence[str] | None = None):
    """Dictionary-encode object columns of ``rel``; returns a new relation.

    Materialized cells are rebuilt from the page gather, so every row
    holding an equal value holds the *same* canonical object — the page
    codes and the cell objects can never disagree. Columns whose cells are
    unhashable are left unencoded.
    """
    from repro.relational.relation import Relation

    names = list(columns) if columns is not None else [
        c.name for c in rel.schema if rel.columns[c.name].dtype.kind == "O"
    ]
    cols = dict(rel.columns)
    encodings = dict(rel.encodings)
    for name in names:
        arr = rel.columns[name]
        if arr.dtype.kind != "O":
            continue
        try:
            enc = EncodedColumn.encode(arr)
        except TypeError:
            continue
        encodings[name] = enc
        cols[name] = enc.materialize()
    return Relation._from_parts(
        rel.schema,
        cols,
        rel.mult,
        rel._trials,
        encodings=encodings,
        lineage=dict(rel.lineage),
    )


def sidecar_nbytes(rel, seen: set[int] | None = None) -> int:
    """Byte accounting for a relation's storage sidecars.

    Shared dictionary pages are deduplicated through ``seen`` (by
    ``id``), so two slices of one encoded table count the page once.
    ``repro.state.store.estimate_nbytes`` sizes a relation's encodings
    through it.
    """
    seen = seen if seen is not None else set()
    return sum(enc.estimated_bytes(seen) for enc in rel.encodings.values())
