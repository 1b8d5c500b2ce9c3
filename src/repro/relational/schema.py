"""Schemas and column types for the bag-relational substrate.

A :class:`Schema` is an ordered mapping of column names to
:class:`ColumnType`. Relations in this library are columnar (NumPy-backed),
so the type mostly decides the dtype of the backing array; ``STRING``
columns use object arrays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.errors import SchemaError


class ColumnType(enum.Enum):
    """Logical column types supported by the engine."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"

    @property
    def dtype(self) -> np.dtype:
        """NumPy dtype used to back a column of this type."""
        return _DTYPES[self]

    @property
    def byte_width(self) -> int:
        """Approximate storage width in bytes, used by shipped-byte accounting."""
        if self is ColumnType.STRING:
            return 16
        if self is ColumnType.BOOL:
            return 1
        return 8


_DTYPES = {
    ColumnType.INT: np.dtype(np.int64),
    ColumnType.FLOAT: np.dtype(np.float64),
    ColumnType.STRING: np.dtype(object),
    ColumnType.BOOL: np.dtype(bool),
}

#: Python types acceptable as literal values for each column type.
_PYTHON_TYPES = {
    ColumnType.INT: (int, np.integer),
    ColumnType.FLOAT: (int, float, np.integer, np.floating),
    ColumnType.STRING: (str,),
    ColumnType.BOOL: (bool, np.bool_),
}


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    ctype: ColumnType

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")


class Schema:
    """An ordered collection of uniquely named columns.

    Schemas are immutable; combinators (:meth:`concat`, :meth:`project`,
    :meth:`rename`) return new schemas.
    """

    def __init__(self, columns: Iterable[Column | tuple[str, ColumnType]]):
        cols: list[Column] = []
        for c in columns:
            if isinstance(c, tuple):
                c = Column(c[0], c[1])
            cols.append(c)
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dupes}")
        self._columns: tuple[Column, ...] = tuple(cols)
        self._index: dict[str, int] = {c.name: i for i, c in enumerate(cols)}
        self._row_byte_width: int | None = None

    # -- basic accessors ----------------------------------------------------

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def names(self) -> list[str]:
        return [c.name for c in self._columns]

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Column:
        try:
            return self._columns[self._index[name]]
        except KeyError:
            raise SchemaError(f"no column named {name!r}; have {self.names}") from None

    def index_of(self, name: str) -> int:
        if name not in self._index:
            raise SchemaError(f"no column named {name!r}; have {self.names}")
        return self._index[name]

    def type_of(self, name: str) -> ColumnType:
        return self[name].ctype

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:
        inner = ", ".join(f"{c.name}:{c.ctype.value}" for c in self._columns)
        return f"Schema({inner})"

    # -- combinators ---------------------------------------------------------

    def project(self, names: Iterable[str]) -> "Schema":
        """Schema restricted to ``names`` (in the given order)."""
        return Schema([self[n] for n in names])

    def concat(self, other: "Schema") -> "Schema":
        """Schema with ``other``'s columns appended; names must stay unique."""
        return Schema(list(self._columns) + list(other._columns))

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """Schema with columns renamed per ``mapping`` (missing keys kept)."""
        return Schema(
            [Column(mapping.get(c.name, c.name), c.ctype) for c in self._columns]
        )

    def with_prefix(self, prefix: str) -> "Schema":
        """Schema with every column name prefixed by ``prefix``."""
        return Schema([Column(f"{prefix}{c.name}", c.ctype) for c in self._columns])

    # -- validation ----------------------------------------------------------

    def validate_value(self, name: str, value: object) -> None:
        """Raise :class:`SchemaError` unless ``value`` fits column ``name``."""
        ctype = self.type_of(name)
        if not isinstance(value, _PYTHON_TYPES[ctype]):
            raise SchemaError(
                f"value {value!r} of type {type(value).__name__} does not fit "
                f"column {name!r} of type {ctype.value}"
            )

    def row_byte_width(self) -> int:
        """Approximate bytes per row, for state/shipped accounting.

        Summed on the first call and kept: a schema never changes."""
        if self._row_byte_width is None:
            self._row_byte_width = sum(c.ctype.byte_width for c in self._columns)
        return self._row_byte_width
