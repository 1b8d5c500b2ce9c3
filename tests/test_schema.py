"""Unit tests for schemas and column types."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.relational import Column, ColumnType, Schema
from repro.workloads import conviva, tpch

WORKLOAD_SCHEMAS = [
    value
    for module in (tpch, conviva)
    for name, value in vars(module).items()
    if name.endswith("_SCHEMA") and isinstance(value, Schema)
]


class TestColumnType:
    def test_int_dtype(self):
        assert ColumnType.INT.dtype == np.dtype(np.int64)

    def test_float_dtype(self):
        assert ColumnType.FLOAT.dtype == np.dtype(np.float64)

    def test_string_dtype_is_object(self):
        assert ColumnType.STRING.dtype == np.dtype(object)

    def test_bool_dtype(self):
        assert ColumnType.BOOL.dtype == np.dtype(bool)

    def test_byte_widths(self):
        assert ColumnType.INT.byte_width == 8
        assert ColumnType.FLOAT.byte_width == 8
        assert ColumnType.STRING.byte_width == 16
        assert ColumnType.BOOL.byte_width == 1


class TestSchema:
    def test_construct_from_tuples(self):
        s = Schema([("a", ColumnType.INT), ("b", ColumnType.STRING)])
        assert s.names == ["a", "b"]

    def test_construct_from_columns(self):
        s = Schema([Column("a", ColumnType.INT)])
        assert s["a"].ctype is ColumnType.INT

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([("a", ColumnType.INT), ("a", ColumnType.FLOAT)])

    def test_empty_column_name_rejected(self):
        with pytest.raises(SchemaError):
            Schema([("", ColumnType.INT)])

    def test_len(self):
        s = Schema([("a", ColumnType.INT), ("b", ColumnType.FLOAT)])
        assert len(s) == 2

    def test_contains(self):
        s = Schema([("a", ColumnType.INT)])
        assert "a" in s
        assert "z" not in s

    def test_getitem_missing_raises(self):
        s = Schema([("a", ColumnType.INT)])
        with pytest.raises(SchemaError, match="no column named 'z'"):
            s["z"]

    def test_index_of(self):
        s = Schema([("a", ColumnType.INT), ("b", ColumnType.FLOAT)])
        assert s.index_of("b") == 1

    def test_index_of_missing(self):
        s = Schema([("a", ColumnType.INT)])
        with pytest.raises(SchemaError):
            s.index_of("q")

    def test_type_of(self):
        s = Schema([("a", ColumnType.STRING)])
        assert s.type_of("a") is ColumnType.STRING

    def test_equality(self):
        a = Schema([("a", ColumnType.INT)])
        b = Schema([("a", ColumnType.INT)])
        c = Schema([("a", ColumnType.FLOAT)])
        assert a == b
        assert a != c

    def test_hashable(self):
        a = Schema([("a", ColumnType.INT)])
        b = Schema([("a", ColumnType.INT)])
        assert hash(a) == hash(b)

    def test_project(self):
        s = Schema([("a", ColumnType.INT), ("b", ColumnType.FLOAT)])
        assert s.project(["b"]).names == ["b"]

    def test_project_preserves_types(self):
        s = Schema([("a", ColumnType.INT), ("b", ColumnType.FLOAT)])
        assert s.project(["b", "a"]).type_of("a") is ColumnType.INT

    def test_concat(self):
        a = Schema([("a", ColumnType.INT)])
        b = Schema([("b", ColumnType.FLOAT)])
        assert a.concat(b).names == ["a", "b"]

    def test_concat_collision_raises(self):
        a = Schema([("a", ColumnType.INT)])
        with pytest.raises(SchemaError):
            a.concat(a)

    def test_rename(self):
        s = Schema([("a", ColumnType.INT), ("b", ColumnType.FLOAT)])
        renamed = s.rename({"a": "z"})
        assert renamed.names == ["z", "b"]

    def test_rename_keeps_types(self):
        s = Schema([("a", ColumnType.STRING)])
        assert s.rename({"a": "z"}).type_of("z") is ColumnType.STRING

    def test_with_prefix(self):
        s = Schema([("a", ColumnType.INT)])
        assert s.with_prefix("p_").names == ["p_a"]

    def test_validate_value_accepts(self):
        s = Schema([("a", ColumnType.INT)])
        s.validate_value("a", 3)  # no raise

    def test_validate_value_rejects(self):
        s = Schema([("a", ColumnType.INT)])
        with pytest.raises(SchemaError):
            s.validate_value("a", "three")

    def test_validate_float_accepts_int(self):
        s = Schema([("a", ColumnType.FLOAT)])
        s.validate_value("a", 3)  # ints are fine in float columns

    def test_row_byte_width(self):
        s = Schema([("a", ColumnType.INT), ("s", ColumnType.STRING)])
        assert s.row_byte_width() == 24

    def test_row_byte_width_is_the_column_sum_of_every_derived_schema(self):
        base = [*WORKLOAD_SCHEMAS, Schema([])]
        derived = []
        for s in base:
            names = s.names
            derived += [
                s.project(names[::-1]),
                s.project(names[:1]),
                s.rename({n: f"{n}_r" for n in names[::2]}),
                s.with_prefix("p."),
                s.concat(s.with_prefix("q.")),
            ]
        for s in base + derived:
            expected = sum(c.ctype.byte_width for c in s.columns)
            assert s.row_byte_width() == expected, s
            assert s.row_byte_width() == expected, s  # the kept value

    def test_iteration_order(self):
        s = Schema([("b", ColumnType.INT), ("a", ColumnType.INT)])
        assert [c.name for c in s] == ["b", "a"]

    def test_repr_mentions_columns(self):
        s = Schema([("a", ColumnType.INT)])
        assert "a:int" in repr(s)
