"""Unit tests for logical plan construction and validation."""

import pytest

from repro.errors import PlanError
from repro.relational import (
    ColumnType,
    Distinct,
    Join,
    Scan,
    Schema,
    Select,
    avg,
    col,
    count,
    scan,
    sum_,
    transform,
)

T = Schema([("k", ColumnType.INT), ("x", ColumnType.FLOAT)])
D = Schema([("k", ColumnType.INT), ("label", ColumnType.STRING)])
CATALOG = {}


class TestScan:
    def test_output_schema(self):
        assert scan("t", T).output_schema(CATALOG) == T

    def test_base_tables(self):
        plan = scan("t", T).join(scan("d", D), keys=["k"])
        assert plan.base_tables() == {"t", "d"}

    def test_node_ids_unique(self):
        a, b = scan("t", T), scan("t", T)
        assert a.node_id != b.node_id


class TestSelect:
    def test_schema_passthrough(self):
        plan = scan("t", T).select(col("x") > 0)
        assert plan.output_schema(CATALOG) == T

    def test_missing_column_rejected(self):
        plan = scan("t", T).select(col("zzz") > 0)
        with pytest.raises(PlanError, match="missing columns"):
            plan.output_schema(CATALOG)


class TestProject:
    def test_schema(self):
        plan = scan("t", T).project([("k", "k"), ("x2", col("x") * 2)])
        out = plan.output_schema(CATALOG)
        assert out.names == ["k", "x2"]
        assert out.type_of("x2") is ColumnType.FLOAT

    def test_string_shorthand(self):
        plan = scan("t", T).project([("renamed", "x")])
        assert plan.output_schema(CATALOG).names == ["renamed"]

    def test_empty_projection_rejected(self):
        with pytest.raises(PlanError):
            scan("t", T).project([])

    def test_missing_column_rejected(self):
        plan = scan("t", T).project([("bad", col("zzz"))])
        with pytest.raises(PlanError):
            plan.output_schema(CATALOG)


class TestJoin:
    def test_natural_key_drops_right_copy(self):
        plan = scan("t", T).join(scan("d", D), keys=["k"])
        assert plan.output_schema(CATALOG).names == ["k", "x", "label"]

    def test_cross_join_keeps_all(self):
        other = Schema([("y", ColumnType.FLOAT)])
        plan = scan("t", T).join(scan("o", other), keys=[])
        assert plan.output_schema(CATALOG).names == ["k", "x", "y"]

    def test_differently_named_keys(self):
        other = Schema([("k2", ColumnType.INT), ("y", ColumnType.FLOAT)])
        plan = scan("t", T).join(scan("o", other), keys=[("k", "k2")])
        assert plan.output_schema(CATALOG).names == ["k", "x", "y"]

    def test_missing_left_key(self):
        plan = scan("t", T).join(scan("d", D), keys=[("nope", "k")])
        with pytest.raises(PlanError, match="left join key"):
            plan.output_schema(CATALOG)

    def test_missing_right_key(self):
        plan = scan("t", T).join(scan("d", D), keys=[("k", "nope")])
        with pytest.raises(PlanError, match="right join key"):
            plan.output_schema(CATALOG)

    def test_key_type_mismatch(self):
        other = Schema([("k", ColumnType.STRING)])
        plan = scan("t", T).join(scan("o", other), keys=["k"])
        with pytest.raises(PlanError, match="type mismatch"):
            plan.output_schema(CATALOG)

    def test_non_key_collision_rejected(self):
        plan = scan("t", T).join(scan("t2", T), keys=[])
        with pytest.raises(PlanError, match="duplicate columns"):
            plan.output_schema(CATALOG)

    def test_key_accessors(self):
        j = Join(scan("t", T), scan("d", D), keys=[("k", "k")])
        assert j.left_keys == ["k"]
        assert j.right_keys == ["k"]


class TestUnion:
    def test_schema_match_required(self):
        with pytest.raises(PlanError, match="union schema mismatch"):
            scan("t", T).union(scan("d", D)).output_schema(CATALOG)

    def test_schema(self):
        plan = scan("t", T).union(scan("t2", T))
        assert plan.output_schema(CATALOG) == T


class TestAggregate:
    def test_scalar_schema(self):
        plan = scan("t", T).aggregate([], [avg("x", "ax")])
        assert plan.output_schema(CATALOG).names == ["ax"]

    def test_grouped_schema(self):
        plan = scan("t", T).aggregate(["k"], [sum_("x", "sx"), count("n")])
        assert plan.output_schema(CATALOG).names == ["k", "sx", "n"]

    def test_requires_aggs(self):
        with pytest.raises(PlanError):
            scan("t", T).aggregate(["k"], [])

    def test_duplicate_output_names_rejected(self):
        with pytest.raises(PlanError, match="duplicate"):
            scan("t", T).aggregate(["k"], [sum_("x", "k")])

    def test_missing_arg_column(self):
        plan = scan("t", T).aggregate([], [sum_("zzz", "s")])
        with pytest.raises(PlanError):
            plan.output_schema(CATALOG)


class TestRenameDistinct:
    def test_rename_schema(self):
        plan = scan("t", T).rename({"x": "value"})
        assert plan.output_schema(CATALOG).names == ["k", "value"]

    def test_rename_missing(self):
        with pytest.raises(PlanError):
            scan("t", T).rename({"zzz": "a"}).output_schema(CATALOG)

    def test_distinct_schema(self):
        plan = scan("t", T).distinct(["k"])
        assert plan.output_schema(CATALOG).names == ["k"]

    def test_distinct_requires_columns(self):
        with pytest.raises(PlanError):
            Distinct(scan("t", T), [])


class TestTraversal:
    def test_walk_preorder(self):
        plan = scan("t", T).select(col("x") > 0).aggregate([], [count("n")])
        kinds = [type(n).__name__ for n in plan.walk()]
        assert kinds == ["Aggregate", "Select", "Scan"]

    def test_describe_is_indented(self):
        plan = scan("t", T).select(col("x") > 0)
        lines = plan.describe().splitlines()
        assert lines[0].startswith("Select")
        assert lines[1].startswith("  Scan")

    def test_transform_identity(self):
        plan = scan("t", T).select(col("x") > 0)
        out = transform(plan, lambda n: None)
        assert type(out) is Select
        assert isinstance(out.child, Scan)

    def test_transform_replaces(self):
        plan = scan("t", T).select(col("x") > 0)

        def drop_selects(node):
            return node.child if isinstance(node, Select) else None

        out = transform(plan, drop_selects)
        assert isinstance(out, Scan)

    def test_transform_rebuilds_all_node_types(self):
        plan = (
            scan("t", T)
            .select(col("x") > 0)
            .project([("k", "k"), ("x", "x")])
            .rename({"x": "v"})
            .join(scan("d", D), keys=["k"])
            .aggregate(["k"], [count("n")])
        )
        out = transform(plan, lambda n: None)
        assert out.output_schema(CATALOG).names == ["k", "n"]
