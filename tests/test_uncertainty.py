"""Tests for the static uncertainty-propagation analysis (Section 4.1)."""

import pytest

from repro.core.uncertainty import analyze
from repro.errors import UnsupportedQueryError
from repro.relational import (
    ColumnType,
    Schema,
    avg,
    col,
    count,
    max_,
    scan,
)

T = Schema([("k", ColumnType.INT), ("x", ColumnType.FLOAT), ("y", ColumnType.FLOAT)])
D = Schema([("k", ColumnType.INT), ("label", ColumnType.STRING)])


def tags_of(plan, streamed={"t"}):
    return analyze(plan, set(streamed))[plan.node_id]


class TestLeaves:
    def test_streamed_scan(self):
        t = tags_of(scan("t", T))
        assert t.tuple_uncertain and t.sample_weighted and t.raw_stream
        assert not t.uncertain_cols

    def test_static_scan(self):
        t = tags_of(scan("d", D))
        assert t.deterministic and not t.sample_weighted


class TestSelect:
    def test_preserves_attribute_certainty(self):
        t = tags_of(scan("t", T).select(col("x") > 0))
        assert not t.uncertain_cols and t.tuple_uncertain

    def test_static_select_deterministic(self):
        t = tags_of(scan("d", D).select(col("k") > 0))
        assert t.deterministic

    def test_predicate_on_uncertain_column_adds_tuple_uncertainty(self):
        inner = scan("t", T).aggregate([], [avg("x", "ax")])
        plan = scan("d", D).join(inner, keys=[]).select(col("ax") > col("k"))
        t = tags_of(plan)
        assert t.tuple_uncertain


class TestProjectRename:
    def test_project_over_uncertain_col(self):
        inner = scan("t", T).aggregate([], [avg("x", "ax")])
        plan = inner.project([("doubled", col("ax") * 2)])
        assert tags_of(plan).uncertain_cols == {"doubled"}

    def test_project_deterministic_expr(self):
        plan = scan("t", T).project([("z", col("x") + 1)])
        assert not tags_of(plan).uncertain_cols

    def test_rename_maps_uncertain_cols(self):
        inner = scan("t", T).aggregate([], [avg("x", "ax")])
        plan = inner.rename({"ax": "mean_x"})
        assert tags_of(plan).uncertain_cols == {"mean_x"}


class TestAggregate:
    def test_agg_over_stream_is_uncertain_attr(self):
        plan = scan("t", T).aggregate(["k"], [avg("x", "ax"), count("n")])
        t = tags_of(plan)
        assert t.uncertain_cols == {"ax", "n"}
        assert not t.sample_weighted  # group rows are not a sample
        assert not t.raw_stream

    def test_agg_over_static_is_deterministic(self):
        plan = scan("d", D).aggregate(["k"], [count("n")])
        assert tags_of(plan).deterministic

    def test_group_rows_inherit_tuple_uncertainty(self):
        plan = scan("t", T).aggregate(["k"], [count("n")])
        assert tags_of(plan).tuple_uncertain

    def test_uncertain_group_key_rejected(self):
        inner = scan("t", T).aggregate(["k"], [avg("x", "ax")])
        plan = inner.aggregate(["ax"], [count("n")])
        with pytest.raises(UnsupportedQueryError, match="group-by key"):
            tags_of(plan)

    def test_minmax_rejected_under_sampling(self):
        plan = scan("t", T).aggregate([], [max_("x", "mx")])
        with pytest.raises(UnsupportedQueryError, match="Hadamard"):
            tags_of(plan)

    def test_minmax_allowed_on_static(self):
        plan = scan("d", D).aggregate([], [max_("k", "mx")])
        assert tags_of(plan).deterministic


class TestJoin:
    def test_static_join_preserves(self):
        plan = scan("t", T).join(scan("d", D), keys=["k"])
        t = tags_of(plan)
        assert t.tuple_uncertain and t.raw_stream and not t.uncertain_cols

    def test_uncertain_cols_flow_through_join(self):
        inner = scan("t", T).aggregate([], [avg("x", "ax")])
        plan = scan("t", T).join(inner, keys=[])
        assert tags_of(plan).uncertain_cols == {"ax"}

    def test_uncertain_join_key_rejected(self):
        inner = scan("t", T).aggregate(["k"], [avg("x", "ax")])
        other = scan("t", T).rename({"x": "ax2", "y": "yy", "k": "kk"})
        plan = other.join(inner, keys=[("ax2", "ax")])
        with pytest.raises(UnsupportedQueryError, match="join key"):
            tags_of(plan)

    def test_stream_stream_join_rejected(self):
        left = scan("t", T)
        right = scan("t", T).rename({"k": "k2", "x": "x2", "y": "y2"})
        with pytest.raises(UnsupportedQueryError, match="stream"):
            tags_of(left.join(right, keys=[]))

    def test_stream_joined_with_its_aggregate_ok(self):
        inner = scan("t", T).aggregate(["k"], [avg("x", "ax")]).rename({"k": "k2"})
        plan = scan("t", T).join(inner, keys=[("k", "k2")])
        assert tags_of(plan).uncertain_cols == {"ax"}


class TestUnionDistinct:
    def test_union_ors_uncertainty(self):
        plan = scan("t", T).union(scan("t", T))
        t = tags_of(plan)
        assert t.tuple_uncertain and t.raw_stream

    def test_union_static_and_stream(self):
        plan = scan("t", T).union(scan("t2", T))
        t = tags_of(plan, streamed={"t"})
        assert t.tuple_uncertain

    def test_distinct_over_stream(self):
        plan = scan("t", T).distinct(["k"])
        t = tags_of(plan)
        assert t.tuple_uncertain and not t.uncertain_cols

    def test_distinct_over_uncertain_col_rejected(self):
        inner = scan("t", T).aggregate(["k"], [avg("x", "ax")])
        with pytest.raises(UnsupportedQueryError, match="distinct"):
            tags_of(inner.distinct(["ax"]))


class TestFullQueryShapes:
    def test_sbi_tags(self):
        inner = scan("t", T).aggregate([], [avg("x", "ax")])
        outer_sel = scan("t", T).join(inner, keys=[]).select(col("x") > col("ax"))
        plan = outer_sel.aggregate([], [avg("y", "ay")])
        tags = analyze(plan, {"t"})
        assert tags[outer_sel.node_id].tuple_uncertain
        assert tags[plan.node_id].uncertain_cols == {"ay"}

    def test_every_node_tagged(self):
        inner = scan("t", T).aggregate([], [avg("x", "ax")])
        plan = scan("t", T).join(inner, keys=[]).select(col("x") > col("ax"))
        tags = analyze(plan, {"t"})
        assert {n.node_id for n in plan.walk()} <= set(tags)
