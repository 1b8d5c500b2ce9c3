"""Tests for the small-segment interpreter (per-trial recompute path)."""

import numpy as np
import pytest

from repro.core.blocks import (
    MEMBER_FALSE,
    MEMBER_TRUE,
    MEMBER_UNKNOWN,
    BlockOutput,
    GroupValue,
    OnlineConfig,
    RuntimeContext,
)
from repro.core.smallplan import (
    SmallAggregate,
    SmallBlockLeaf,
    SmallDistinct,
    SmallJoin,
    SmallPlanUnit,
    SmallProject,
    SmallRename,
    SmallSelect,
    SmallStaticLeaf,
    URow,
    classify_row_predicate,
)
from repro.core.values import LineageRef, UncertainValue, VariationRange
from repro.relational import Catalog, avg, col, count, sum_
from repro.relational.expressions import Col
from tests.conftest import DIM_SCHEMA
from repro.relational import relation_from_columns

T = 4


def make_ctx():
    ctx = RuntimeContext(Catalog({}), "t", 100, OnlineConfig(num_trials=T))
    ctx.batch_no = 1
    return ctx


def uv(value, trials, lo, hi, key=(), colname="v", block=1):
    return UncertainValue(
        value,
        np.asarray(trials, dtype=float),
        VariationRange(lo, hi),
        LineageRef(block, key, colname),
    )


def publish_block(ctx, rows, block=1, key_cols=("g",)):
    out = BlockOutput.from_groups(
        block,
        list(key_cols),
        sorted({c for _, values, _ in rows for c in values} - set(key_cols)),
        [GroupValue(key, values, certain) for key, values, certain in rows],
        ctx.num_trials,
    )
    ctx.blocks[block] = out
    return out


class TestLeaves:
    def test_block_leaf_reads_groups(self):
        ctx = make_ctx()
        publish_block(
            ctx,
            [(("a",), {"g": "a", "v": uv(1.0, [1] * T, 0, 2, ("a",))}, True)],
        )
        rows = SmallBlockLeaf(1).rows(ctx)
        assert len(rows) == 1
        assert rows[0].certain

    def test_block_leaf_missing_block(self):
        assert SmallBlockLeaf(99).rows(make_ctx()) == []

    def test_uncertain_group_is_unknown_member(self):
        ctx = make_ctx()
        publish_block(ctx, [(("a",), {"g": "a"}, False)])
        rows = SmallBlockLeaf(1).rows(ctx)
        assert rows[0].member_status == MEMBER_UNKNOWN

    def test_static_leaf(self):
        rel = relation_from_columns(DIM_SCHEMA, k=[1, 2], label=["a", "b"])
        rows = SmallStaticLeaf(rel).rows(make_ctx())
        assert len(rows) == 2 and all(r.certain for r in rows)


class TestSelect:
    def leaf(self, ctx, value=10.0, trials=None, lo=8.0, hi=12.0):
        trials = trials if trials is not None else [10.0] * T
        publish_block(
            ctx, [(("a",), {"g": "a", "v": uv(value, trials, lo, hi, ("a",))}, True)]
        )
        return SmallBlockLeaf(1)

    def test_stable_true(self):
        ctx = make_ctx()
        node = SmallSelect(self.leaf(ctx), [Col("v") > 5.0])
        rows = node.rows(ctx)
        assert rows[0].member_status == MEMBER_TRUE

    def test_stable_false_retained_with_flag(self):
        ctx = make_ctx()
        node = SmallSelect(self.leaf(ctx), [Col("v") > 50.0])
        rows = node.rows(ctx)
        assert len(rows) == 1
        assert rows[0].member_status == MEMBER_FALSE
        assert not rows[0].member_point

    def test_unknown_gets_trial_masks(self):
        ctx = make_ctx()
        node = SmallSelect(
            self.leaf(ctx, trials=[9.0, 10.0, 11.0, 12.0]), [Col("v") > 10.5]
        )
        rows = node.rows(ctx)
        assert rows[0].member_status == MEMBER_UNKNOWN
        assert list(rows[0].exist_trials) == [False, False, True, True]
        assert not rows[0].member_point  # point estimate 10 fails

    def test_deterministic_predicate(self):
        ctx = make_ctx()
        node = SmallSelect(self.leaf(ctx), [Col("g").eq("a")])
        assert node.rows(ctx)[0].member_status == MEMBER_TRUE

    def test_false_rows_skip_reclassification(self):
        ctx = make_ctx()
        inner = SmallSelect(self.leaf(ctx), [Col("v") > 50.0])
        outer = SmallSelect(inner, [Col("v") > 0.0])
        rows = outer.rows(ctx)
        assert rows[0].member_status == MEMBER_FALSE


class TestProjectRenameDistinct:
    def test_project_arithmetic_propagates_uncertainty(self):
        ctx = make_ctx()
        publish_block(
            ctx, [(("a",), {"g": "a", "v": uv(10.0, [10.0] * T, 8, 12, ("a",))}, True)]
        )
        node = SmallProject(SmallBlockLeaf(1), [("w", Col("v") * 2)])
        out = node.rows(ctx)[0].values["w"]
        assert isinstance(out, UncertainValue)
        assert out.value == 20.0
        assert (out.vrange.lo, out.vrange.hi) == (16.0, 24.0)

    def test_rename(self):
        ctx = make_ctx()
        publish_block(ctx, [(("a",), {"g": "a"}, True)])
        rows = SmallRename(SmallBlockLeaf(1), {"g": "grp"}).rows(ctx)
        assert rows[0].values == {"grp": "a"}

    def test_distinct_merges(self):
        ctx = make_ctx()
        publish_block(
            ctx,
            [
                (("a", 1), {"g": "a", "i": 1}, True),
                (("a", 2), {"g": "a", "i": 2}, False),
            ],
            key_cols=("g", "i"),
        )
        rows = SmallDistinct(SmallBlockLeaf(1), ["g"]).rows(ctx)
        assert len(rows) == 1
        assert rows[0].member_status == MEMBER_TRUE  # certain member wins


class TestJoin:
    def test_key_join_combines_values(self):
        ctx = make_ctx()
        publish_block(ctx, [(("a",), {"g": "a", "v": 1.0}, True)], block=1)
        publish_block(ctx, [(("a",), {"g2": "a", "w": 2.0}, True)], block=2)
        node = SmallJoin(SmallBlockLeaf(1), SmallBlockLeaf(2), [("g", "g2")])
        rows = node.rows(ctx)
        assert rows[0].values == {"g": "a", "v": 1.0, "w": 2.0}

    def test_cross_join(self):
        ctx = make_ctx()
        publish_block(ctx, [(("a",), {"g": "a"}, True), (("b",), {"g": "b"}, True)], block=1)
        publish_block(ctx, [((), {"w": 2.0}, True)], block=2, key_cols=())
        rows = SmallJoin(SmallBlockLeaf(1), SmallBlockLeaf(2), []).rows(ctx)
        assert len(rows) == 2

    def test_membership_ands(self):
        ctx = make_ctx()
        publish_block(ctx, [(("a",), {"g": "a"}, False)], block=1)
        publish_block(ctx, [(("a",), {"g2": "a"}, True)], block=2)
        rows = SmallJoin(SmallBlockLeaf(1), SmallBlockLeaf(2), [("g", "g2")]).rows(ctx)
        assert not rows[0].certain


class TestAggregate:
    def test_per_trial_aggregation(self):
        ctx = make_ctx()
        publish_block(
            ctx,
            [
                (("a",), {"g": "a", "v": uv(1.0, [1, 2, 3, 4], 0, 5, ("a",))}, True),
                (("b",), {"g": "b", "v": uv(10.0, [10, 20, 30, 40], 0, 50, ("b",))}, True),
            ],
        )
        node = SmallAggregate(SmallBlockLeaf(1), [], [avg("v", "av")], block_id=50)
        rows = node.rows(ctx)
        out = rows[0].values["av"]
        assert out.value == 5.5
        assert list(out.trials) == [5.5, 11.0, 16.5, 22.0]

    def test_publishes_block(self):
        ctx = make_ctx()
        publish_block(ctx, [(("a",), {"g": "a", "v": 3.0}, True)])
        SmallAggregate(SmallBlockLeaf(1), [], [sum_("v", "sv")], block_id=50).rows(ctx)
        assert 50 in ctx.blocks

    def test_excludes_stable_false_rows(self):
        ctx = make_ctx()
        publish_block(
            ctx, [(("a",), {"g": "a", "v": uv(10.0, [10.0] * T, 8, 12, ("a",))}, True)]
        )
        filtered = SmallSelect(SmallBlockLeaf(1), [Col("v") > 100.0])
        rows = SmallAggregate(filtered, [], [count("n")], block_id=51).rows(ctx)
        assert rows[0].values["n"].value == 0.0

    def test_counts_recomputed_tuples(self):
        ctx = make_ctx()
        publish_block(ctx, [(("a",), {"g": "a", "v": 1.0}, True)])
        SmallAggregate(SmallBlockLeaf(1), [], [count("n")], block_id=52).rows(ctx)
        assert ctx.metrics.recomputed_tuples == 1


class TestUnit:
    def test_publish_as_view(self):
        ctx = make_ctx()
        publish_block(ctx, [(("a",), {"g": "a", "v": 1.0}, True)])
        unit = SmallPlanUnit(
            SmallBlockLeaf(1), publish_id=77, key_cols=["g"], value_cols=["v"]
        )
        unit.run(ctx)
        assert ctx.blocks[77].get(("a",)).values["v"] == 1.0

    def test_result_rows_filter_nonmembers(self):
        ctx = make_ctx()
        publish_block(
            ctx, [(("a",), {"g": "a", "v": uv(10.0, [10.0] * T, 8, 12, ("a",))}, True)]
        )
        unit = SmallPlanUnit(SmallSelect(SmallBlockLeaf(1), [Col("v") > 100.0]))
        unit.run(ctx)
        assert unit.result_rows() == []


class TestClassifyRowPredicate:
    def test_deterministic(self):
        status, point, trials = classify_row_predicate(
            Col("a") > 1.0, {"a": 2.0}, T
        )
        assert status == MEMBER_TRUE and point and trials is None

    def test_uncertain_resolved(self):
        value = uv(10.0, [10.0] * T, 8, 12)
        status, point, trials = classify_row_predicate(
            Col("a") > 100.0, {"a": value}, T
        )
        assert status == MEMBER_FALSE and not point and trials is None

    def test_uncertain_unknown_trials(self):
        value = uv(10.0, [9.0, 10.0, 11.0, 12.0], 8, 12)
        status, point, trials = classify_row_predicate(
            Col("a") > 10.5, {"a": value}, T
        )
        assert status == MEMBER_UNKNOWN
        assert list(trials) == [False, False, True, True]

    def test_equality_ranges(self):
        value = uv(10.0, [10.0] * T, 8, 12)
        status, _, _ = classify_row_predicate(Col("a").eq(99.0), {"a": value}, T)
        assert status == MEMBER_FALSE

    def test_not_equal_mirrors(self):
        value = uv(10.0, [10.0] * T, 8, 12)
        status, _, _ = classify_row_predicate(Col("a").ne(99.0), {"a": value}, T)
        assert status == MEMBER_TRUE
