"""Tests for small plan segments: columnar frames over block outputs.

Besides the per-node unit tests, a compact row-at-a-time reference
interpreter (``ref_rows`` below — one ``dict`` per row, the segment's
original implementation) is run against the columnar nodes under
hypothesis: select / project / rename / join / distinct are elementwise
and must agree bit for bit; aggregates sum features in another order and
must agree to rel 1e-12.
"""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import OnlineConfig, OnlineQueryEngine
from repro.core.blocks import (
    MEMBER_FALSE,
    MEMBER_TRUE,
    MEMBER_UNKNOWN,
    RuntimeContext,
)
from repro.core import smallplan
from repro.core.classify import classify_comparison
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
)
from repro.core.values import UncertainValue, VariationRange
from repro.relational import (
    Catalog,
    ColumnType,
    Relation,
    Schema,
    avg,
    count,
    relation_from_columns,
    sum_,
    var,
)
from repro.errors import UnsupportedQueryError
from repro.relational.expressions import Col, Comparison, Func
from repro.storage.columns import CODE_DTYPE
from repro.storage.lineage import LineageColumn
from repro.workloads import CONVIVA_QUERIES, TPCH_QUERIES
from tests.conftest import DIM_SCHEMA, Group, group_rows, output_from_groups

T = 4


def make_ctx(num_trials=T):
    ctx = RuntimeContext(Catalog({}), "t", 100, OnlineConfig(num_trials=num_trials))
    ctx.batch_no = 1
    return ctx


def uv(value, trials, lo, hi, key=()):
    return UncertainValue(value, np.asarray(trials, dtype=float), VariationRange(lo, hi))


def publish_block(ctx, rows, block=1, key_cols=("g",)):
    out = output_from_groups(
        block,
        list(key_cols),
        sorted({c for _, values, _ in rows for c in values} - set(key_cols)),
        [Group(key, values, certain) for key, values, certain in rows],
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
        frame = SmallBlockLeaf(1).frame(ctx)
        assert len(frame) == 1
        assert frame.certain[0] and frame.exist is None

    def test_block_leaf_missing_block(self):
        assert len(SmallBlockLeaf(99).frame(make_ctx())) == 0

    def test_uncertain_group_is_unknown_member(self):
        ctx = make_ctx()
        publish_block(ctx, [(("a",), {"g": "a"}, False)])
        frame = SmallBlockLeaf(1).frame(ctx)
        assert frame.status[0] == MEMBER_UNKNOWN

    def test_static_leaf(self):
        rel = relation_from_columns(DIM_SCHEMA, k=[1, 2], label=["a", "b"])
        frame = SmallStaticLeaf(rel).frame(make_ctx())
        assert len(frame) == 2 and frame.certain.all()
        assert frame.rows() == [{"k": 1, "label": "a"}, {"k": 2, "label": "b"}]


class TestSelect:
    def leaf(self, ctx, value=10.0, trials=None, lo=8.0, hi=12.0):
        trials = trials if trials is not None else [10.0] * T
        publish_block(
            ctx, [(("a",), {"g": "a", "v": uv(value, trials, lo, hi, ("a",))}, True)]
        )
        return SmallBlockLeaf(1)

    def test_stable_true(self):
        ctx = make_ctx()
        frame = SmallSelect(self.leaf(ctx), [Col("v") > 5.0]).frame(ctx)
        assert frame.status[0] == MEMBER_TRUE

    def test_stable_false_retained_with_flag(self):
        ctx = make_ctx()
        frame = SmallSelect(self.leaf(ctx), [Col("v") > 50.0]).frame(ctx)
        assert len(frame) == 1
        assert frame.status[0] == MEMBER_FALSE
        assert not frame.point[0]

    def test_unknown_gets_trial_masks(self):
        ctx = make_ctx()
        node = SmallSelect(
            self.leaf(ctx, trials=[9.0, 10.0, 11.0, 12.0]), [Col("v") > 10.5]
        )
        frame = node.frame(ctx)
        assert frame.status[0] == MEMBER_UNKNOWN
        assert list(frame.exist[0]) == [False, False, True, True]
        assert not frame.point[0]  # point estimate 10 fails
        assert not frame.certain[0]

    def test_deterministic_predicate(self):
        ctx = make_ctx()
        frame = SmallSelect(self.leaf(ctx), [Col("g").eq("a")]).frame(ctx)
        assert frame.status[0] == MEMBER_TRUE

    def test_false_rows_skip_reclassification(self):
        ctx = make_ctx()
        inner = SmallSelect(self.leaf(ctx), [Col("v") > 50.0])
        outer = SmallSelect(inner, [Col("v") > 0.0])
        assert outer.frame(ctx).status[0] == MEMBER_FALSE

    def test_false_conjunct_keeps_the_rows_other_fields(self):
        # Both rows are UNKNOWN under the first conjunct; "a" is then stably
        # false and keeps the existence and certainty it came in with.
        ctx = make_ctx()
        trials = [9.0, 10.0, 11.0, 12.0]
        publish_block(ctx, [
            ((g,), {"g": g, "v": uv(10.0, trials, 8, 12, (g,))}, True) for g in ("a", "b")
        ])
        frame = SmallSelect(SmallBlockLeaf(1), [Col("v") > 10.5, Col("g").ne("a")]).frame(ctx)
        assert frame.status.tolist() == [MEMBER_FALSE, MEMBER_UNKNOWN]
        assert frame.certain.tolist() == [True, False]
        assert frame.exist.tolist() == [[True] * T, [False, False, True, True]]


class TestProjectRenameDistinct:
    def test_project_arithmetic_propagates_uncertainty(self):
        ctx = make_ctx()
        publish_block(
            ctx, [(("a",), {"g": "a", "v": uv(10.0, [10.0] * T, 8, 12, ("a",))}, True)]
        )
        node = SmallProject(SmallBlockLeaf(1), [("w", Col("v") * 2)])
        out = node.frame(ctx).rows()[0]["w"]
        assert isinstance(out, UncertainValue)
        assert out.value == 20.0
        assert (out.vrange.lo, out.vrange.hi) == (16.0, 24.0)

    def test_rename(self):
        ctx = make_ctx()
        publish_block(ctx, [(("a",), {"g": "a"}, True)])
        frame = SmallRename(SmallBlockLeaf(1), {"g": "grp"}).frame(ctx)
        assert frame.rows() == [{"grp": "a"}]

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
        frame = SmallDistinct(SmallBlockLeaf(1), ["g"]).frame(ctx)
        assert len(frame) == 1
        assert frame.status[0] == MEMBER_TRUE  # certain member wins


class TestJoin:
    def test_key_join_combines_values(self):
        ctx = make_ctx()
        publish_block(ctx, [(("a",), {"g": "a", "v": 1.0}, True)], block=1)
        publish_block(ctx, [(("a",), {"g2": "a", "w": 2.0}, True)], block=2, key_cols=("g2",))
        node = SmallJoin(SmallBlockLeaf(1), SmallBlockLeaf(2), [("g", "g2")])
        assert node.frame(ctx).rows() == [{"g": "a", "v": 1.0, "w": 2.0}]

    def test_cross_join(self):
        ctx = make_ctx()
        publish_block(ctx, [(("a",), {"g": "a"}, True), (("b",), {"g": "b"}, True)], block=1)
        publish_block(ctx, [((), {"w": 2.0}, True)], block=2, key_cols=())
        assert len(SmallJoin(SmallBlockLeaf(1), SmallBlockLeaf(2), []).frame(ctx)) == 2

    def test_membership_ands(self):
        ctx = make_ctx()
        publish_block(ctx, [(("a",), {"g": "a"}, False)], block=1)
        publish_block(ctx, [(("a",), {"g2": "a"}, True)], block=2, key_cols=("g2",))
        frame = SmallJoin(SmallBlockLeaf(1), SmallBlockLeaf(2), [("g", "g2")]).frame(ctx)
        assert not frame.certain[0] and frame.status[0] == MEMBER_UNKNOWN


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
        out = node.frame(ctx).rows()[0]["av"]
        assert out.value == 5.5
        assert list(out.trials) == [5.5, 11.0, 16.5, 22.0]

    def test_publishes_block(self):
        ctx = make_ctx()
        publish_block(ctx, [(("a",), {"g": "a", "v": 3.0}, True)])
        SmallAggregate(SmallBlockLeaf(1), [], [sum_("v", "sv")], block_id=50).frame(ctx)
        assert group_rows(ctx.blocks[50])[()].values["sv"].value == 3.0

    def test_excludes_stable_false_rows(self):
        ctx = make_ctx()
        publish_block(
            ctx, [(("a",), {"g": "a", "v": uv(10.0, [10.0] * T, 8, 12, ("a",))}, True)]
        )
        filtered = SmallSelect(SmallBlockLeaf(1), [Col("v") > 100.0])
        frame = SmallAggregate(filtered, [], [count("n")], block_id=51).frame(ctx)
        assert frame.rows()[0]["n"].value == 0.0

    def test_counts_recomputed_tuples(self):
        ctx = make_ctx()
        publish_block(ctx, [(("a",), {"g": "a", "v": 1.0}, True)])
        SmallAggregate(SmallBlockLeaf(1), [], [count("n")], block_id=52).frame(ctx)
        assert ctx.metrics.recomputed_tuples == 1

    def test_scalar_aggregate_over_empty_input_yields_one_row(self):
        ctx = make_ctx()
        ctx.blocks[1] = output_from_groups(1, ["g"], ["v"], [], T)
        node = SmallAggregate(
            SmallBlockLeaf(1), [], [count("n"), avg("v", "av")], block_id=53
        )
        (row,) = node.frame(ctx).rows()
        assert row["n"].value == 0.0 and np.all(row["n"].trials == 0.0)
        assert np.isnan(row["av"].value) and np.isnan(row["av"].trials).all()
        assert () in group_rows(ctx.blocks[53])

    def test_grouped_aggregate_over_empty_input_has_no_rows(self):
        ctx = make_ctx()
        ctx.blocks[1] = output_from_groups(1, ["g"], ["v"], [], T)
        node = SmallAggregate(SmallBlockLeaf(1), ["g"], [count("n")], block_id=54)
        assert len(node.frame(ctx)) == 0 and len(ctx.blocks[54]) == 0


class TestComputation:
    def test_beyond_arithmetic_over_uncertain_values_is_refused(self):
        # Only + - * / carry ranges and trials; a UDF over an uncertain
        # value is not decided by its point estimate.
        ctx = make_ctx()
        publish_block(ctx, [(("a",), {"g": "a", "v": uv(4.0, [4.0] * T, 3, 5, ("a",))}, True)])
        root = Func("root", lambda v: v ** 0.5, [Col("v")])
        with pytest.raises(UnsupportedQueryError, match="over uncertain columns"):
            SmallProject(SmallBlockLeaf(1), [("r", root)]).frame(ctx)
        with pytest.raises(UnsupportedQueryError, match="over uncertain columns"):
            SmallSelect(SmallBlockLeaf(1), [root > 1.0]).frame(ctx)

    def test_udf_over_plain_columns_still_runs(self):
        ctx = make_ctx()
        publish_block(ctx, [(("a",), {"g": "a", "w": 9.0}, True)])
        root = Func("root", lambda v: v ** 0.5, [Col("w")])
        assert SmallProject(SmallBlockLeaf(1), [("r", root)]).frame(ctx).rows() == [{"r": 3.0}]


class TestUnit:
    def test_publish_as_view(self):
        ctx = make_ctx()
        publish_block(ctx, [(("a",), {"g": "a", "v": 1.0}, True)])
        unit = SmallPlanUnit(
            SmallBlockLeaf(1), publish_id=77, key_cols=["g"], value_cols=["v"]
        )
        unit.run(ctx)
        assert group_rows(ctx.blocks[77])[("a",)].values["v"] == 1.0

    def test_result_rows_filter_nonmembers(self):
        ctx = make_ctx()
        publish_block(
            ctx, [(("a",), {"g": "a", "v": uv(10.0, [10.0] * T, 8, 12, ("a",))}, True)]
        )
        unit = SmallPlanUnit(SmallSelect(SmallBlockLeaf(1), [Col("v") > 100.0]))
        unit.run(ctx)
        assert unit.result_rows(ctx) == []

    def test_bare_block_root_delivers_the_groups_own_values(self):
        ctx = make_ctx()
        out = publish_block(ctx, [(("a",), {"g": "a", "v": 1.0}, True)])
        unit = SmallPlanUnit(SmallBlockLeaf(1))
        unit.run(ctx)
        (values,) = unit.result_rows(ctx)
        assert values == group_rows(out)[("a",)].values == {"g": "a", "v": 1.0}


class TestStableFalseRows:
    """Stable-false rows survive a select for semi-join views; joins,
    aggregates and result delivery skip them."""

    def setup_ctx(self):
        ctx = make_ctx()
        publish_block(
            ctx,
            [
                (("a",), {"g": "a", "v": uv(10.0, [10.0] * T, 8, 12, ("a",))}, True),
                (("b",), {"g": "b", "v": uv(90.0, [90.0] * T, 88, 92, ("b",))}, True),
            ],
        )
        publish_block(
            ctx, [(("a",), {"h": "a"}, True), (("b",), {"h": "b"}, True)],
            block=2, key_cols=("h",),
        )
        return ctx, SmallSelect(SmallBlockLeaf(1), [Col("v") > 50.0])

    def test_semi_join_view_keeps_them(self):
        ctx, having = self.setup_ctx()
        unit = SmallPlanUnit(
            SmallProject(having, [("g", Col("g"))]), publish_id=9, key_cols=["g"]
        )
        unit.run(ctx)
        view = ctx.blocks[9]
        assert group_rows(view)[("a",)].member_status == MEMBER_FALSE
        assert view.join_status[view.probe([("a",)])[0]] == MEMBER_FALSE
        assert group_rows(view)[("b",)].member_status == MEMBER_TRUE

    def test_join_aggregate_and_delivery_skip_them(self):
        ctx, having = self.setup_ctx()
        joined = SmallJoin(having, SmallBlockLeaf(2), [("g", "h")]).frame(ctx)
        assert joined.rows()[0]["g"] == "b" and len(joined) == 1
        ctx.metrics.recomputed_tuples = 0
        counted = SmallAggregate(having, [], [count("n")], block_id=60).frame(ctx)
        assert counted.rows()[0]["n"].value == 1.0
        assert ctx.metrics.recomputed_tuples == 1
        unit = SmallPlanUnit(having)
        unit.run(ctx)
        assert [row["g"] for row in unit.result_rows(ctx)] == ["b"]


class TestClassifyRowPredicate:
    """A small select decides each row as ``classify_comparison`` decides
    the same cell on the stream side (one classifier for both)."""

    def both(self, pred, cell):
        ctx = make_ctx()
        publish_block(ctx, [(("a",), {"g": "a", "a": cell}, True)])
        frame = SmallSelect(SmallBlockLeaf(1), [pred]).frame(ctx)
        schema = Schema([("a", ColumnType.FLOAT)])
        if isinstance(cell, UncertainValue):
            # The group's gid (its block's only one) as an attached cell.
            rel = Relation._from_parts(
                schema, {"a": np.zeros(1, dtype=CODE_DTYPE)}, np.ones(1), None,
                lineage={"a": LineageColumn(1, "a")},
            )
        else:
            rel = Relation(schema, {"a": np.array([cell])})
        uncertain = {"a"} if isinstance(cell, UncertainValue) else set()
        want = classify_comparison(pred, rel, uncertain, ctx)
        assert frame.status[0] == want.status[0]
        assert frame.point[0] == want.point[0]
        if want.status[0] == MEMBER_UNKNOWN:
            assert np.array_equal(frame.exist[0], want.trials[0])
        else:
            assert frame.exist is None
        return frame

    def test_deterministic(self):
        frame = self.both(Col("a") > 1.0, 2.0)
        assert frame.status[0] == MEMBER_TRUE and frame.point[0]

    def test_uncertain_resolved(self):
        frame = self.both(Col("a") > 100.0, uv(10.0, [10.0] * T, 8, 12))
        assert frame.status[0] == MEMBER_FALSE and not frame.point[0]

    def test_uncertain_unknown_trials(self):
        frame = self.both(Col("a") > 10.5, uv(10.0, [9.0, 10.0, 11.0, 12.0], 8, 12))
        assert frame.status[0] == MEMBER_UNKNOWN
        assert list(frame.exist[0]) == [False, False, True, True]

    def test_equality_ranges(self):
        frame = self.both(Col("a").eq(99.0), uv(10.0, [10.0] * T, 8, 12))
        assert frame.status[0] == MEMBER_FALSE

    def test_not_equal_mirrors(self):
        frame = self.both(Col("a").ne(99.0), uv(10.0, [10.0] * T, 8, 12))
        assert frame.status[0] == MEMBER_TRUE

    @pytest.mark.parametrize("op", [">", ">=", "<", "<=", "==", "!="])
    def test_every_operator(self, op):
        self.both(Comparison(op, Col("a") * 2.0, Col("a") + 9.0), uv(10.0, [8, 9, 10, 11], 7, 12))


# ---------------------------------------------------------------------------
# The row-at-a-time reference interpreter, and parity against it.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class RefRow:
    values: dict
    certain: bool = True
    status: int = MEMBER_TRUE
    point: bool = True
    exist: np.ndarray | None = None


def _ref_compare(op, a, b):
    with np.errstate(invalid="ignore"):
        return {
            ">": np.greater, ">=": np.greater_equal, "<": np.less,
            "<=": np.less_equal, "==": np.equal, "!=": np.not_equal,
        }[op](a, b)


def _ref_range_compare(op, a, b):
    if op in (">", ">="):
        if (a.lo > b.hi) if op == ">" else (a.lo >= b.hi):
            return MEMBER_TRUE
        if (a.hi <= b.lo) if op == ">" else (a.hi < b.lo):
            return MEMBER_FALSE
        return MEMBER_UNKNOWN
    if op in ("<", "<="):
        return _ref_range_compare(">" if op == "<" else ">=", b, a)
    if op == "==":
        if a.is_point and b.is_point and a.lo == b.lo:
            return MEMBER_TRUE
        return MEMBER_UNKNOWN if a.intersects(b) else MEMBER_FALSE
    inner = _ref_range_compare("==", a, b)
    return {MEMBER_TRUE: MEMBER_FALSE, MEMBER_FALSE: MEMBER_TRUE}.get(inner, MEMBER_UNKNOWN)


def _ref_classify(pred, values, t):
    if not isinstance(pred, Comparison):
        ok = bool(pred.evaluate_row(values))
        return (MEMBER_TRUE if ok else MEMBER_FALSE), ok, None
    left, right = pred.left.evaluate_row(values), pred.right.evaluate_row(values)
    if not isinstance(left, UncertainValue) and not isinstance(right, UncertainValue):
        ok = bool(_ref_compare(pred.op, left, right))
        return (MEMBER_TRUE if ok else MEMBER_FALSE), ok, None

    def rng(v):
        return v.vrange if isinstance(v, UncertainValue) else VariationRange.point(v)

    def pt(v):
        return v.value if isinstance(v, UncertainValue) else float(v)

    def tr(v):
        return v.trials if isinstance(v, UncertainValue) else np.full(t, float(v))

    status = _ref_range_compare(pred.op, rng(left), rng(right))
    point = bool(_ref_compare(pred.op, pt(left), pt(right)))
    if status != MEMBER_UNKNOWN:
        return status, point, None
    return status, point, _ref_compare(pred.op, tr(left), tr(right))


def _rank(status):
    return {MEMBER_FALSE: 0, MEMBER_UNKNOWN: 1, MEMBER_TRUE: 2}[status]


def ref_rows(node, ctx):
    """The row-wise reference semantics of one small node."""
    t = ctx.num_trials
    if isinstance(node, SmallBlockLeaf):
        output = ctx.blocks[node.block_id]
        return [
            RefRow(dict(g.values), g.certain, MEMBER_TRUE if g.certain else MEMBER_UNKNOWN,
                   g.member_point, None if g.certain else g.exist_trials)
            for g in group_rows(output).values()
        ]
    rows = ref_rows(node.child, ctx) if hasattr(node, "child") else None
    if isinstance(node, SmallSelect):
        out = []
        for row in rows:
            if row.status == MEMBER_FALSE:
                out.append(row)
                continue
            status, point, trials, certain = row.status, row.point, row.exist, row.certain
            for pred in node.conjuncts:
                p_status, p_point, p_trials = _ref_classify(pred, row.values, t)
                if p_status == MEMBER_FALSE:
                    out.append(dataclasses.replace(row, status=MEMBER_FALSE, point=False))
                    break
                if p_status == MEMBER_UNKNOWN:
                    status, certain = MEMBER_UNKNOWN, False
                    trials = p_trials if trials is None else trials & p_trials
                point = point and p_point
            else:
                out.append(RefRow(row.values, certain, status, point, trials))
        return out
    if isinstance(node, SmallProject):
        return [
            dataclasses.replace(
                r, values={n: e.evaluate_row(r.values) for n, e in node.outputs}
            )
            for r in rows
        ]
    if isinstance(node, SmallRename):
        return [
            dataclasses.replace(
                r, values={node.mapping.get(k, k): v for k, v in r.values.items()}
            )
            for r in rows
        ]
    if isinstance(node, SmallDistinct):
        merged = {}
        for r in rows:
            key = tuple(r.values[c] for c in node.columns)
            slim = RefRow(
                {c: r.values[c] for c in node.columns},
                r.certain and r.status == MEMBER_TRUE, r.status, r.point, r.exist,
            )
            prev = merged.get(key)
            if prev is not None:
                slim = RefRow(
                    prev.values, prev.certain or slim.certain,
                    max(prev.status, slim.status, key=_rank), prev.point or slim.point,
                    None if prev.exist is None or slim.exist is None else prev.exist | slim.exist,
                )
            merged[key] = slim
        return list(merged.values())
    if isinstance(node, SmallJoin):
        left = [r for r in ref_rows(node.left, ctx) if r.status != MEMBER_FALSE]
        right = [r for r in ref_rows(node.right, ctx) if r.status != MEMBER_FALSE]
        drop = {rk for _, rk in node.keys}
        out = []
        for lr in left:
            for rr in right:
                if any(lr.values[lk] != rr.values[rk] for lk, rk in node.keys):
                    continue
                values = dict(lr.values)
                values.update({k: v for k, v in rr.values.items() if k not in drop})
                exist = lr.exist if rr.exist is None else rr.exist if lr.exist is None else lr.exist & rr.exist
                out.append(RefRow(values, lr.certain and rr.certain,
                                  min(lr.status, rr.status, key=_rank),
                                  lr.point and rr.point, exist))
        return out
    assert isinstance(node, SmallAggregate)
    live = [r for r in rows if r.status != MEMBER_FALSE]
    ctx.metrics.recomputed_tuples += len(live)
    groups = {}
    for r in live:
        groups.setdefault(tuple(r.values[c] for c in node.group_by), []).append(r)
    if not node.group_by and not groups:
        groups[()] = []
    out = []
    for key, members in groups.items():
        point_w = np.array([float(r.point) for r in members])
        exist = np.array(
            [np.ones(t, bool) if r.exist is None else r.exist for r in members], dtype=bool
        ).reshape(len(members), t)
        values = dict(zip(node.group_by, key))
        for spec in node.specs:
            cells = [spec.arg.evaluate_row(r.values) if spec.arg is not None else 1.0 for r in members]
            arg_point = np.array([c.value if isinstance(c, UncertainValue) else float(c) for c in cells])
            arg_trials = np.array(
                [c.trials if isinstance(c, UncertainValue) else np.full(t, float(c)) for c in cells]
            ).reshape(len(members), t)
            point = spec.func.compute(arg_point, point_w)
            trials = np.array([
                spec.func.compute(arg_trials[:, j], exist[:, j].astype(float)) for j in range(t)
            ])
            values[spec.name] = UncertainValue(point, trials, ctx.monitor.observe(point, trials))
        certain = any(r.certain and r.status == MEMBER_TRUE for r in members)
        out.append(RefRow(values, certain, MEMBER_TRUE if certain else MEMBER_UNKNOWN,
                          bool(point_w.any()), None if certain else exist.any(axis=0)))
    return out


def _cells_equal(a, b, rtol):
    if isinstance(a, UncertainValue) or isinstance(b, UncertainValue):
        assert isinstance(a, UncertainValue) and isinstance(b, UncertainValue)
        got = np.array([a.value, a.vrange.lo, a.vrange.hi, *a.trials])
        want = np.array([b.value, b.vrange.lo, b.vrange.hi, *b.trials])
        if rtol:
            return np.allclose(got, want, rtol=rtol, atol=0.0, equal_nan=True)
        return np.array_equal(got, want, equal_nan=True)
    return a == b or (a != a and b != b)


def assert_matches_reference(node, ctx_ref, ctx_col, rtol=0.0):
    t = ctx_col.num_trials
    want = ref_rows(node, ctx_ref)
    frame = node.frame(ctx_col)
    got = frame.rows() if len(frame) else []
    assert len(got) == len(want) == len(frame)
    for i, (g, w) in enumerate(zip(got, want)):
        assert list(g) == list(w.values), i
        for name in g:
            assert _cells_equal(g[name], w.values[name], rtol), (i, name)
        assert frame.certain[i] == w.certain, i
        assert frame.status[i] == w.status, i
        assert frame.point[i] == w.point, i
        exist = np.ones(t, bool) if frame.exist is None else frame.exist[i]
        want_exist = np.ones(t, bool) if w.exist is None else w.exist
        assert np.array_equal(exist, want_exist), i
    assert ctx_ref.metrics.recomputed_tuples == ctx_col.metrics.recomputed_tuples


edge = st.sampled_from([np.nan, np.inf, -np.inf])
finite = st.floats(-1e3, 1e3, allow_nan=False).map(lambda x: round(x, 1))


@st.composite
def blocks(draw):
    """Two published blocks: ``(g, i) -> v (uncertain), w (plain)`` with
    repeated ``g`` values, and ``h -> u (uncertain)``."""
    t = T
    groups1, groups2 = [], []
    for i in range(draw(st.integers(0, 8))):
        g = draw(st.integers(0, 2))
        point = draw(finite)
        trials = [draw(st.one_of(finite, edge)) if draw(st.booleans()) else point
                  for _ in range(t)]
        width = draw(st.floats(0.0, 50.0))
        certain = draw(st.booleans())
        exist = None if certain else np.array(draw(st.lists(st.booleans(), min_size=t, max_size=t)))
        groups1.append(Group(
            (g, i), {"g": g, "i": i, "v": uv(point, trials, point - width, point + width),
                     "w": point + draw(st.floats(-60.0, 60.0)).__round__(1)},
            certain, member_point=certain or draw(st.booleans()), exist_trials=exist,
        ))
    for h in draw(st.lists(st.integers(0, 3), unique=True, max_size=3)):
        point = draw(finite)
        groups2.append(Group(
            (h,), {"h": h, "u": uv(point, [draw(finite) for _ in range(t)], point - 5, point + 5)},
            draw(st.booleans()),
        ))
    return groups1, groups2


def _contexts(case):
    groups1, groups2 = case
    ctxs = []
    for _ in range(2):
        ctx = make_ctx()
        ctx.blocks[1] = output_from_groups(1, ["g", "i"], ["v", "w"], groups1, T)
        ctx.blocks[2] = output_from_groups(2, ["h"], ["u"], groups2, T)
        ctxs.append(ctx)
    return ctxs


def _having():
    return SmallSelect(
        SmallBlockLeaf(1), [Col("v") > Col("w"), Col("g").ne(2), Col("v") * 0.5 <= 400.0]
    )


ELEMENTWISE = {
    "select": _having,
    "project": lambda: SmallProject(
        _having(), [("g", Col("g")), ("z", Col("v") * 2.0 - Col("w") / 4.0), ("w", Col("w") + 1)]
    ),
    "rename": lambda: SmallRename(_having(), {"v": "v2", "g": "grp"}),
    "distinct": lambda: SmallDistinct(_having(), ["g"]),
    "join": lambda: SmallJoin(_having(), SmallBlockLeaf(2), [("g", "h")]),
    "join-dup-keys": lambda: SmallJoin(
        _having(), SmallRename(SmallBlockLeaf(1), {"g": "g2", "i": "i2", "v": "v2", "w": "w2"}),
        [("g", "g2")],
    ),
    "cross-join": lambda: SmallJoin(SmallDistinct(_having(), ["g"]), SmallBlockLeaf(2), []),
    "select-over-join": lambda: SmallSelect(
        SmallJoin(_having(), SmallBlockLeaf(2), [("g", "h")]), [Col("u") < Col("v")]
    ),
}

AGGREGATES = {
    "scalar": lambda: SmallAggregate(
        _having(), [], [count("n"), sum_("v", "sv"), avg(Col("v") * 2.0, "av"), var("w", "vw")], 70
    ),
    "grouped": lambda: SmallAggregate(
        SmallJoin(_having(), SmallBlockLeaf(2), []), ["g"],
        [count("n"), sum_(Col("u") - Col("v"), "d"), avg("w", "aw")], 71,
    ),
}

fuzz = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN / inf trial arithmetic
class TestReferenceParity:
    @fuzz
    @given(blocks(), st.sampled_from(sorted(ELEMENTWISE)))
    def test_elementwise_nodes_are_bit_identical(self, case, shape):
        ctx_ref, ctx_col = _contexts(case)
        assert_matches_reference(ELEMENTWISE[shape](), ctx_ref, ctx_col)

    @fuzz
    @given(blocks(), st.sampled_from(sorted(AGGREGATES)))
    def test_aggregates_match_to_1e_12(self, case, shape):
        ctx_ref, ctx_col = _contexts(case)
        assert_matches_reference(AGGREGATES[shape](), ctx_ref, ctx_col, rtol=1e-12)


class TestNoRowsInsideSegments:
    """Over the 13 nested-query workload queries, small segments build no
    row objects: rows are built for root delivery only."""

    NESTED = ("Q11", "Q17", "Q18", "Q20", "Q22", "C1", "C2", "C4",
              "C6", "C7", "C8", "C9", "C10")

    def test_rows_only_for_root_delivery(self, tpch_small, conviva_small, monkeypatch):
        callers = {"rows": set(), "replace": set()}
        rows, replace = smallplan.Frame.rows, dataclasses.replace

        def counted_rows(self):
            caller = sys._getframe(1)
            callers["rows"].add((caller.f_globals.get("__name__"), caller.f_code.co_name))
            return rows(self)

        def counted_replace(obj, **changes):
            callers["replace"].add(sys._getframe(1).f_globals.get("__name__"))
            return replace(obj, **changes)

        assert dataclasses.replace not in vars(smallplan).values()
        monkeypatch.setattr(smallplan.Frame, "rows", counted_rows)
        monkeypatch.setattr(dataclasses, "replace", counted_replace)
        catalogs = {"Q": tpch_small.catalog(), "C": conviva_small.catalog()}
        for name in self.NESTED:
            spec = {**TPCH_QUERIES, **CONVIVA_QUERIES}[name]
            engine = OnlineQueryEngine(
                catalogs[name[0]], spec.streamed_table, OnlineConfig(num_trials=8, seed=5)
            )
            for _ in engine.run(spec.plan, 20):
                pass
        assert callers["rows"] == {("repro.core.smallplan", "result_rows")}
        assert "repro.core.smallplan" not in callers["replace"]
