"""Tests for the online query rewriter/compiler."""

import pytest

from repro.core.compiler import (
    CompiledQuery,
    OnlineCompiler,
    StreamPipelineUnit,
    compile_online,
)
from repro.core.operators import (
    AggregateOp,
    FilterOp,
    ProjectOp,
    RowSinkOp,
    ScanOp,
    StaticJoinOp,
    UncertainFilterOp,
    UncertainJoinOp,
    UnionOp,
    iter_ops,
)
from repro.errors import UnsupportedQueryError
from repro.relational import Catalog, avg, col, count, relation_from_columns, scan, sum_
from tests.conftest import DIM_SCHEMA, KX_SCHEMA, random_kx


def catalog():
    dim = relation_from_columns(DIM_SCHEMA, k=[0, 1, 2], label=["a", "b", "c"])
    return Catalog({"t": random_kx(300, seed=1, groups=3), "dim": dim})


def spine_of(compiled: CompiledQuery):
    """The root operator of the first stream pipeline unit."""
    for unit in compiled.units:
        if isinstance(unit, StreamPipelineUnit):
            return unit.root_op
    raise AssertionError("no stream pipeline")


class TestFlatCompilation:
    def test_flat_aggregate_is_single_pipeline(self):
        plan = scan("t", KX_SCHEMA).select(col("x") > 1).aggregate([], [count("n")])
        compiled = compile_online(plan, catalog(), "t")
        pipelines = [u for u in compiled.units if isinstance(u, StreamPipelineUnit)]
        assert len(pipelines) == 1
        agg = pipelines[0].root_op
        assert isinstance(agg, AggregateOp)
        assert isinstance(agg.child, FilterOp)
        assert isinstance(agg.child.child, ScanOp)

    def test_deterministic_select_compiles_to_filter(self):
        plan = scan("t", KX_SCHEMA).select(col("x") > 1).aggregate([], [count("n")])
        compiled = compile_online(plan, catalog(), "t")
        assert isinstance(spine_of(compiled).child, FilterOp)

    def test_deterministic_filter_is_labelled_by_plan_node(self):
        select = scan("t", KX_SCHEMA).select(col("x") > 1)
        plan = select.aggregate([], [count("n")])
        labels = [
            [op.label for op in iter_ops(spine_of(compile_online(plan, catalog(), "t")))]
            for _ in range(2)
        ]
        assert labels[0] == labels[1]
        assert f"filter:{select.node_id}" in labels[0]

    def test_static_join_side_precomputed(self):
        plan = (
            scan("t", KX_SCHEMA)
            .join(scan("dim", DIM_SCHEMA), keys=["k"])
            .aggregate(["label"], [count("n")])
        )
        compiled = compile_online(plan, catalog(), "t")
        join = spine_of(compiled).child
        assert isinstance(join, StaticJoinOp)
        assert len(join.side) == 3

    def test_filtered_static_side_evaluated_at_compile_time(self):
        dim_filtered = scan("dim", DIM_SCHEMA).select(col("label").ne("a"))
        plan = (
            scan("t", KX_SCHEMA).join(dim_filtered, keys=["k"]).aggregate([], [count("n")])
        )
        compiled = compile_online(plan, catalog(), "t")
        join = spine_of(compiled).child
        assert len(join.side) == 2

    def test_plain_spj_gets_row_sink(self):
        plan = scan("t", KX_SCHEMA).select(col("x") > 40.0)
        compiled = compile_online(plan, catalog(), "t")
        assert isinstance(compiled.result_sink, RowSinkOp)

    def test_projection_over_stream(self):
        plan = (
            scan("t", KX_SCHEMA)
            .project([("k", "k"), ("x2", col("x") * 2)])
            .aggregate(["k"], [sum_("x2", "s")])
        )
        compiled = compile_online(plan, catalog(), "t")
        assert isinstance(spine_of(compiled).child, ProjectOp)


class TestNestedCompilation:
    def sbi(self):
        inner = scan("t", KX_SCHEMA).aggregate([], [avg("x", "ax")])
        return (
            scan("t", KX_SCHEMA)
            .join(inner, keys=[])
            .select(col("x") > col("ax"))
            .aggregate([], [count("n")])
        )

    def test_two_pipelines_for_sbi(self):
        compiled = compile_online(self.sbi(), catalog(), "t")
        pipelines = [u for u in compiled.units if isinstance(u, StreamPipelineUnit)]
        assert len(pipelines) == 2

    def test_inner_block_runs_before_outer(self):
        compiled = compile_online(self.sbi(), catalog(), "t")
        kinds = [type(u).__name__ for u in compiled.units]
        # inner aggregate pipeline, side view, outer pipeline, result leaf
        assert kinds.index("SmallSegmentUnit") > 0
        outer = [
            i
            for i, u in enumerate(compiled.units)
            if isinstance(u, StreamPipelineUnit)
        ]
        assert outer[-1] > kinds.index("SmallSegmentUnit") - 1

    def test_uncertain_select_compiled(self):
        compiled = compile_online(self.sbi(), catalog(), "t")
        outer = [
            u.root_op for u in compiled.units if isinstance(u, StreamPipelineUnit)
        ][-1]
        assert isinstance(outer.child, UncertainFilterOp)
        assert isinstance(outer.child.child, UncertainJoinOp)

    def test_uncertain_join_attaches_refs(self):
        compiled = compile_online(self.sbi(), catalog(), "t")
        outer = [
            u.root_op for u in compiled.units if isinstance(u, StreamPipelineUnit)
        ][-1]
        join = outer.child.child
        assert join.attach_cols == [("ax", True)]

    def test_or_over_uncertain_rejected(self):
        inner = scan("t", KX_SCHEMA).aggregate([], [avg("x", "ax")])
        plan = (
            scan("t", KX_SCHEMA)
            .join(inner, keys=[])
            .select((col("x") > col("ax")) | (col("y") > 0))
            .aggregate([], [count("n")])
        )
        with pytest.raises(UnsupportedQueryError, match="simple comparison"):
            compile_online(plan, catalog(), "t")

    def test_projection_computing_on_uncertain_rejected(self):
        inner = scan("t", KX_SCHEMA).aggregate([], [avg("x", "ax")])
        plan = (
            scan("t", KX_SCHEMA)
            .join(inner, keys=[])
            .project([("bad", col("ax") * 2), ("x", "x")])
            .select(col("x") > col("bad"))
            .aggregate([], [count("n")])
        )
        with pytest.raises(UnsupportedQueryError, match="lazy evaluation"):
            compile_online(plan, catalog(), "t")

    def test_union_of_streams(self):
        plan = (
            scan("t", KX_SCHEMA)
            .union(scan("t", KX_SCHEMA))
            .aggregate([], [count("n")])
        )
        compiled = compile_online(plan, catalog(), "t")
        assert isinstance(spine_of(compiled).child, UnionOp)

    def test_distinct_over_stream_lowers_to_aggregate(self):
        plan = scan("t", KX_SCHEMA).distinct(["k"])
        compiled = compile_online(plan, catalog(), "t")
        assert any(
            isinstance(u, StreamPipelineUnit) and isinstance(u.root_op, AggregateOp)
            for u in compiled.units
        )


class TestStaticQueries:
    def test_fully_static_query(self):
        plan = scan("dim", DIM_SCHEMA).aggregate([], [count("n")])
        compiled = compile_online(plan, catalog(), "t")
        assert compiled.result_small is not None

    def test_result_schema_exposed(self):
        plan = scan("t", KX_SCHEMA).aggregate(["k"], [count("n")])
        compiled = compile_online(plan, catalog(), "t")
        assert compiled.result_schema.names == ["k", "n"]

    def test_reset_clears_all_units(self):
        plan = scan("t", KX_SCHEMA).aggregate(["k"], [count("n")])
        compiled = compile_online(plan, catalog(), "t")
        compiled.reset()  # no error on fresh units


class TestTagsValidation:
    def test_analyze_runs_at_compile(self):
        compiler = OnlineCompiler(
            scan("t", KX_SCHEMA).aggregate([], [count("n")]), catalog(), "t"
        )
        assert compiler.tags  # populated in constructor
