"""Tests for scan pruning, the plan rewrite the online compiler applies."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.compiler import compile_online
from repro.relational import (
    Catalog,
    Scan,
    avg,
    col,
    count,
    evaluate,
    relation_from_columns,
    scan,
    sum_,
)
from repro.relational.optimizer import prune_scans
from repro.workloads.conviva_queries import CONVIVA_QUERIES
from repro.workloads.tpch_queries import TPCH_QUERIES
from tests.conftest import DIM_SCHEMA, KX_SCHEMA, random_kx

fuzz = settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def catalog(seed=0):
    dim = relation_from_columns(DIM_SCHEMA, k=list(range(6)), label=list("abcdef"))
    return Catalog({"t": random_kx(400, seed=seed, groups=6), "dim": dim})


def scans(plan):
    """{table: [column names]} per Scan, in plan order."""
    return [(n.table, n.schema.names) for n in plan.walk() if isinstance(n, Scan)]


def pruned(plan, cat):
    out = prune_scans(plan, cat.schemas())
    assert evaluate(plan, cat).bag_equal(evaluate(out, cat), 4)
    assert out.output_schema(cat.schemas()) == plan.output_schema(cat.schemas())
    assert [n.node_id for n in out.walk()] == [n.node_id for n in plan.walk()]
    assert type(out) is type(plan) and [type(n) for n in out.walk()] == [
        type(n) for n in plan.walk()
    ]
    return out


class TestPruneScans:
    def test_narrows_scan_without_adding_a_node(self):
        cat = catalog()
        plan = scan("t", KX_SCHEMA).aggregate([], [sum_("x", "sx")])
        out = pruned(plan, cat)
        assert scans(out) == [("t", ["x"])]
        assert scans(plan) == [("t", ["k", "x", "y"])]  # the input is not edited

    def test_keeps_predicate_columns(self):
        cat = catalog()
        plan = scan("t", KX_SCHEMA).select(col("y") > 0).aggregate([], [sum_("x", "sx")])
        assert scans(pruned(plan, cat)) == [("t", ["x", "y"])]

    def test_keeps_join_keys_on_both_sides(self):
        cat = catalog()
        plan = (
            scan("t", KX_SCHEMA)
            .join(scan("dim", DIM_SCHEMA), keys=["k"])
            .aggregate(["label"], [count("n")])
        )
        assert scans(pruned(plan, cat)) == [("t", ["k"]), ("dim", ["k", "label"])]

    def test_a_rename_keeps_what_it_names(self):
        """Q7's shape: the rename maps a column nobody reads afterwards."""
        cat = catalog()
        plan = (
            scan("t", KX_SCHEMA)
            .join(scan("dim", DIM_SCHEMA).rename({"k": "dk", "label": "name"}), keys=[("k", "dk")])
            .aggregate(["k"], [sum_("x", "sx")])
        )
        assert scans(pruned(plan, cat)) == [("t", ["k", "x"]), ("dim", ["k", "label"])]

    def test_count_star_keeps_one_column(self):
        cat = catalog()
        plan = scan("t", KX_SCHEMA).aggregate([], [count("n")])
        assert scans(pruned(plan, cat)) == [("t", ["k"])]

    def test_union_sides_keep_identical_schemas(self):
        cat = catalog()
        plan = (
            scan("t", KX_SCHEMA)
            .select(col("x") > 20)
            .union(scan("t", KX_SCHEMA).select(col("y") > 100))
            .aggregate([], [sum_("x", "sx")])
        )
        assert scans(pruned(plan, cat)) == [("t", ["k", "x", "y"])] * 2

    def test_full_schema_plan_is_returned_as_is(self):
        cat = catalog()
        plan = scan("t", KX_SCHEMA).select(col("x") > 0)
        assert prune_scans(plan, cat.schemas()) is plan

    def test_a_shared_subplan_stays_shared_and_reads_the_union(self):
        cat = catalog()
        base = scan("t", KX_SCHEMA).select(col("x") > 5)
        plan = (
            base.aggregate(["k"], [sum_("x", "sx")])
            .join(base.aggregate(["k"], [sum_("y", "sy")]).rename({"k": "k2"}), keys=[("k", "k2")])
        )
        out = pruned(plan, cat)
        assert scans(out) == [("t", ["k", "x", "y"])] * 2
        assert out.left.child is out.right.child.child

    @pytest.mark.parametrize("name", sorted({**TPCH_QUERIES, **CONVIVA_QUERIES}))
    def test_idempotent_on_the_workload_queries(self, name, tpch_small, conviva_small):
        spec = {**TPCH_QUERIES, **CONVIVA_QUERIES}[name]
        data = tpch_small if name in TPCH_QUERIES else conviva_small
        cat = data.catalog()
        plan = spec.plan
        once = prune_scans(plan, cat.schemas())
        assert prune_scans(once, cat.schemas()) is once
        assert evaluate(once, cat).bag_equal(evaluate(plan, cat), 4)
        # Some scan of every workload query got narrower.
        assert sum(len(c) for _, c in scans(once)) < sum(len(c) for _, c in scans(plan))

    @fuzz
    @given(st.integers(0, 500), st.floats(5.0, 40.0))
    def test_fuzzed_equivalence(self, seed, threshold):
        cat = catalog(seed)
        plan = (
            scan("t", KX_SCHEMA)
            .project([("k", "k"), ("x", "x"), ("y", "y")])
            .select(col("x") > threshold)
            .join(scan("dim", DIM_SCHEMA), keys=["k"])
            .select(col("label").ne("c"))
            .aggregate(["label"], [sum_("y", "sy"), count("n")])
        )
        pruned(plan, cat)


class TestCompilerPrunes:
    def test_batches_and_static_sides_carry_only_what_is_read(self):
        from repro.core import OnlineConfig, OnlineQueryEngine

        cat = catalog()
        inner = scan("t", KX_SCHEMA).aggregate([], [avg("x", "ax")])
        plan = (
            scan("t", KX_SCHEMA)
            .join(scan("dim", DIM_SCHEMA), keys=["k"])
            .join(inner, keys=[])
            .select(col("x") > col("ax"))
            .aggregate(["label"], [count("n")])
        )
        compiled = compile_online(plan, cat, "t")
        assert compiled.stream_columns == ["k", "x"]
        engine = OnlineQueryEngine(cat, "t", OnlineConfig(num_trials=15, seed=3))
        session = engine.open_run(plan, 5)
        try:
            assert {tuple(b.schema.names) for b in session.batches} == {("k", "x")}
            partial = [session.process(i) for i in range(1, 6)][-1]
        finally:
            session.close()
        assert partial.to_relation().bag_equal(evaluate(plan, cat), 3)
