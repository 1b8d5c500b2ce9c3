"""Tests for the batch baseline, HDA, and viewlet rewrites."""

import numpy as np
import pytest

from repro.baselines import (
    HDAExecutor,
    apply_viewlet_rewrites,
    expressions_equal,
    factorize_common_join,
    plans_equal,
    push_aggregate_below_cross_join,
    run_batch,
    run_batch_on_fraction,
)
from repro.relational import (
    Aggregate,
    Catalog,
    ColumnType,
    Join,
    Project,
    Schema,
    avg,
    col,
    count,
    lit,
    relation_from_columns,
    scan,
    sum_,
)
from repro.relational.relation import Relation
from repro.workloads import TPCH_QUERIES
from tests.conftest import DIM_SCHEMA, KX_SCHEMA, random_kx


def catalog(n=1200, seed=2):
    dim = relation_from_columns(DIM_SCHEMA, k=list(range(6)), label=list("abcdef"))
    return Catalog({"t": random_kx(n, seed=seed, groups=6), "dim": dim})


FLAT = scan("t", KX_SCHEMA).select(col("x") > 10.0).aggregate(["k"], [sum_("y", "sy")])


def nested_plan():
    inner = scan("t", KX_SCHEMA).aggregate([], [avg("x", "ax")])
    return (
        scan("t", KX_SCHEMA)
        .join(inner, keys=[])
        .select(col("x") > col("ax"))
        .aggregate(["k"], [count("n")])
    )


class TestBatchBaseline:
    def test_run_batch(self):
        out = run_batch(FLAT, catalog())
        assert len(out.relation) == 6
        assert out.wall_seconds > 0
        assert out.stats.rows_processed > 0

    def test_fraction_run_scales(self):
        cat = catalog(n=4000)
        full = run_batch(FLAT, cat).relation
        approx = run_batch_on_fraction(FLAT, cat, "t", fraction=0.5, seed=3).relation
        f = {r["k"]: r["sy"] for r in full.iter_rows()}
        a = {r["k"]: r["sy"] for r in approx.iter_rows()}
        for k in f:
            assert a[k] == pytest.approx(f[k], rel=0.25)

    def test_fraction_one_is_exact(self):
        cat = catalog()
        full = run_batch(FLAT, cat).relation
        approx = run_batch_on_fraction(FLAT, cat, "t", fraction=1.0).relation
        assert approx.bag_equal(full, 4)


class TestHDA:
    def test_flat_final_exact(self):
        cat = catalog()
        final = HDAExecutor(cat, "t", seed=1).run_to_completion(FLAT, 6)
        assert final.relation.bag_equal(run_batch(FLAT, cat).relation, 4)

    def test_nested_final_exact(self):
        cat = catalog()
        final = HDAExecutor(cat, "t", seed=1).run_to_completion(nested_plan(), 6)
        assert final.relation.bag_equal(run_batch(nested_plan(), cat).relation, 4)

    def test_flat_has_no_recomputation(self):
        cat = catalog()
        hda = HDAExecutor(cat, "t", seed=1)
        hda.run_to_completion(FLAT, 6)
        assert all(b.recomputed_tuples == 0 for b in hda.metrics.batches)

    def test_nested_recomputation_grows_linearly(self):
        cat = catalog(n=3000)
        hda = HDAExecutor(cat, "t", seed=1)
        hda.run_to_completion(nested_plan(), 6)
        rec = [b.recomputed_tuples for b in hda.metrics.batches]
        assert rec[-1] > 3 * rec[0]
        assert rec == sorted(rec)

    def test_partial_results_every_batch(self):
        cat = catalog()
        partials = list(HDAExecutor(cat, "t", seed=1).run(FLAT, 5))
        assert [p.batch_no for p in partials] == [1, 2, 3, 4, 5]
        assert partials[-1].is_final

    def test_partial_estimates_are_scaled(self):
        cat = catalog(n=4000)
        partials = list(HDAExecutor(cat, "t", seed=1).run(FLAT, 8))
        full = {r["k"]: r["sy"] for r in partials[-1].relation.iter_rows()}
        first = {r["k"]: r["sy"] for r in partials[0].relation.iter_rows()}
        for k, v in first.items():
            assert v == pytest.approx(full[k], rel=0.5)

    def test_dimension_join(self):
        cat = catalog()
        plan = (
            scan("t", KX_SCHEMA)
            .join(scan("dim", DIM_SCHEMA), keys=["k"])
            .aggregate(["label"], [count("n")])
        )
        final = HDAExecutor(cat, "t", seed=1).run_to_completion(plan, 5)
        assert final.relation.bag_equal(run_batch(plan, cat).relation, 4)

    def test_without_viewlet_rewrites(self):
        cat = catalog()
        hda = HDAExecutor(cat, "t", seed=1, use_viewlet_rewrites=False)
        final = hda.run_to_completion(nested_plan(), 5)
        assert final.relation.bag_equal(run_batch(nested_plan(), cat).relation, 4)

    def test_flat_query_never_rebuilds_the_stream(self, tpch_small, monkeypatch):
        """Q6's outer plan reads only its maintained view, so no batch
        concatenates or rescales the accumulated stream."""
        calls = []
        for name in ("concat", "scale"):
            original = getattr(Relation, name)

            def spy(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(Relation, name, spy)
        spec = TPCH_QUERIES["Q6"]
        cat = tpch_small.catalog()
        hda = HDAExecutor(cat, spec.streamed_table, seed=1)
        final = hda.run_to_completion(spec.plan, 5)
        assert calls == []
        assert final.relation.bag_equal(run_batch(spec.plan, cat).relation, 4)
        assert not hda.metrics.batches[-1].state_bytes_matching("accumulated")

    def test_view_state_reported(self):
        cat = catalog()
        hda = HDAExecutor(cat, "t", seed=1)
        hda.run_to_completion(FLAT, 4)
        assert hda.metrics.batches[-1].state_bytes_matching("view:") > 0


AB = Schema([("a", ColumnType.INT), ("u", ColumnType.FLOAT)])
CD = Schema([("b", ColumnType.INT), ("v", ColumnType.FLOAT)])


def two_table_catalog(seed=0):
    rng = np.random.default_rng(seed)
    r1 = relation_from_columns(AB, a=rng.integers(0, 3, 40), u=rng.normal(5, 1, 40))
    r2 = relation_from_columns(CD, b=rng.integers(0, 4, 50), v=rng.normal(2, 1, 50))
    return Catalog({"r1": r1, "r2": r2})


class TestViewletRewrites:
    def cross_agg_plan(self):
        return (
            scan("r1", AB)
            .join(scan("r2", CD), keys=[])
            .aggregate(["a", "b"], [sum_(col("u") * col("v"), "suv"), count("n")])
        )

    def test_expressions_equal(self):
        assert expressions_equal(col("x") + 1, col("x") + 1)
        assert not expressions_equal(col("x") + 1, col("x") + 2)
        assert not expressions_equal(col("x"), lit(1))

    def test_plans_equal(self):
        assert plans_equal(self.cross_agg_plan(), self.cross_agg_plan())
        assert not plans_equal(self.cross_agg_plan(), scan("r1", AB))

    def test_push_aggregate_fires(self):
        cat = two_table_catalog()
        rewritten = push_aggregate_below_cross_join(
            self.cross_agg_plan(), cat.schemas()
        )
        assert isinstance(rewritten, Project)
        assert isinstance(rewritten.child, Join)
        assert isinstance(rewritten.child.left, Aggregate)

    def test_push_aggregate_preserves_semantics(self):
        cat = two_table_catalog()
        plan = self.cross_agg_plan()
        rewritten = push_aggregate_below_cross_join(plan, cat.schemas())
        assert run_batch(plan, cat).relation.bag_equal(
            run_batch(rewritten, cat).relation, 4
        )

    def test_push_aggregate_single_side_sum(self):
        cat = two_table_catalog()
        plan = (
            scan("r1", AB)
            .join(scan("r2", CD), keys=[])
            .aggregate(["a"], [sum_("u", "su")])
        )
        rewritten = push_aggregate_below_cross_join(plan, cat.schemas())
        assert rewritten is not None
        assert run_batch(plan, cat).relation.bag_equal(
            run_batch(rewritten, cat).relation, 4
        )

    def test_push_aggregate_skips_keyed_join(self):
        plan = (
            scan("r1", AB)
            .rename({"a": "b"})
            .join(scan("r2", CD), keys=["b"])
            .aggregate(["b"], [count("n")])
        )
        assert push_aggregate_below_cross_join(plan, {}) is None

    def test_push_aggregate_skips_avg(self):
        plan = (
            scan("r1", AB)
            .join(scan("r2", CD), keys=[])
            .aggregate(["a"], [avg("u", "au")])
        )
        assert push_aggregate_below_cross_join(plan, two_table_catalog().schemas()) is None

    def test_factorize_fires(self):
        q = scan("r1", AB)
        union = q.join(scan("r2", CD), keys=[]).union(
            scan("r1", AB).join(scan("r3", CD), keys=[])
        )
        out = factorize_common_join(union)
        assert isinstance(out, Join)

    def test_factorize_preserves_semantics(self):
        cat = two_table_catalog()
        cat.register("r3", cat.get("r2").scale(1.0))
        union = (
            scan("r1", AB)
            .join(scan("r2", CD), keys=[])
            .union(scan("r1", AB).join(scan("r3", CD), keys=[]))
        )
        out = factorize_common_join(union)
        assert run_batch(union, cat).relation.bag_equal(run_batch(out, cat).relation, 4)

    def test_factorize_requires_common_side(self):
        union = (
            scan("r1", AB)
            .join(scan("r2", CD), keys=[])
            .union(scan("r4", AB).join(scan("r3", CD), keys=[]))
        )
        assert factorize_common_join(union) is None

    def test_apply_all_reaches_fixpoint(self):
        cat = two_table_catalog()
        out = apply_viewlet_rewrites(self.cross_agg_plan(), cat.schemas())
        again = apply_viewlet_rewrites(out, cat.schemas())
        assert plans_equal(out, again)
