"""End-to-end tests of the online query engine (controller + compiler).

The central property is Theorem 1: the partial result delivered at batch
``i`` equals evaluating the query on the accumulated data ``D_i`` with
multiplicities scaled by ``m_i`` — checked here batch by batch for every
supported query shape, and exactly (not approximately) at the final batch.
"""

import numpy as np
import pytest

from repro.batching import Partitioner
from repro.baselines import run_batch
from repro.core import OnlineConfig, OnlineQueryEngine
from repro.core.values import UncertainValue
from repro.errors import UnsupportedQueryError
from repro.relational import (
    Catalog,
    Relation,
    avg,
    col,
    count,
    evaluate,
    max_,
    relation_from_columns,
    scan,
    stddev,
    sum_,
)
from tests.conftest import DIM_SCHEMA, KX_SCHEMA, random_kx


def make_catalog(n=1500, seed=0, groups=6) -> Catalog:
    dim = relation_from_columns(
        DIM_SCHEMA, k=list(range(groups)), label=[f"g{i}" for i in range(groups)]
    )
    return Catalog({"t": random_kx(n, seed=seed, groups=groups), "dim": dim})


def engine(catalog, **kwargs) -> OnlineQueryEngine:
    defaults = dict(num_trials=25, seed=5)
    defaults.update(kwargs)
    return OnlineQueryEngine(catalog, "t", OnlineConfig(**defaults))


def check_theorem1(plan, catalog, num_batches=6, **config):
    """Every batch's point result must equal Q(D_i, m_i)."""
    eng = engine(catalog, **config)
    streamed = catalog.get("t")
    partitioner = Partitioner(mode="shuffle", seed=eng.config.seed)
    batches = partitioner.partition_indices(len(streamed), num_batches)
    seen = np.empty(0, dtype=np.intp)
    for partial in eng.run(plan, num_batches):
        seen = np.concatenate([seen, batches[partial.batch_no - 1]])
        d_i = streamed.take(np.sort(seen)).scale(len(streamed) / len(seen))
        expected = evaluate(plan, catalog.replace("t", d_i))
        got = partial.to_relation()
        assert got.bag_equal(expected, ndigits=4), (
            f"batch {partial.batch_no}: {sorted(got.to_multiset(3))[:3]} != "
            f"{sorted(expected.to_multiset(3))[:3]}"
        )
    return eng


FLAT = scan("t", KX_SCHEMA).select(col("x") > 10.0).aggregate(
    ["k"], [sum_("y", "sy"), count("n")]
)


def sbi_plan():
    inner = scan("t", KX_SCHEMA).aggregate([], [avg("x", "ax")])
    return (
        scan("t", KX_SCHEMA)
        .join(inner, keys=[])
        .select(col("x") > col("ax"))
        .aggregate([], [avg("y", "ay"), count("n")])
    )


def correlated_plan():
    inner = (
        scan("t", KX_SCHEMA)
        .aggregate(["k"], [avg("x", "ax")])
        .rename({"k": "k2"})
    )
    return (
        scan("t", KX_SCHEMA)
        .join(inner, keys=[("k", "k2")])
        .select(col("x") > col("ax") * 1.1)
        .aggregate(["k"], [sum_("y", "sy")])
    )


def semijoin_plan():
    member = (
        scan("t", KX_SCHEMA)
        .aggregate(["k"], [sum_("x", "sx")])
        .select(col("sx") > 4200.0)
        .project([("k", "k")])
        .rename({"k": "k2"})
    )
    return (
        scan("t", KX_SCHEMA)
        .join(member, keys=[("k", "k2")])
        .aggregate(["k"], [count("n")])
    )


def agg_of_agg_plan():
    counts = scan("t", KX_SCHEMA).aggregate(["k"], [count("n")])
    avg_n = counts.aggregate([], [avg("n", "an")])
    return (
        counts.join(avg_n, keys=[])
        .select(col("n") > col("an"))
        .project([("k", "k"), ("n", "n")])
    )


class TestTheorem1:
    def test_flat_query(self):
        check_theorem1(FLAT, make_catalog())

    def test_sbi(self):
        check_theorem1(sbi_plan(), make_catalog())

    def test_correlated(self):
        check_theorem1(correlated_plan(), make_catalog())

    def test_semijoin_membership(self):
        check_theorem1(semijoin_plan(), make_catalog())

    def test_agg_of_agg(self):
        check_theorem1(agg_of_agg_plan(), make_catalog())

    def test_static_dimension_join(self):
        plan = (
            scan("t", KX_SCHEMA)
            .join(scan("dim", DIM_SCHEMA), keys=["k"])
            .aggregate(["label"], [avg("y", "ay")])
        )
        check_theorem1(plan, make_catalog())

    def test_flat_with_blocks_partitioning(self):
        eng = OnlineQueryEngine(
            make_catalog(), "t", OnlineConfig(num_trials=10, seed=1),
            partition_mode="blocks",
        )
        final = eng.run_to_completion(FLAT, 5)
        expected = run_batch(FLAT, make_catalog()).relation
        assert final.to_relation().bag_equal(expected, 4)

    def test_udaf_stddev(self):
        plan = scan("t", KX_SCHEMA).aggregate(["k"], [stddev("y", "sd")])
        check_theorem1(plan, make_catalog())

    def test_opt1_disabled_still_exact(self):
        check_theorem1(sbi_plan(), make_catalog(), prune_with_ranges=False)

    def test_opt2_disabled_still_exact(self):
        check_theorem1(sbi_plan(), make_catalog(), lazy_lineage=False)

    def test_different_seed_still_exact_final(self):
        cat = make_catalog(seed=9)
        eng = engine(cat, seed=123)
        final = eng.run_to_completion(sbi_plan(), 7)
        expected = run_batch(sbi_plan(), cat).relation
        assert final.to_relation().bag_equal(expected, 4)


class TestResultStream:
    def test_yields_one_result_per_batch(self):
        results = list(engine(make_catalog()).run(FLAT, 5))
        assert [r.batch_no for r in results] == [1, 2, 3, 4, 5]

    def test_fraction_processed_monotone(self):
        fractions = [r.fraction_processed for r in engine(make_catalog()).run(FLAT, 5)]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    def test_final_flag(self):
        results = list(engine(make_catalog()).run(FLAT, 4))
        assert not results[0].is_final
        assert results[-1].is_final

    def test_intermediate_rows_carry_uncertainty(self):
        results = list(engine(make_catalog()).run(FLAT, 4))
        first = results[0].rows[0]
        assert any(isinstance(v, UncertainValue) for v in first.values())

    def test_final_rows_are_plain(self):
        results = list(engine(make_catalog()).run(FLAT, 4))
        last = results[-1].rows[0]
        assert not any(isinstance(v, UncertainValue) for v in last.values())

    def test_error_shrinks_with_data(self):
        results = list(engine(make_catalog(n=4000), num_trials=60).run(sbi_plan(), 10))
        rsds = [r.max_relative_stdev() for r in results[:-1]]
        assert rsds[-1] < rsds[0]

    def test_confidence_intervals_available(self):
        results = list(engine(make_catalog()).run(FLAT, 4))
        cis = results[0].confidence_intervals()
        lo, hi = next(iter(cis[0].values()))
        assert lo <= hi

    def test_early_stop_is_callers_choice(self):
        gen = engine(make_catalog()).run(FLAT, 10)
        first = next(gen)
        gen.close()  # the user is satisfied; no error
        assert first.batch_no == 1

    def test_batch_rows_parameter(self):
        cat = make_catalog(n=1000)
        results = list(engine(cat).run(FLAT, num_batches=0, batch_rows=250))
        assert len(results) == 4

    def test_run_to_completion_batch_rows(self):
        cat = make_catalog(n=1000)
        final = engine(cat).run_to_completion(FLAT, num_batches=0, batch_rows=250)
        assert final.is_final
        assert final.num_batches == 4
        expected = run_batch(FLAT, cat).relation
        assert final.to_relation().bag_equal(expected, 4)

    def test_run_to_completion_empty_table(self):
        cat = Catalog({"t": random_kx(0), "dim": make_catalog().get("dim")})
        # Empty stream -> a single batch with an empty delta still works.
        eng = engine(cat)
        partials = list(eng.run(FLAT, 3))
        assert len(partials) == 1
        final = partials[0]
        assert final.is_final
        assert final.rows == []
        # The whole (empty) input was processed.
        assert final.fraction_processed == 1.0

    def test_run_to_completion_empty_table_sharded(self):
        from repro.engine.shards import ShardedQueryEngine

        cat = Catalog({"t": random_kx(0), "dim": make_catalog().get("dim")})
        eng = ShardedQueryEngine(
            cat, "t", OnlineConfig(num_trials=25, seed=5, shards=2)
        )
        partials = list(eng.run(FLAT, 3))
        assert eng.shard_plan is not None and eng.shard_plan.shardable
        assert len(partials) == 1
        final = partials[0]
        assert final.is_final
        assert final.rows == []
        assert final.fraction_processed == 1.0


class TestMetrics:
    def test_recomputed_zero_for_flat(self):
        eng = engine(make_catalog())
        eng.run_to_completion(FLAT, 5)
        assert eng.metrics.total_recomputed == 0

    def test_recomputed_positive_for_nested(self):
        eng = engine(make_catalog())
        eng.run_to_completion(sbi_plan(), 5)
        assert eng.metrics.total_recomputed > 0

    def test_state_bytes_reported(self):
        eng = engine(make_catalog())
        eng.run_to_completion(sbi_plan(), 5)
        assert eng.metrics.batches[-1].total_state_bytes > 0

    def test_wall_seconds_positive(self):
        eng = engine(make_catalog())
        eng.run_to_completion(FLAT, 3)
        assert all(b.wall_seconds > 0 for b in eng.metrics.batches)

    def test_new_tuples_sum_to_total(self):
        cat = make_catalog(n=1000)
        eng = engine(cat)
        eng.run_to_completion(FLAT, 4)
        assert sum(b.new_tuples for b in eng.metrics.batches) == 1000

    def test_seconds_until_fraction(self):
        eng = engine(make_catalog())
        eng.run_to_completion(FLAT, 10)
        assert eng.metrics.seconds_until_fraction(0.1) <= eng.metrics.total_seconds


class TestUnsupported:
    def test_minmax_online_rejected(self):
        plan = scan("t", KX_SCHEMA).aggregate([], [max_("x", "mx")])
        with pytest.raises(UnsupportedQueryError):
            engine(make_catalog()).run_to_completion(plan, 3)

    def test_stream_stream_join_rejected(self):
        right = scan("t", KX_SCHEMA).rename({"k": "k2", "x": "x2", "y": "y2"})
        plan = scan("t", KX_SCHEMA).join(right, keys=[]).aggregate([], [count("n")])
        with pytest.raises(UnsupportedQueryError):
            engine(make_catalog()).run_to_completion(plan, 3)


class TestRecoveryValve:
    """Exhausting the recovery budget must flip the engine into
    conservative mode (monitor off), finish the run, and still deliver
    the exact final answer — no batch may be silently dropped."""

    def test_budget_exhaustion_disables_pruning_and_stays_exact(self, monkeypatch):
        from repro.core import controller
        from repro.core.sentinels import SentinelStore
        from repro.errors import RangeIntegrityError

        monkeypatch.setattr(controller, "_MAX_RECOVERIES", 2)
        original_check = SentinelStore.check

        def forced_check(self, ctx):
            # Fail every live (non-replay) batch while pruning is on: the
            # budget can never absorb this, so the valve must trip.
            if ctx.monitor.enabled and not ctx.monitor.replaying:
                ctx.monitor.record_failure()
                raise RangeIntegrityError("forced failure")
            return original_check(self, ctx)

        monkeypatch.setattr(SentinelStore, "check", forced_check)

        cat = make_catalog(n=1200)
        plan = sbi_plan()
        eng = engine(cat, num_trials=8)
        final = eng.run_to_completion(plan, 6)

        assert eng.metrics.pruning_disabled
        assert eng.metrics.num_recoveries >= 1
        # Every batch survived the valve: the final answer is still exact.
        expected = evaluate(plan, cat)
        assert final.to_relation().bag_equal(expected, 3)
        # Retried batches re-ingest their delta, so the total is at least
        # (not exactly) the table size — what matters is nothing was lost.
        assert sum(b.new_tuples for b in eng.metrics.batches) >= 1200

    def test_pruning_disabled_not_set_without_valve(self):
        eng = engine(make_catalog())
        eng.run_to_completion(sbi_plan(), 5)
        assert not eng.metrics.pruning_disabled


class TestOptimizationToggles:
    def test_opt1_off_recomputes_more(self):
        cat = make_catalog(n=2000)
        on = engine(cat)
        on.run_to_completion(sbi_plan(), 6)
        off = engine(cat, prune_with_ranges=False)
        off.run_to_completion(sbi_plan(), 6)
        assert off.metrics.total_recomputed > on.metrics.total_recomputed

    def test_opt1_off_nd_store_grows_linearly(self):
        cat = make_catalog(n=2000)
        off = engine(cat, prune_with_ranges=False)
        off.run_to_completion(sbi_plan(), 6)
        recomputed = [b.recomputed_tuples for b in off.metrics.batches]
        # Without pruning the whole history is re-evaluated each batch.
        assert recomputed[-1] > 0.9 * 2000


class TestEmptyInputs:
    def test_scalar_aggregate_over_never_matching_filter(self):
        """A scalar aggregate must yield its one row even when nothing
        ever passes the filter (batch-evaluator parity; the Q17 edge case
        where no part matches)."""
        cat = make_catalog(n=300)
        plan = (
            scan("t", KX_SCHEMA)
            .select(col("x") > 1e12)
            .aggregate([], [sum_("y", "sy"), count("n")])
        )
        final = engine(cat).run_to_completion(plan, 4)
        assert final.to_plain_rows() == [{"sy": 0.0, "n": 0.0}]
        expected = run_batch(plan, cat).relation
        assert final.to_relation().bag_equal(expected, 4)

    def test_scalar_aggregate_over_empty_uncertain_filter(self):
        cat = make_catalog(n=300)
        inner = scan("t", KX_SCHEMA).aggregate([], [avg("x", "ax")])
        plan = (
            scan("t", KX_SCHEMA)
            .join(inner, keys=[])
            .select(col("x") > col("ax") * 1e9)
            .aggregate([], [count("n")])
        )
        final = engine(cat).run_to_completion(plan, 4)
        assert final.to_plain_rows() == [{"n": 0.0}]


class TestRunLifecycle:
    def test_engine_reusable_after_close(self):
        """A closed run must not break the engine's next run."""
        catalog = make_catalog(300)
        plan = scan("t", KX_SCHEMA).aggregate(["k"], [avg("x", "ax")])
        eng = engine(catalog, num_trials=5)
        first = eng.run_to_completion(plan, 3)
        second = eng.run_to_completion(plan, 3)
        for ra, rb in zip(first.sorted_plain_rows(), second.sorted_plain_rows()):
            assert ra == rb


class TestSpjOverUncertainColumns:
    """Aggregate-free results whose rows carry an attached aggregate."""

    @staticmethod
    def joined():
        inner = (
            scan("t", KX_SCHEMA)
            .aggregate(["k"], [avg("x", "ax")])
            .rename({"k": "k2"})
        )
        return scan("t", KX_SCHEMA).join(inner, keys=[("k", "k2")])

    def check_final_exact(self, plan, catalog):
        partials = list(engine(catalog, num_trials=10).run(plan, 6))
        for partial in partials[:-1]:
            for row in partial.rows:
                assert isinstance(row["ax"], UncertainValue)
        final = partials[-1].to_relation()
        assert final.bag_equal(run_batch(plan, catalog).relation, ndigits=6)

    def test_partials_hold_values_not_lineage_refs(self):
        plan = (
            self.joined()
            .select(col("x") > col("ax"))
            .project([("k", col("k")), ("ax", col("ax"))])
        )
        self.check_final_exact(plan, make_catalog(600))

    def test_projection_keeps_lineage_sidecars(self):
        from repro.core.operators import iter_ops
        from repro.core.operators.base import NDStore

        plan = (
            self.joined()
            .project([("k", col("k")), ("x", col("x")), ("ax", col("ax"))])
            .select(col("x") > col("ax"))
        )
        catalog = make_catalog(600)
        session = engine(catalog, num_trials=10).open_run(plan, 6)
        ops = [
            op
            for unit in session.compiled.units
            if hasattr(unit, "root_op")
            for op in iter_ops(unit.root_op)
        ]
        seen = 0
        try:
            for batch_no in range(1, 7):
                session.process(batch_no)
                for op in ops:
                    for _, value in op.state_items():
                        rel = value.rows if isinstance(value, NDStore) else value
                        if not isinstance(rel, Relation):
                            continue
                        # An attached column is its gids, never objects,
                        # through the projection and into every store.
                        for name in op.uncertain_cols & set(rel.columns):
                            assert rel.columns[name].dtype != object, (op.label, name)
                            assert not len(rel) or name in rel.lineage, (op.label, name)
                            seen += len(rel)
        finally:
            session.close()
        assert seen
        self.check_final_exact(plan, catalog)
