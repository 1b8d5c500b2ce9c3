"""Tests for the Section-9 extensions: stratified batching and
analytical (closed-form) error estimation."""

import numpy as np
import pytest

from repro.batching.partitioner import Partitioner
from repro.batching.stratified import StratifiedPartitioner, stratum_coverage
from repro.bootstrap.analytical import (
    analytical_range,
    avg_stderr,
    count_stderr,
    sum_stderr,
)
from repro.bootstrap.poisson import bootstrap_stdev, trial_multiplicities
from repro.core import OnlineConfig, OnlineQueryEngine
from repro.errors import ReproError
from repro.relational import (
    Catalog,
    avg,
    count,
    evaluate,
    relation_from_columns,
    scan,
)
from tests.conftest import KX_SCHEMA


def skewed_relation(n=3000, seed=0):
    """k=0 dominates; k=5 is rare (the case stratification exists for)."""
    rng = np.random.default_rng(seed)
    weights = np.array([0.6, 0.15, 0.1, 0.08, 0.05, 0.02])
    return relation_from_columns(
        KX_SCHEMA,
        k=rng.choice(6, size=n, p=weights),
        x=rng.gamma(3.0, 4.0, n),
        y=rng.normal(50.0, 10.0, n),
    )


class TestStratifiedPartitioner:
    def test_covers_everything_once(self):
        rel = skewed_relation()
        parts = StratifiedPartitioner("k", seed=1).partition_relation_indices(rel, 8)
        merged = np.sort(np.concatenate(parts))
        assert list(merged) == list(range(len(rel)))

    def test_every_batch_sees_every_stratum(self):
        rel = skewed_relation()
        batches = StratifiedPartitioner("k", seed=1).partition(rel, 8)
        coverage = stratum_coverage(batches, "k")
        assert all(c == 1.0 for c in coverage)

    def test_uniform_partitioner_can_starve_rare_strata(self):
        # The motivating failure mode: with ~10 rare rows and 8 batches,
        # plain shuffling leaves some batch without the rare stratum.
        rng = np.random.default_rng(3)
        rel = relation_from_columns(
            KX_SCHEMA,
            k=np.where(rng.random(400) < 0.02, 5, 0),
            x=rng.gamma(3.0, 4.0, 400),
            y=rng.normal(50.0, 10.0, 400),
        )
        uniform = Partitioner(seed=5).partition(rel, 8)
        stratified = StratifiedPartitioner("k", seed=5).partition(rel, 8)
        assert not all((b.column("k") == 5).any() for b in uniform)
        rare_total = int((rel.column("k") == 5).sum())
        if rare_total >= 8:
            assert all((b.column("k") == 5).any() for b in stratified)

    def test_proportions_preserved(self):
        rel = skewed_relation()
        batches = StratifiedPartitioner("k", seed=1).partition(rel, 6)
        overall = (rel.column("k") == 0).mean()
        for batch in batches:
            assert (batch.column("k") == 0).mean() == pytest.approx(overall, abs=0.05)

    def test_unknown_column_rejected(self):
        with pytest.raises(ReproError, match="stratification column"):
            StratifiedPartitioner("zzz").partition(skewed_relation(), 4)

    def test_deterministic(self):
        rel = skewed_relation()
        a = StratifiedPartitioner("k", seed=2).partition_relation_indices(rel, 5)
        b = StratifiedPartitioner("k", seed=2).partition_relation_indices(rel, 5)
        assert all((x == y).all() for x, y in zip(a, b))

    def test_online_engine_exact_with_stratified_batches(self):
        rel = skewed_relation()
        catalog = Catalog({"t": rel})
        plan = scan("t", KX_SCHEMA).aggregate(["k"], [avg("x", "ax"), count("n")])
        engine = OnlineQueryEngine(catalog, "t", OnlineConfig(num_trials=15, seed=4))
        engine.partitioner = StratifiedPartitioner("k", seed=4)
        final = engine.run_to_completion(plan, 6)
        assert final.to_relation().bag_equal(evaluate(plan, catalog), 3)

    def test_rare_group_estimates_from_batch_one(self):
        rel = skewed_relation()
        catalog = Catalog({"t": rel})
        plan = scan("t", KX_SCHEMA).aggregate(["k"], [count("n")])
        engine = OnlineQueryEngine(catalog, "t", OnlineConfig(num_trials=15, seed=4))
        engine.partitioner = StratifiedPartitioner("k", seed=4)
        first = next(iter(engine.run(plan, 8)))
        assert len(first.rows) == 6  # every stratum already present


class TestAnalyticalBootstrap:
    """The closed forms must agree with the simulation bootstrap."""

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.x = rng.gamma(3.0, 5.0, 800)
        self.trials = trial_multiplicities(800, 400, seed=2, table="t")

    def test_sum_matches_simulation(self):
        simulated = bootstrap_stdev((self.x[:, None] * self.trials).sum(0))
        assert sum_stderr(self.x) == pytest.approx(simulated, rel=0.15)

    def test_count_matches_simulation(self):
        simulated = bootstrap_stdev(self.trials.sum(0))
        assert count_stderr(np.ones(800)) == pytest.approx(simulated, rel=0.15)

    def test_avg_matches_simulation(self):
        sums = (self.x[:, None] * self.trials).sum(0)
        counts = self.trials.sum(0)
        simulated = bootstrap_stdev(sums / counts)
        assert avg_stderr(self.x) == pytest.approx(simulated, rel=0.2)

    def test_sum_scales_linearly(self):
        assert sum_stderr(self.x, scale=3.0) == pytest.approx(3 * sum_stderr(self.x))

    def test_weights_enter_quadratically(self):
        w = np.full(800, 2.0)
        assert sum_stderr(self.x, weights=w) == pytest.approx(2 * sum_stderr(self.x))

    def test_avg_zero_weight_nan(self):
        import math

        assert math.isnan(avg_stderr(self.x, weights=np.zeros(800)))

    def test_analytical_range_symmetric(self):
        lo, hi = analytical_range(10.0, stderr=2.0, slack=2.0)
        assert lo == pytest.approx(2.0)
        assert hi == pytest.approx(18.0)

    def test_analytical_range_covers_simulated(self):
        """The closed-form range must contain the simulated trials' hull
        (what the engine's monitor would publish)."""
        sums = (self.x[:, None] * self.trials).sum(0)
        estimate = float(self.x.sum())
        lo, hi = analytical_range(estimate, sum_stderr(self.x), slack=2.0)
        assert lo <= sums.min() and sums.max() <= hi
