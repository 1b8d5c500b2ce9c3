"""Tests for mini-batch partitioning and the Poissonized bootstrap."""

import hashlib
import math

import numpy as np
import pytest

from repro.batching import BatchInfo, Partitioner, num_batches_for, shuffle_relation
from repro.bootstrap import bootstrap_ci, bootstrap_stdev, trial_multiplicities
from repro.bootstrap.poisson import _POISSON1
from repro.errors import ReproError
from tests.conftest import random_kx


class TestBatchInfo:
    def test_scale(self):
        info = BatchInfo(batch_no=2, delta_rows=10, seen_rows=20, total_rows=100)
        assert info.scale == 5.0

    def test_scale_empty(self):
        assert BatchInfo(1, 0, 0, 100).scale == 1.0

    def test_fraction_seen(self):
        assert BatchInfo(1, 10, 25, 100).fraction_seen == 0.25


class TestPartitioner:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError):
            Partitioner(mode="bogus")

    def test_partitions_cover_everything_once(self):
        parts = Partitioner(seed=1).partition_indices(100, 7)
        merged = np.sort(np.concatenate(parts))
        assert list(merged) == list(range(100))

    def test_partition_counts(self):
        parts = Partitioner(seed=1).partition_indices(100, 7)
        assert len(parts) == 7
        assert sum(len(p) for p in parts) == 100

    def test_deterministic_given_seed(self):
        a = Partitioner(seed=3).partition_indices(50, 5)
        b = Partitioner(seed=3).partition_indices(50, 5)
        assert all((x == y).all() for x, y in zip(a, b))

    def test_different_seeds_differ(self):
        a = Partitioner(seed=3).partition_indices(500, 5)
        b = Partitioner(seed=4).partition_indices(500, 5)
        assert any((x != y).any() for x, y in zip(a, b))

    def test_blocks_mode_covers_everything(self):
        parts = Partitioner(mode="blocks", seed=1, block_rows=16).partition_indices(
            200, 4
        )
        merged = np.sort(np.concatenate(parts))
        assert list(merged) == list(range(200))

    def test_blocks_mode_keeps_contiguity(self):
        parts = Partitioner(mode="blocks", seed=1, block_rows=10).partition_indices(
            100, 2
        )
        # Every index shares its block (i // 10) with 9 companions somewhere
        # in the same partition.
        for part in parts:
            blocks, counts = np.unique(part // 10, return_counts=True)
            assert set(counts) == {10}

    def test_more_batches_than_rows(self):
        parts = Partitioner(seed=1).partition_indices(3, 10)
        assert sum(len(p) for p in parts) == 3

    def test_zero_batches_rejected(self):
        with pytest.raises(ReproError):
            Partitioner().partition_indices(10, 0)

    def test_partition_materializes_relations(self):
        rel = random_kx(100, seed=2)
        parts = Partitioner(seed=1).partition(rel, 4)
        assert sum(len(p) for p in parts) == 100

    def test_shuffle_is_random_but_complete(self):
        rel = random_kx(50, seed=2)
        shuffled = shuffle_relation(rel, seed=9)
        assert shuffled.bag_equal(rel)
        assert list(shuffled.column("x")) != list(rel.column("x"))


class TestNumBatchesFor:
    def test_exact_division(self):
        assert num_batches_for(100, 25) == 4

    def test_rounds_up(self):
        assert num_batches_for(101, 25) == 5

    def test_at_least_one(self):
        assert num_batches_for(0, 25) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ReproError):
            num_batches_for(100, 0)


class TestPoissonBootstrap:
    def test_shape(self):
        m = trial_multiplicities(50, 30, seed=0, table="t")
        assert m.shape == (50, 30)

    def test_deterministic_per_key(self):
        a = trial_multiplicities(50, 30, seed=0, table="t")
        b = trial_multiplicities(50, 30, seed=0, table="t")
        assert (a == b).all()

    def test_differs_across_tables_and_seeds(self):
        a = trial_multiplicities(50, 30, seed=0, table="t")
        assert (a != trial_multiplicities(50, 30, seed=0, table="u")).any()
        assert (a != trial_multiplicities(50, 30, seed=1, table="t")).any()

    def test_a_row_is_a_function_of_its_id_alone(self):
        """Not of the other rows of the call, their order, repeats, the
        number of trials drawn, or the ids' integer type."""
        full = trial_multiplicities(40, 12, seed=3, table="t")
        ids = np.array([7, 2, 7, 39, 0])
        picked = trial_multiplicities(5, 12, 3, "t", ids)
        assert (picked == full[ids]).all()
        assert (trial_multiplicities(5, 12, 3, "t", ids.astype(np.uint32)) == picked).all()
        assert (trial_multiplicities(40, 7, seed=3, table="t") == full[:, :7]).all()
        far = np.array([2**40 + 5, 5])
        assert (trial_multiplicities(2, 12, 3, "t", far)[1] == full[5]).all()

    def test_poisson_mean_one(self):
        m = trial_multiplicities(5000, 20, seed=0, table="t")
        assert m.mean() == pytest.approx(1.0, abs=0.05)

    def test_counts_are_narrow(self):
        m = trial_multiplicities(100, 10, seed=0, table="t")
        assert m.dtype == np.uint8
        assert m.max() <= 8

    @pytest.mark.parametrize("rows,trials", [(0, 100), (3, 0), (3, 7), (1, 1), (4, 101)])
    def test_odd_shapes(self, rows, trials):
        m = trial_multiplicities(rows, trials, seed=0, table="t")
        assert m.shape == (rows, trials)
        assert m.dtype == np.uint8 and m.flags.c_contiguous
        ids = np.arange(rows)[::-1]
        assert (trial_multiplicities(rows, trials, 0, "t", ids) == m[::-1]).all()

    def test_stream_is_pinned(self):
        """The draw is part of every recorded result: it may not change
        silently with the NumPy version or the host's byte order."""
        ids = np.array([0, 1, 2, 1000, 39_999, 2**33, 5])
        m = trial_multiplicities(7, 5, 42, "lineitem", ids)
        assert m[0].tolist() == [1, 2, 1, 0, 1]
        assert hashlib.sha256(m.tobytes()).hexdigest() == (
            "c87c195a7da76892d9269732b917a46646a17e435efc9d2d73a412c4a9f1de0c"
        )

    def test_cells_are_uncorrelated(self):
        """Lag-1 correlation across adjacent row ids, across adjacent
        trials, and between the four 16-bit lanes of one hashed word."""
        # 10**6 cell pairs per lane pair: 5e-3 is five standard errors.
        m = trial_multiplicities(40_000, 100, seed=5, table="t").astype(np.float64)

        def corr(a, b):
            return abs(np.corrcoef(a.ravel(), b.ravel())[0, 1])

        assert corr(m[:-1], m[1:]) < 5e-3
        assert corr(m[:, :-1], m[:, 1:]) < 5e-3
        for i in range(4):
            for j in range(i + 1, 4):
                assert corr(m[:, i::4], m[:, j::4]) < 5e-3

    def test_table_is_poisson_one(self):
        """Exact distribution of the 65 536-entry inverse-CDF table."""
        counts = np.bincount(_POISSON1)
        assert counts.sum() == 65536 and _POISSON1.dtype == np.uint8
        assert (np.diff(_POISSON1.astype(int)) >= 0).all()
        ks = np.arange(len(counts))
        pmf = counts / 65536.0
        exact = np.array([math.exp(-1.0) / math.factorial(k) for k in ks])
        assert np.abs(pmf - exact).max() < 2e-5
        assert 1.0 - exact.sum() < 2e-5  # the mass of the counts the table lacks
        mean = (pmf * ks).sum()
        assert mean == pytest.approx(1.0, abs=1e-4)
        assert (pmf * (ks - mean) ** 2).sum() == pytest.approx(1.0, abs=1e-3)

    def test_chi_square_against_poisson_one(self):
        m = trial_multiplicities(10_000, 100, seed=0, table="t")
        observed = np.bincount(np.minimum(m.ravel(), 7), minlength=8)
        p = np.array([math.exp(-1.0) / math.factorial(k) for k in range(7)])
        expected = np.append(p, 1.0 - p.sum()) * m.size
        chi2 = ((observed - expected) ** 2 / expected).sum()
        assert chi2 < 29.9  # χ²(7 df) at p = 1e-4

    def test_stdev_estimator(self):
        assert bootstrap_stdev(np.array([1.0, 3.0])) == pytest.approx(1.0)

    def test_stdev_nan_safe(self):
        assert bootstrap_stdev(np.array([np.nan, 2.0, 4.0])) == pytest.approx(1.0)

    def test_ci(self):
        lo, hi = bootstrap_ci(np.arange(101.0), level=0.90)
        assert lo == pytest.approx(5.0)
        assert hi == pytest.approx(95.0)

    def test_bootstrap_stderr_matches_theory(self):
        """Poissonized bootstrap of a mean approximates σ/√n."""
        rng = np.random.default_rng(0)
        data = rng.normal(10.0, 4.0, 1000)
        trials = trial_multiplicities(1000, 200, seed=1, table="t")
        means = (data[:, None] * trials).sum(0) / trials.sum(0)
        assert bootstrap_stdev(means) == pytest.approx(4.0 / np.sqrt(1000), rel=0.3)
