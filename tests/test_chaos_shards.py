"""Shard chaos suite: kill workers mid-run, demand the fault-free answer.

The ``shard`` fault kind hard-kills a worker process before a chosen
batch; the scheduler respawns it and replays its sub-stream. Because a
shard's execution is fully deterministic, the rebuilt state is the state
the dead worker would have had — so unlike the in-process chaos suite
(which settles for statistical closeness after recovery), this one
asserts the chaotic run's rows are **bit-identical** to the fault-free
sharded run, batch by batch.

All shardable workload queries run under ``IOLAP_SHARD_FULL=1``; the
default slice keeps CI latency down. Non-shardable queries are exercised
through the fallback path (shard faults are inert there — no workers
exist to kill).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import OnlineConfig
from repro.core.compiler import StreamPipelineUnit
from repro.core.values import UncertainValue
from repro.engine.shards import ShardedQueryEngine
from repro.errors import ReproError
from repro.workloads import CONVIVA_QUERIES, TPCH_QUERIES

FULL = os.environ.get("IOLAP_SHARD_FULL") == "1"
TRIALS = int(os.environ.get("IOLAP_SHARD_TRIALS", "16"))
BATCHES = 8

SHARDABLE = [
    ("tpch", "Q1"), ("tpch", "Q3"), ("tpch", "Q18"),
    ("conviva", "C2"), ("conviva", "C3"), ("conviva", "C5"),
    ("conviva", "C9"), ("conviva", "C11"), ("conviva", "C12"),
]
DEFAULT_SLICE = [("tpch", "Q1"), ("conviva", "C2"), ("conviva", "C9")]

#: Kill shard 1 before batch 3 and shard 0 before batch 6: one early
#: shallow replay, one deeper one.
KILL_PLAN = "shard@3:1,shard@6:0"


@pytest.fixture(scope="module")
def catalogs(tpch_small, conviva_small):
    return {"tpch": tpch_small.catalog(), "conviva": conviva_small.catalog()}


def spec_of(source, name):
    return (TPCH_QUERIES if source == "tpch" else CONVIVA_QUERIES)[name]


def run_sharded(spec, catalog, faults=None, shards=2):
    engine = ShardedQueryEngine(
        catalog,
        spec.streamed_table,
        OnlineConfig(
            num_trials=TRIALS, seed=11, shards=shards, faults=faults,
        ),
    )
    return engine, list(engine.run(spec.plan, BATCHES))


def assert_identical(clean, chaotic, context):
    assert len(clean) == len(chaotic)
    for c, k in zip(clean, chaotic):
        assert len(c.rows) == len(k.rows), f"{context} batch={c.batch_no}"
        for rc, rk in zip(c.rows, k.rows):
            for col in rc:
                vc, vk = rc[col], rk[col]
                if isinstance(vc, UncertainValue):
                    assert vc.value == vk.value or (
                        vc.value != vc.value and vk.value != vk.value
                    ), f"{context} batch={c.batch_no} col={col}"
                    assert np.array_equal(
                        np.asarray(vc.trials),
                        np.asarray(vk.trials),
                        equal_nan=True,
                    ), f"{context} batch={c.batch_no} col={col} trials"
                else:
                    assert vc == vk or (vc != vc and vk != vk), (
                        f"{context} batch={c.batch_no} col={col}"
                    )


class TestShardKill:
    @pytest.mark.parametrize("source,name", SHARDABLE if FULL else DEFAULT_SLICE)
    def test_kill_respawn_bit_identical(self, source, name, catalogs):
        spec = spec_of(source, name)
        catalog = catalogs[source]
        _, clean = run_sharded(spec, catalog)
        engine, chaotic = run_sharded(spec, catalog, faults=KILL_PLAN)
        assert engine.shard_respawns == 2, (
            f"{name}: both injected kills must respawn "
            f"(got {engine.shard_respawns})"
        )
        assert_identical(clean, chaotic, name)

    def test_kill_at_first_batch(self, catalogs):
        """A kill before batch 1 respawns with nothing to replay."""
        spec = spec_of("conviva", "C2")
        _, clean = run_sharded(spec, catalogs["conviva"])
        engine, chaotic = run_sharded(
            spec, catalogs["conviva"], faults="shard@1:0"
        )
        assert engine.shard_respawns == 1
        assert_identical(clean, chaotic, "C2 kill@1")

    def test_default_target_is_shard_zero(self, catalogs):
        spec = spec_of("conviva", "C2")
        _, clean = run_sharded(spec, catalogs["conviva"])
        engine, chaotic = run_sharded(spec, catalogs["conviva"], faults="shard@4")
        assert engine.shard_respawns == 1
        assert_identical(clean, chaotic, "C2 default target")

    def test_kill_every_shard(self, catalogs):
        """Losing all workers (at different batches) still converges."""
        spec = spec_of("tpch", "Q1")
        _, clean = run_sharded(spec, catalogs["tpch"], shards=4)
        engine, chaotic = run_sharded(
            spec,
            catalogs["tpch"],
            faults="shard@2:0,shard@3:1,shard@5:2,shard@7:3",
            shards=4,
        )
        assert engine.shard_respawns == 4
        assert_identical(clean, chaotic, "Q1 kill-all")

    def test_shard_fault_inert_on_fallback(self, catalogs):
        """Non-shardable plans run single-process; shard faults never fire."""
        spec = spec_of("tpch", "Q6")
        engine, partials = run_sharded(
            spec, catalogs["tpch"], faults="shard@3:0"
        )
        assert not engine.shard_plan.shardable
        assert engine.shard_respawns == 0
        assert len(partials) == BATCHES

    def test_out_of_range_shard_target_rejected_at_run_start(self, catalogs):
        spec = spec_of("conviva", "C2")
        with pytest.raises(ReproError, match=r"fault shard@6:7 targets shard 7"):
            run_sharded(spec, catalogs["conviva"], faults="shard@6:7")

    def test_in_worker_recovery_composes(self, catalogs):
        """Sentinel faults recover *inside* the worker (single-shard
        recovery); composing them with a worker kill still lands on the
        fault-free sharded answer within bootstrap tolerance."""
        spec = spec_of("conviva", "C5")
        _, clean = run_sharded(spec, catalogs["conviva"])
        engine, chaotic = run_sharded(
            spec, catalogs["conviva"], faults="batch@4,shard@6:1"
        )
        assert engine.shard_respawns == 1
        # batch faults force a conservative replay inside each worker;
        # replay is deterministic, so rows still match bit for bit.
        assert_identical(clean, chaotic, "C5 composed")
        recovered = [p.batch_no for p in chaotic if p.metrics.recovered]
        assert 4 in recovered

    def test_worker_failure_surfaces_with_traceback(self, catalogs, monkeypatch):
        """A worker-fatal error (not a kill) aborts the run with the
        worker's formatted traceback attached."""
        spec = spec_of("conviva", "C2")
        run = StreamPipelineUnit.run

        def fatal_at_batch_2(self, ctx):
            if ctx.batch_no == 2:
                raise RuntimeError("planted unit failure")
            run(self, ctx)

        # Workers are forked after the patch, so they run it.
        monkeypatch.setattr(StreamPipelineUnit, "run", fatal_at_batch_2)
        engine = ShardedQueryEngine(
            catalogs["conviva"],
            spec.streamed_table,
            OnlineConfig(num_trials=TRIALS, seed=11, shards=2),
        )
        with pytest.raises(ReproError, match="shard .* failed at batch 2") as exc:
            list(engine.run(spec.plan, BATCHES))
        assert "planted unit failure" in str(exc.value)
        assert "Traceback" in str(exc.value)
