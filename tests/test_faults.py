"""Fault injection and the recovery replay (Section 5.1).

The one recovery contract: an integrity failure at batch ``k`` restores
the pristine baseline, replays batches ``1..k-1`` conservatively, re-runs
batch ``k``, and still delivers the fault-free answer.
"""

from __future__ import annotations

import pytest

from repro.core import OnlineConfig, OnlineQueryEngine
from repro.errors import RangeIntegrityError, ReproError
from repro.faults import FaultPlan, FaultSpec, as_plan, parse_fault, parse_faults
from repro.faults.injector import FaultInjector
from repro.obs import Observability
from tests.test_online_engine import make_catalog, sbi_plan

#: A plan with an uncertain SELECT (x > streaming AVG), so sentinel
#: probes exist for the ``sentinel@N`` fault kind to fire at.
SBI = sbi_plan()


def run_engine(catalog, faults=None, num_batches=20, with_obs=False):
    sink = None
    if with_obs:
        obs, sink = Observability.in_memory()
    else:
        obs = None
    eng = OnlineQueryEngine(
        catalog,
        "t",
        OnlineConfig(num_trials=16, seed=3, faults=faults),
        obs=obs,
    )
    final = eng.run_to_completion(SBI, num_batches)
    return eng, final, sink


def replay_spans(sink):
    return [e for e in sink.events if e.get("name") == "recovery-replay"]


class TestSpecParsing:
    def test_minimal(self):
        assert parse_fault("sentinel@16") == FaultSpec("sentinel", 16)

    def test_target_and_times(self):
        assert parse_fault("sentinel@5:select*2") == FaultSpec(
            "sentinel", 5, "select", 2
        )

    def test_target_may_contain_colon(self):
        assert parse_fault("sentinel@16:select:3") == FaultSpec(
            "sentinel", 16, "select:3"
        )

    def test_roundtrip_str(self):
        for text in ("sentinel@16", "sentinel@5:select*2", "batch@12"):
            assert str(parse_fault(text)) == text

    def test_plan_parsing_and_str(self):
        plan = parse_faults("sentinel@16, sentinel@5:select*2 ,batch@12")
        assert len(plan) == 3
        assert str(plan) == "sentinel@16,sentinel@5:select*2,batch@12"

    def test_empty_plan(self):
        assert len(parse_faults("")) == 0

    @pytest.mark.parametrize("bad", [
        "sentinel",            # no @batch
        "gremlin@4",           # unknown kind
        "sentinel@x",          # non-integer batch
        "sentinel@0",          # batch < 1
        "sentinel@4*0",        # times < 1
        "sentinel@4*x",        # non-integer times
        "batch@4:label",       # batch faults take no target
        "checkpoint@4:label",  # unknown kind
        "shard@6:abc",         # the shard kind is gone: any spec
        "shard@6:-1",          # naming it is refused
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ReproError):
            parse_fault(bad)

    def test_as_plan_coercions(self):
        plan = parse_faults("sentinel@2")
        assert as_plan(plan) is plan
        assert as_plan("sentinel@2") == plan
        with pytest.raises(ReproError):
            as_plan(42)


class _FakeMonitor:
    def __init__(self):
        self.replaying = False
        self.failures = 0

    def record_failure(self):
        self.failures += 1


class _FakeCtx:
    def __init__(self, batch_no):
        self.batch_no = batch_no
        self.monitor = _FakeMonitor()


class TestInjector:
    def test_sentinel_fault_raises_and_disarms(self):
        inj = FaultInjector(parse_faults("sentinel@5"))
        ctx = _FakeCtx(5)
        with pytest.raises(RangeIntegrityError, match="sentinel fault at batch 5"):
            inj.fire("sentinel", ctx)
        assert ctx.monitor.failures == 1
        inj.fire("sentinel", ctx)  # disarmed: no raise
        assert inj.exhausted()

    def test_wrong_batch_does_not_fire(self):
        inj = FaultInjector(parse_faults("sentinel@5"))
        inj.fire("sentinel", _FakeCtx(4))
        assert not inj.exhausted()

    def test_target_substring_filter(self):
        inj = FaultInjector(parse_faults("sentinel@3:select"))
        inj.fire("sentinel", _FakeCtx(3), label="join:t")  # no match
        with pytest.raises(RangeIntegrityError):
            inj.fire("sentinel", _FakeCtx(3), label="select:7")

    def test_times_honored(self):
        inj = FaultInjector(parse_faults("sentinel@3*2"))
        for _ in range(2):
            with pytest.raises(RangeIntegrityError):
                inj.fire("sentinel", _FakeCtx(3), label="x")
        inj.fire("sentinel", _FakeCtx(3), label="x")  # third probe: disarmed
        assert len(inj.fired) == 2

    def test_replay_guard_suppresses_integrity_faults(self):
        inj = FaultInjector(parse_faults("sentinel@5,batch@5"))
        ctx = _FakeCtx(5)
        ctx.monitor.replaying = True
        inj.fire("sentinel", ctx)
        inj.fire("batch", ctx)
        assert not inj.exhausted()

    def test_unknown_point_rejected(self):
        inj = FaultInjector(FaultPlan())
        with pytest.raises(ReproError):
            inj.fire("gremlin", _FakeCtx(1))


class TestPartialReplay:
    """Every recovery restores the pristine baseline, replays batches
    ``1..k-1`` conservatively and re-runs batch ``k``."""

    @pytest.fixture(scope="class")
    def catalog(self):
        return make_catalog(n=2000)

    @pytest.fixture(scope="class")
    def fault_free(self, catalog):
        return run_engine(catalog, with_obs=True)

    def test_acceptance_deep_failure_replays_suffix_only(
        self, catalog, fault_free
    ):
        """A failure at batch 16 of 20 replays the baseline suffix 1..15
        once, re-runs batch 16 live, and leaves batches 17..20 to run once,
        unrecovered."""
        _, final0, _ = fault_free
        eng, final, sink = run_engine(
            catalog, faults="sentinel@16", with_obs=True
        )
        assert eng.metrics.num_recoveries == 1
        (span,) = replay_spans(sink)
        assert span["batch"] == 16
        assert span["args"]["replayed_batches"] == 15
        recovered = [bm.batch_no for bm in eng.metrics.batches if bm.recovered]
        assert recovered == [16]
        assert final.to_relation().bag_equal(final0.to_relation(), 9)

    def test_without_checkpoints_full_replay(self, catalog, fault_free):
        _, final0, _ = fault_free
        eng, final, sink = run_engine(
            catalog, faults="sentinel@16", with_obs=True
        )
        assert eng.metrics.num_recoveries == 1
        (span,) = replay_spans(sink)
        assert span["args"]["replayed_batches"] == 15
        assert final.to_relation().bag_equal(final0.to_relation(), 9)

    def test_batch_fault_equivalent(self, catalog, fault_free):
        _, final0, _ = fault_free
        eng, final, sink = run_engine(
            catalog, faults="batch@16", with_obs=True
        )
        assert eng.metrics.num_recoveries == 1
        (span,) = replay_spans(sink)
        assert span["args"]["replayed_batches"] == 15
        assert final.to_relation().bag_equal(final0.to_relation(), 9)

    def test_back_to_back_failures_each_replay_from_the_baseline(
        self, catalog, fault_free
    ):
        _, final0, _ = fault_free
        eng, final, sink = run_engine(
            catalog, faults="sentinel@16,sentinel@17", with_obs=True
        )
        assert eng.metrics.num_recoveries == 2
        spans = replay_spans(sink)
        assert [s["args"]["replayed_batches"] for s in spans] == [15, 16]
        assert final.to_relation().bag_equal(final0.to_relation(), 9)


class TestRecoveredMetricsNotDoubleCounted:
    """Satellite: a recovered batch used to keep the failed attempt's
    counters and add the re-run's on top, inflating every run total."""

    def test_totals_match_fault_free(self):
        catalog = make_catalog(n=2000)
        eng0, _, _ = run_engine(catalog)
        eng1, _, _ = run_engine(catalog, faults="sentinel@16")
        assert eng1.metrics.num_recoveries == 1
        total0 = sum(b.new_tuples for b in eng0.metrics.batches)
        total1 = sum(b.new_tuples for b in eng1.metrics.batches)
        # Each row is ingested exactly once either way; the seed bug kept
        # the failed attempt's count and added the re-run's on top.
        assert total0 == total1 == 2000

    def test_recovered_batch_flagged_and_timed(self):
        catalog = make_catalog(n=2000)
        eng, _, _ = run_engine(catalog, faults="sentinel@16")
        bm = eng.metrics.batches[15]
        assert bm.recovered
        assert bm.recovery_seconds > 0


class TestCliFaults:
    def test_bad_spec_rejected(self):
        from repro.cli import main

        for spec in ("gremlin@4", "unit@5", "checkpoint@12"):
            with pytest.raises(ReproError, match="unknown kind"):
                parse_fault(spec)
            assert main(["--query", "C1", "--scale", "0.02",
                         "--faults", spec]) == 2

    def test_run_with_faults(self):
        from repro.cli import main

        rc = main([
            "--query", "C1", "--scale", "0.02", "--batches", "8",
            "--trials", "8", "--faults", "sentinel@6", "-q",
        ])
        assert rc == 0
