"""Fault injection and checkpointed partial replay (Section 5.1).

The headline acceptance scenario: a forced integrity failure at batch 16
of a 20-batch run with ``checkpoint_interval=4`` must re-execute at most
4 batches (versus 15 from the pristine baseline) and still deliver the
fault-free answer.
"""

from __future__ import annotations

import pytest

from repro.core import OnlineConfig, OnlineQueryEngine
from repro.errors import RangeIntegrityError, ReproError, TransientUnitError
from repro.faults import FaultPlan, FaultSpec, as_plan, parse_fault, parse_faults
from repro.faults.injector import FaultInjector
from repro.obs import Observability
from tests.test_online_engine import make_catalog, sbi_plan

#: A plan with an uncertain SELECT (x > streaming AVG), so sentinel
#: probes exist for the ``sentinel@N`` fault kind to fire at.
SBI = sbi_plan()


def run_engine(catalog, faults=None, interval=4, num_batches=20,
               with_obs=False, **config):
    sink = None
    if with_obs:
        obs, sink = Observability.in_memory()
    else:
        obs = None
    eng = OnlineQueryEngine(
        catalog,
        "t",
        OnlineConfig(num_trials=16, seed=3, faults=faults,
                     checkpoint_interval=interval, **config),
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
        assert parse_fault("unit@5:aggregate*2") == FaultSpec(
            "unit", 5, "aggregate", 2
        )

    def test_target_may_contain_colon(self):
        assert parse_fault("sentinel@16:select:3") == FaultSpec(
            "sentinel", 16, "select:3"
        )

    def test_roundtrip_str(self):
        for text in ("sentinel@16", "unit@5:aggregate*2", "checkpoint@12"):
            assert str(parse_fault(text)) == text

    def test_plan_parsing_and_str(self):
        plan = parse_faults("sentinel@16, unit@5:aggregate*2 ,checkpoint@12")
        assert len(plan) == 3
        assert str(plan) == "sentinel@16,unit@5:aggregate*2,checkpoint@12"

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
        "checkpoint@4:label",  # checkpoint faults take no target
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
        with pytest.raises(RangeIntegrityError) as exc:
            inj.fire("sentinel", ctx)
        assert exc.value.recover_from_batch == 4
        assert ctx.monitor.failures == 1
        inj.fire("sentinel", ctx)  # disarmed: no raise
        assert inj.exhausted()

    def test_wrong_batch_does_not_fire(self):
        inj = FaultInjector(parse_faults("sentinel@5"))
        inj.fire("sentinel", _FakeCtx(4))
        assert not inj.exhausted()

    def test_target_substring_filter(self):
        inj = FaultInjector(parse_faults("unit@3:aggregate"))
        inj.fire("unit", _FakeCtx(3), label="scan:t")  # no match
        with pytest.raises(TransientUnitError):
            inj.fire("unit", _FakeCtx(3), label="aggregate:7")

    def test_times_honored(self):
        inj = FaultInjector(parse_faults("unit@3*2"))
        for _ in range(2):
            with pytest.raises(TransientUnitError):
                inj.fire("unit", _FakeCtx(3), label="x")
        inj.fire("unit", _FakeCtx(3), label="x")  # third probe: disarmed
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
    """The tentpole: recovery restores the newest usable checkpoint and
    replays only the suffix."""

    @pytest.fixture(scope="class")
    def catalog(self):
        return make_catalog(n=2000)

    @pytest.fixture(scope="class")
    def fault_free(self, catalog):
        return run_engine(catalog, with_obs=True)

    def test_acceptance_deep_failure_replays_suffix_only(
        self, catalog, fault_free
    ):
        _, final0, _ = fault_free
        eng, final, sink = run_engine(
            catalog, faults="sentinel@16", with_obs=True
        )
        assert eng.metrics.num_recoveries == 1
        (span,) = replay_spans(sink)
        # Checkpoints every 4 batches: recovery from the batch-16 failure
        # restores the batch-12 snapshot and replays <= 4 batches, not 15.
        assert span["args"]["recover_from"] == 15
        assert span["args"]["start_from"] == 12
        assert span["args"]["replayed_batches"] <= 4
        assert final.to_relation().bag_equal(final0.to_relation(), 9)

    def test_without_checkpoints_full_replay(self, catalog, fault_free):
        _, final0, _ = fault_free
        _, final, sink = run_engine(
            catalog, faults="sentinel@16", interval=0, with_obs=True
        )
        (span,) = replay_spans(sink)
        assert span["args"]["start_from"] == 0
        assert span["args"]["replayed_batches"] == 15
        assert final.to_relation().bag_equal(final0.to_relation(), 9)

    def test_batch_fault_equivalent(self, catalog, fault_free):
        _, final0, _ = fault_free
        eng, final, sink = run_engine(
            catalog, faults="batch@16", with_obs=True
        )
        assert eng.metrics.num_recoveries == 1
        (span,) = replay_spans(sink)
        assert span["args"]["start_from"] == 12
        assert final.to_relation().bag_equal(final0.to_relation(), 9)

    def test_corrupt_checkpoint_falls_back_to_older(self, catalog, fault_free):
        _, final0, _ = fault_free
        _, final, sink = run_engine(
            catalog, faults="checkpoint@12,sentinel@16", with_obs=True
        )
        (span,) = replay_spans(sink)
        # Batch-12 snapshot was poisoned: recovery must skip it and use
        # the batch-8 one, never half-apply the corrupt snapshot.
        assert span["args"]["start_from"] == 8
        assert span["args"]["replayed_batches"] == 7
        warnings = [e for e in sink.events
                    if e.get("name") == "checkpoint-corrupted"]
        assert warnings
        assert final.to_relation().bag_equal(final0.to_relation(), 9)

    def test_nonzero_recover_from_regression(self, catalog, fault_free):
        """Recovery depth must come from the failure, not a hardcoded 0
        (the seed bug reported recover_from_batch=0 for every violation)."""
        _, _, sink = run_engine(catalog, faults="sentinel@16", with_obs=True)
        (span,) = replay_spans(sink)
        assert span["args"]["recover_from"] > 0

    def test_recheckpoint_after_recovery_serves_next_failure(
        self, catalog, fault_free
    ):
        """Once the recovered batch succeeds a fresh checkpoint is taken
        there, so a second failure right after replays (almost) nothing."""
        _, final0, _ = fault_free
        eng, final, sink = run_engine(
            catalog, faults="sentinel@16,sentinel@17", with_obs=True
        )
        assert eng.metrics.num_recoveries == 2
        spans = replay_spans(sink)
        assert [s["args"]["start_from"] for s in spans] == [12, 16]
        assert final.to_relation().bag_equal(final0.to_relation(), 9)

    def test_checkpoints_dropped_after_restore(
        self, catalog, fault_free, monkeypatch
    ):
        """A failure whose recover_from predates retained checkpoints must
        drop them: they embed the invalidated decisions and may never be
        restored by a later recovery."""
        from repro.core.sentinels import SentinelStore

        _, final0, _ = fault_free
        original = SentinelStore.check
        fired = []

        def forced(self, ctx):
            if ctx.batch_no == 18 and not ctx.monitor.replaying and not fired:
                fired.append(ctx.batch_no)
                ctx.monitor.record_failure()
                raise RangeIntegrityError("forced", recover_from_batch=10)
            return original(self, ctx)

        monkeypatch.setattr(SentinelStore, "check", forced)
        eng, final, sink = run_engine(catalog, with_obs=True)
        (span,) = replay_spans(sink)
        assert span["args"]["start_from"] == 8
        assert span["args"]["replayed_batches"] == 9  # batches 9..17
        # 12 and 16 were newer than the restore point and dropped; the
        # schedule then resumes (batch 20).
        assert eng._checkpoints.batches() == [4, 8, 20]
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


class TestUnitRetry:
    def test_transient_unit_fault_absorbed(self):
        catalog = make_catalog(n=1200)
        eng0, final0, _ = run_engine(catalog, num_batches=8)
        eng1, final1, sink = run_engine(
            catalog, faults="unit@5:aggregate*2", num_batches=8,
            unit_retry_attempts=2, with_obs=True,
        )
        assert eng1.metrics.num_recoveries == 0
        retries = [e for e in sink.events if e.get("name") == "unit-retry"]
        assert len(retries) == 2
        assert final1.to_relation().bag_equal(final0.to_relation(), 9)

    def test_exhausted_retries_propagate(self):
        catalog = make_catalog(n=1200)
        with pytest.raises(TransientUnitError):
            run_engine(
                catalog, faults="unit@5*3", num_batches=8,
                unit_retry_attempts=2,
            )

    def test_retried_attempts_get_their_own_spans(self):
        # One "unit" span per *attempt*, tagged with its ordinal: two
        # injected transient faults mean attempts 1 and 2 fail (span
        # carries an ``error`` arg) and attempt 3 lands the unit.
        catalog = make_catalog(n=1200)
        _, _, sink = run_engine(
            catalog, faults="unit@5:aggregate*2", num_batches=8,
            unit_retry_attempts=2, with_obs=True,
        )
        unit_spans = [
            e for e in sink.events
            if e["kind"] == "span" and e["name"] == "unit"
        ]
        assert unit_spans
        assert all("attempt" in e["args"] for e in unit_spans)
        retried = [e for e in unit_spans if e["args"]["attempt"] > 1]
        victims = {e["args"]["unit"] for e in retried}
        assert len(victims) == 1, victims
        attempts = sorted(
            e["args"]["attempt"] for e in unit_spans
            if e["args"]["unit"] in victims and e["batch"] == 5
        )
        assert attempts == [1, 2, 3]
        failed = [e for e in unit_spans if "error" in e["args"]]
        assert len(failed) == 2
        assert all(
            "TransientUnitError" in e["args"]["error"] for e in failed
        )

    def test_chrome_export_renders_attempts_as_distinct_slices(self):
        from repro.obs import to_chrome

        catalog = make_catalog(n=1200)
        _, _, sink = run_engine(
            catalog, faults="unit@5:aggregate*2", num_batches=8,
            unit_retry_attempts=2, with_obs=True,
        )
        names = {
            e["name"]
            for e in to_chrome(sink.events)["traceEvents"]
            if e.get("ph") == "X"
        }
        assert "unit" in names  # first attempts keep the plain name
        assert "unit (attempt 2)" in names
        assert "unit (attempt 3)" in names


class TestCliFaults:
    def test_bad_spec_rejected(self):
        from repro.cli import main

        assert main(["--query", "C1", "--scale", "0.02",
                     "--faults", "gremlin@4"]) == 2

    def test_run_with_faults(self):
        from repro.cli import main

        rc = main([
            "--query", "C1", "--scale", "0.02", "--batches", "8",
            "--trials", "8", "--faults", "sentinel@6",
            "--checkpoint-interval", "2", "-q",
        ])
        assert rc == 0
