"""Continuous profiler + predictive cost model (``repro.obs.profile`` /
``repro.obs.costmodel``).

The two load-bearing claims:

* **bit-identical when on** — ``OnlineConfig(profile=True)`` changes no
  result: every workload query yields the same points and bootstrap
  trials with profiling on and off;
* **the model predicts** — after the warm-up quota the cost model issues
  per-batch predictions, scores them against actuals, excludes recovery
  replay from what it learns, and inverts the measured ``c/√n`` CI
  trajectory into a batches-to-target estimate.

Scale knobs (for the CI smoke jobs): ``IOLAP_PROFILE_BATCHES`` (default
6) and ``IOLAP_PROFILE_TRIALS`` (default 8).
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import pytest

from repro.core import OnlineConfig, OnlineQueryEngine
from repro.metrics.stats import BatchMetrics
from repro.obs import NULL_OBS, MetricsObservability
from repro.obs.costmodel import CostModel
from repro.obs.profile import (
    MAX_SAMPLES,
    PROFILES_SCHEMA,
    ContinuousProfiler,
    Ewma,
    ProfileStore,
    QueryProfile,
    normalize_label,
    plan_signature,
)
from repro.workloads import CONVIVA_QUERIES, TPCH_QUERIES
from tests.test_executor import _assert_rows_identical

BATCHES = int(os.environ.get("IOLAP_PROFILE_BATCHES", "6"))
TRIALS = int(os.environ.get("IOLAP_PROFILE_TRIALS", "8"))

ALL_QUERIES = [("tpch", name) for name in TPCH_QUERIES] + [
    ("conviva", name) for name in CONVIVA_QUERIES
]


@pytest.fixture(scope="module")
def catalogs(tpch_small, conviva_small):
    return {"tpch": tpch_small.catalog(), "conviva": conviva_small.catalog()}


def spec_of(source, name):
    return (TPCH_QUERIES if source == "tpch" else CONVIVA_QUERIES)[name]


def run_query(spec, catalog, profile=False, path=None,
              batches=BATCHES, **config):
    engine = OnlineQueryEngine(
        catalog,
        spec.streamed_table,
        OnlineConfig(num_trials=TRIALS, seed=7, profile=profile,
                     profile_path=path, **config),
    )
    return engine, list(engine.run(spec.plan, batches))


class TestEwma:
    def test_first_sample_is_the_value(self):
        ew = Ewma(alpha=0.5)
        assert ew.update(10.0) == 10.0
        assert ew.count == 1

    def test_smoothing(self):
        ew = Ewma(alpha=0.5)
        ew.update(10.0)
        assert ew.update(20.0) == pytest.approx(15.0)

    def test_default_when_empty(self):
        assert Ewma().get(3.5) == 3.5

    def test_round_trip(self):
        ew = Ewma()
        ew.update(1.0)
        ew.update(2.0)
        back = Ewma.from_dict(ew.to_dict())
        assert back.value == ew.value
        assert back.count == 2


class TestPlanSignature:
    def test_stable_for_same_shape(self):
        spec = TPCH_QUERIES["Q17"]
        assert plan_signature(spec.plan) == plan_signature(spec.plan)
        assert len(plan_signature(spec.plan)) == 16

    def test_distinguishes_plans(self):
        sigs = {plan_signature(TPCH_QUERIES[n].plan) for n in TPCH_QUERIES}
        assert len(sigs) == len(TPCH_QUERIES)

    def test_describe_carries_no_process_ids(self):
        # The signature key must survive process restarts: object ids
        # (0x... or bare id() digits) may not leak into describe().
        text = TPCH_QUERIES["Q17"].plan.describe()
        assert "0x" not in text


class TestNormalizeLabel:
    def test_strips_id_suffix(self):
        assert normalize_label("filter:140234567890") == "filter"

    def test_keeps_symbolic_suffix(self):
        assert normalize_label("scan:lineorder") == "scan:lineorder"
        assert normalize_label("aggregate") == "aggregate"


class TestProfileStore:
    def test_round_trip(self, tmp_path):
        store = ProfileStore()
        prof = store.get_or_create("abc123", "aggregate <- scan")
        prof.runs = 2
        prof.batch_seconds.update(0.5)
        prof.operator("agg:1").self_seconds.update(0.25)
        prof.kernel("probe.calls").update(100.0)
        prof.add_sample(500, 20, 4096, 0.5)
        path = str(tmp_path / "profiles.json")
        store.save(path)
        back = ProfileStore.load(path)
        prof2 = back.queries["abc123"]
        assert prof2.runs == 2
        assert prof2.batch_seconds.get() == pytest.approx(0.5)
        assert prof2.operator("agg:1").self_seconds.get() == pytest.approx(0.25)
        assert prof2.kernels["probe.calls"].get() == pytest.approx(100.0)
        assert prof2.samples == [[500.0, 20.0, 4096.0, 0.5]]
        assert json.load(open(path))["schema"] == PROFILES_SCHEMA

    def test_missing_file_yields_empty(self, tmp_path):
        assert ProfileStore.load(str(tmp_path / "nope.json")).queries == {}

    def test_garbage_yields_empty(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert ProfileStore.load(str(path)).queries == {}
        path.write_text(json.dumps({"schema": "other-v9", "queries": {}}))
        assert ProfileStore.load(str(path)).queries == {}

    def test_sample_cap(self):
        prof = QueryProfile("sig")
        for i in range(MAX_SAMPLES + 50):
            prof.add_sample(i, 0, 0, 0.001)
        assert len(prof.samples) == MAX_SAMPLES
        assert prof.samples[-1][0] == MAX_SAMPLES + 49


def _warmed_profile(n=40, base=0.001, per_row=2e-6):
    """A profile whose batch cost is exactly linear in rows."""
    prof = QueryProfile("sig")
    for i in range(n):
        rows = 500 + (i % 10) * 100
        seconds = base + per_row * rows
        prof.batch_rows.update(rows)
        prof.batch_seconds.update(seconds)
        prof.add_sample(rows, 0.0, 4096.0, seconds)
    return prof


class TestCostModel:
    def test_silent_before_warmup(self):
        prof = QueryProfile("sig")
        for _ in range(3):
            prof.batch_seconds.update(0.01)
            prof.add_sample(100, 0, 0, 0.01)
        model = CostModel(prof, warmup_batches=5)
        assert model.predict_batch_seconds(100) == 0.0

    def test_learns_row_scaling(self):
        model = CostModel(_warmed_profile())
        # In-range and mildly extrapolated row counts both track the
        # planted linear law (clamped around the EWMA, so within ~2x).
        for rows in (600, 1000, 1400):
            expected = 0.001 + 2e-6 * rows
            got = model.predict_batch_seconds(rows, nd_rows=0.0,
                                              state_bytes=4096.0)
            assert got == pytest.approx(expected, rel=0.15), rows

    def test_prediction_clamped_to_ewma_band(self):
        prof = _warmed_profile()
        model = CostModel(prof)
        ewma = prof.batch_seconds.get()
        wild = model.predict_batch_seconds(10_000_000)
        assert wild <= ewma * 2.0 + 1e-12

    def test_ewma_fallback_when_fit_unavailable(self):
        prof = QueryProfile("sig")
        for _ in range(6):  # identical samples: collinear, fit may be flat
            prof.batch_seconds.update(0.02)
            prof.add_sample(100, 0, 0, 0.02)
        model = CostModel(prof)
        assert model.predict_batch_seconds(100) == pytest.approx(0.02, rel=0.5)

    def test_batches_to_ci_inversion(self):
        prof = QueryProfile("sig")
        prof.ci_c.update(10.0)  # rsd = 10/sqrt(n)
        model = CostModel(prof)
        # at n=10_000 rsd=0.1; target 0.05 needs n=40_000 -> 30 batches of 1k
        assert model.predict_batches_to_ci(0.05, 1000, 10_000) == 30
        assert model.predict_batches_to_ci(0.2, 1000, 10_000) == 0
        assert model.predict_batches_to_ci(0.05, 0, 10_000) is None

    def test_no_ci_constant_means_no_estimate(self):
        model = CostModel(QueryProfile("sig"))
        assert model.predict_batches_to_ci(0.05, 1000, 10_000) is None

    def test_calibration_accumulates(self):
        model = CostModel(QueryProfile("sig"))
        model.score(1.0, 2.0)
        model.score(3.0, 2.0)
        cal = model.calibration()
        assert cal["predictions"] == 2
        assert cal["mae_seconds"] == pytest.approx(1.0)
        assert cal["mape"] == pytest.approx(0.5)


def _stub_partial(rsd=float("nan")):
    return SimpleNamespace(max_relative_stdev=lambda: rsd)


class TestObserveBatch:
    def test_recovery_time_excluded(self):
        profiler = ContinuousProfiler(QueryProfile("sig"))
        ctx = SimpleNamespace(obs=NULL_OBS, seen_rows=100)
        bm = BatchMetrics(1)
        bm.wall_seconds = 1.0
        bm.recovery_seconds = 0.4
        bm.new_tuples = 10
        profiler.observe_batch(ctx, bm, _stub_partial())
        assert profiler.profile.batch_seconds.get() == pytest.approx(0.6)
        assert profiler.profile.samples[-1][3] == pytest.approx(0.6)

    def test_registry_counters_profiled_as_deltas(self):
        profiler = ContinuousProfiler(QueryProfile("sig"))
        obs = MetricsObservability()
        ctx = SimpleNamespace(obs=obs, seen_rows=100)
        obs.metrics.gauge("nd.rows", op="sel:1").set(30)
        obs.metrics.counter("op.rows_in", op="sel:1").inc(100)
        bm = BatchMetrics(1)
        bm.wall_seconds = 0.01
        profiler.observe_batch(ctx, bm, _stub_partial())
        obs.metrics.gauge("nd.rows", op="sel:1").set(50)
        obs.metrics.counter("op.rows_in", op="sel:1").inc(100)  # cum. 200
        bm2 = BatchMetrics(2)
        bm2.wall_seconds = 0.01
        profiler.observe_batch(ctx, bm2, _stub_partial())
        op = profiler.profile.operator("sel:1")
        # nd gauge is a level (EWMA over 30, 50); rows_in is cumulative,
        # so both updates must be the per-batch delta of 100.
        assert op.nd_rows.get() == pytest.approx(0.3 * 50 + 0.7 * 30)
        assert op.nd_delta.count == 2
        assert op.rows_in.get() == pytest.approx(100.0)
        assert profiler.last_nd_rows == 50.0

    def test_ci_constant_measured_from_rsd(self):
        profiler = ContinuousProfiler(QueryProfile("sig"))
        ctx = SimpleNamespace(obs=NULL_OBS, seen_rows=10_000)
        bm = BatchMetrics(1)
        bm.wall_seconds = 0.01
        profiler.observe_batch(ctx, bm, _stub_partial(rsd=0.1))
        assert profiler.profile.ci_c.get() == pytest.approx(10.0)


class TestEngineProfiling:
    def _spec_catalog(self, catalogs):
        return TPCH_QUERIES["Q1"], catalogs["tpch"]

    def test_zero_cost_when_off(self, catalogs):
        spec, catalog = self._spec_catalog(catalogs)
        engine, _ = run_query(spec, catalog, profile=False)
        assert engine.profiler is None
        assert engine.metrics.profile_seconds == 0.0
        assert engine.metrics.cost_calibration == {}
        assert all(b.predicted_seconds == 0.0 for b in engine.metrics.batches)

    def test_profiles_and_calibration_recorded(self, catalogs):
        spec, catalog = self._spec_catalog(catalogs)
        engine, _ = run_query(spec, catalog, profile=True,
                              batches=8)
        assert engine.profiler is not None
        assert engine.metrics.profile_seconds > 0.0
        cal = engine.metrics.cost_calibration
        assert cal["predictions"] == 8 - cal["warmup_batches"]
        # Warm-up gate: no prediction for the first 5 batches, one each
        # after.
        predicted = [b.predicted_seconds for b in engine.metrics.batches]
        assert all(p == 0.0 for p in predicted[:5])
        assert all(p > 0.0 for p in predicted[5:])
        prof = engine.profiler.profile
        assert prof.batch_seconds.count == 8
        assert prof.hot_operators()
        assert any(op.self_seconds.get() > 0 for op in prof.hot_operators())

    def test_profiles_persist_and_warm_start(self, catalogs, tmp_path):
        spec, catalog = self._spec_catalog(catalogs)
        path = str(tmp_path / "profiles.json")
        run_query(spec, catalog, profile=True, path=path)
        doc = json.load(open(path))
        assert doc["schema"] == PROFILES_SCHEMA
        sig = plan_signature(spec.plan)
        assert doc["queries"][sig]["runs"] == 1
        # Warm run: the reloaded profile predicts from the first batch.
        engine, _ = run_query(spec, catalog, profile=True,
                              path=path)
        assert engine.metrics.batches[0].predicted_seconds > 0.0
        assert json.load(open(path))["queries"][sig]["runs"] == 2

    def test_profile_key_isolates_queries(self, catalogs, tmp_path):
        path = str(tmp_path / "profiles.json")
        run_query(TPCH_QUERIES["Q1"], catalogs["tpch"],
                  profile=True, path=path)
        run_query(TPCH_QUERIES["Q6"], catalogs["tpch"],
                  profile=True, path=path)
        doc = json.load(open(path))
        assert len(doc["queries"]) == 2

    def test_stack_sampler_smoke(self, catalogs):
        spec, catalog = self._spec_catalog(catalogs)
        engine, _ = run_query(spec, catalog, profile=True,
                              profile_stack=True)
        report = engine.profiler.stack_report()
        assert report is not None
        assert set(report) == {"samples", "interval_seconds", "top_stacks"}

    def test_recovery_batches_do_not_poison_the_model(self, catalogs):
        spec, catalog = self._spec_catalog(catalogs)
        engine, _ = run_query(
            spec, catalog, profile=True, batches=8,
            faults="batch@7",
        )
        assert engine.metrics.num_recoveries == 1
        bm = engine.metrics.batches[6]
        assert bm.recovered
        # The profiled sample for the recovered batch is its net time.
        sample_seconds = engine.profiler.profile.samples[6][3]
        assert sample_seconds == pytest.approx(
            max(0.0, bm.wall_seconds - bm.recovery_seconds), abs=1e-9
        )


class TestBitIdenticalWithProfiling:
    """Acceptance sweep: profiling changes no bits on any workload query."""

    @pytest.mark.parametrize("source,name", ALL_QUERIES)
    def test_serial(self, source, name, catalogs, tmp_path):
        spec = spec_of(source, name)
        catalog = catalogs[source]
        _, plain = run_query(spec, catalog, profile=False)
        _, profiled = run_query(
            spec, catalog, profile=True,
            path=str(tmp_path / "profiles.json"), profile_stack=True,
        )
        assert len(plain) == len(profiled)
        names = plain[0].schema.names if plain else []
        for pp, pq in zip(plain, profiled):
            assert pp.batch_no == pq.batch_no
            _assert_rows_identical(
                pp.rows, pq.rows, names,
                f"{name} batch {pp.batch_no}",
            )
