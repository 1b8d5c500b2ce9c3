"""The two-tier rollup aggregation plane (``OnlineConfig(rollup=True)``).

The contract under test, end to end: folding pruning-resolved (quiescent)
groups into the per-sink :class:`~repro.rollup.ResolvedRollupStore` must be
*invisible* in every published ``PartialResult`` — bit-identical points,
bootstrap trials, and row order against the rollup-off reference — across
both executors, both kernel modes, checkpoint/restore replay, and injected
mid-run recoveries. What may change is only the per-batch cost profile
(covered by ``benchmarks/test_perf_rollup.py``) and the obs counters that
expose the resolved/ND split.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import OnlineConfig, OnlineQueryEngine
from repro.core.operators.aggregate import AggregateOp
from repro.core.sentinels import QuiescenceTracker
from repro.obs import Observability
from repro.rollup import ResolvedRollupStore, demote_restored_rollups
from repro.relational import (
    Catalog,
    avg,
    col,
    count,
    relation_from_columns,
    scan,
    sum_,
)
from repro.state import InMemoryStateStore, StateRegistry, estimate_nbytes
from repro.workloads import CONVIVA_QUERIES, TPCH_QUERIES
from tests.conftest import KX_SCHEMA, random_kx
from tests.test_kernels import assert_partials_identical

ALL_QUERIES = [("tpch", name) for name in TPCH_QUERIES] + [
    ("conviva", name) for name in CONVIVA_QUERIES
]

fuzz = settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.fixture(scope="module")
def small_catalogs(tpch_small, conviva_small):
    return {"tpch": tpch_small.catalog(), "conviva": conviva_small.catalog()}


def run_partials(
    spec_plan,
    catalog,
    streamed,
    *,
    rollup,
    vectorize=True,
    executor="serial",
    num_batches=6,
    num_trials=8,
    partition_mode="shuffle",
    faults=None,
    checkpoint_interval=0,
    quiesce=2,
):
    engine = OnlineQueryEngine(
        catalog,
        streamed,
        OnlineConfig(
            num_trials=num_trials,
            seed=7,
            rollup=rollup,
            rollup_quiesce=quiesce,
            vectorize=vectorize,
            faults=faults,
            checkpoint_interval=checkpoint_interval,
        ),
        executor=executor,
        partition_mode=partition_mode,
    )
    try:
        return engine, list(engine.run(spec_plan, num_batches))
    finally:
        engine.executor.close()


def wave_catalog(n=30000, groups=1500, seed=0) -> Catalog:
    """kx data sorted by group: sequential partitioning delivers each
    group in one contiguous wave, so groups quiesce and migrate."""
    rel = random_kx(n, seed=seed, groups=groups)
    order = np.argsort(rel.column("k"), kind="stable")
    return Catalog({"t": rel.take(order)})


def wave_plan():
    return scan("t", KX_SCHEMA).aggregate(
        ["k"], [avg("x", "ax"), avg("y", "ay")]
    )


def rollup_group_batches(engine) -> int:
    return sum(bm.rollup_groups for bm in engine.metrics.batches)


# ---------------------------------------------------------------------------
# Acceptance gate: every workload query, bit-identical with rollups on,
# across both executors and both kernel modes.
# ---------------------------------------------------------------------------


class TestWorkloadParity:
    @pytest.mark.parametrize("source,name", ALL_QUERIES)
    def test_serial_vectorized(self, source, name, small_catalogs):
        self._check(source, name, small_catalogs, True, "serial")

    @pytest.mark.parametrize("source,name", ALL_QUERIES)
    def test_serial_reference_kernels(self, source, name, small_catalogs):
        self._check(source, name, small_catalogs, False, "serial")

    @pytest.mark.parametrize("source,name", ALL_QUERIES)
    def test_parallel(self, source, name, small_catalogs):
        self._check(source, name, small_catalogs, True, "parallel")

    def _check(self, source, name, catalogs, vectorize, executor):
        spec = (TPCH_QUERIES if source == "tpch" else CONVIVA_QUERIES)[name]
        catalog = catalogs[source]
        _, ref = run_partials(
            spec.plan, catalog, spec.streamed_table,
            rollup=False, vectorize=vectorize, executor=executor,
        )
        _, got = run_partials(
            spec.plan, catalog, spec.streamed_table,
            rollup=True, vectorize=vectorize, executor=executor,
        )
        assert got, f"{name}: no partial results"
        assert_partials_identical(
            got, ref, f"{name} {executor} vectorize={vectorize} rollup"
        )


# ---------------------------------------------------------------------------
# Migration actually happens — and is still invisible.
# ---------------------------------------------------------------------------


class TestMigration:
    def test_sequential_waves_migrate_and_stay_identical(self):
        catalog = wave_catalog()
        plan = wave_plan()
        _, ref = run_partials(
            plan, catalog, "t", rollup=False,
            partition_mode="sequential", num_batches=15,
        )
        engine, got = run_partials(
            plan, catalog, "t", rollup=True,
            partition_mode="sequential", num_batches=15,
        )
        assert rollup_group_batches(engine) > 0, "no group ever migrated"
        assert_partials_identical(got, ref, "sequential waves")

    def test_rollup_shrinks_hot_tier(self):
        catalog = wave_catalog()
        plan = wave_plan()
        ref_engine, _ = run_partials(
            plan, catalog, "t", rollup=False,
            partition_mode="sequential", num_batches=15,
        )
        engine, _ = run_partials(
            plan, catalog, "t", rollup=True,
            partition_mode="sequential", num_batches=15,
        )
        hot_ref = sum(bm.nd_groups for bm in ref_engine.metrics.batches)
        hot = sum(bm.nd_groups for bm in engine.metrics.batches)
        assert hot < hot_ref / 2, (hot, hot_ref)
        # Conservation: every published group-batch lands in exactly one
        # tier, so the per-batch tier split sums to the reference count.
        for bm_r, bm_t in zip(ref_engine.metrics.batches, engine.metrics.batches):
            assert bm_t.rollup_groups + bm_t.nd_groups == bm_r.nd_groups

    def test_structural_flip_demotes(self):
        """A group whose rows reappear after it migrated must be demoted
        back into the hot tier — and the answer must not wobble."""
        rng = np.random.default_rng(3)
        n = 6000
        k = rng.integers(0, 40, n)
        # Group 0 gets a burst at the very start and another at the very
        # end of the stream; sequential partitioning turns that into
        # touch → quiesce → migrate → late touch → demote.
        k[: n // 10] = 0
        k[-n // 10:] = 0
        rel = relation_from_columns(
            KX_SCHEMA,
            k=np.concatenate([k[: n // 10], np.sort(k[n // 10: -n // 10]),
                              k[-n // 10:]]),
            x=np.round(rng.gamma(3.0, 4.0, n), 3),
            y=np.round(rng.normal(50.0, 15.0, n), 3),
        )
        catalog = Catalog({"t": rel})
        plan = wave_plan()
        _, ref = run_partials(
            plan, catalog, "t", rollup=False,
            partition_mode="sequential", num_batches=12,
        )
        engine, got = run_partials(
            plan, catalog, "t", rollup=True,
            partition_mode="sequential", num_batches=12,
        )
        assert rollup_group_batches(engine) > 0
        demoted = sum(
            1 for bm in engine.metrics.batches if bm.rollup_groups
        )
        assert demoted, "expected at least one batch with a live rollup tier"
        assert_partials_identical(got, ref, "structural flip")

    def test_rollup_counters_exported(self):
        obs, sink = Observability.in_memory()
        catalog = wave_catalog(n=8000, groups=400)
        engine = OnlineQueryEngine(
            catalog, "t",
            OnlineConfig(num_trials=8, seed=7, rollup=True),
            partition_mode="sequential",
            obs=obs,
        )
        try:
            engine.run_to_completion(wave_plan(), 10)
        finally:
            engine.executor.close()
            obs.close()
        names = {
            e["name"].split("{", 1)[0]
            for e in sink.events
            if e.get("kind") == "counter"
        }
        assert {"rollup.groups", "rollup.nd_groups", "rollup.hits",
                "rollup.migrations"} <= names


# ---------------------------------------------------------------------------
# The sketch-level migration primitives are bit-exact.
# ---------------------------------------------------------------------------


def make_sketch_op(n=2000, groups=10, seed=1):
    """Drive a standalone grouped-AVG aggregate for two batches; the op's
    rollup-eligible persistent output and sketch are then inspectable."""
    from repro.core.blocks import RuntimeContext
    from repro.core.operators import ScanOp
    from repro.metrics import BatchMetrics

    rel = random_kx(n, seed=seed, groups=groups)
    ctx = RuntimeContext(
        Catalog({"t": rel}), "t", n,
        OnlineConfig(num_trials=8, seed=7, rollup=True),
    )
    specs = [avg("x", "ax"), avg("y", "ay")]
    node = scan("t", KX_SCHEMA).aggregate(["k"], specs)
    op = AggregateOp(
        ScanOp("t", KX_SCHEMA), ["k"], specs, node.output_schema({}),
        block_id=99, sample_weighted=True,
    )
    assert op.rollup_eligible
    half = n // 2
    ctx.begin_batch(1, rel.take(np.arange(half)), BatchMetrics(1))
    op.run(ctx)
    ctx.begin_batch(2, rel.take(np.arange(half, n)), BatchMetrics(2))
    op.run(ctx)
    return op


class TestSketchRoundTrip:
    def test_extract_reinsert_is_identity(self):
        op = make_sketch_op(seed=1, groups=12)
        sketch = op.sketch
        before = {key: sketch.acc[gid].copy() for key, gid in sketch.key_to_gid.items()}
        victims = sorted(before)[::2]
        rows = sketch.extract_groups(victims)
        assert sorted(rows) == sorted(victims)
        for key in victims:
            assert key not in sketch.key_to_gid
            assert rows[key].acc.shape == before[key].shape
        sketch.reinsert_groups(rows)
        assert set(sketch.key_to_gid) == set(before)
        for key, block in before.items():
            got = sketch.acc[sketch.key_to_gid[key]]
            assert got.tobytes() == block.tobytes(), key

    def test_store_migrate_demote_round_trip(self):
        op = make_sketch_op(seed=2, groups=10)
        sketch, output = op.sketch, op._output
        key = sorted(sketch.key_to_gid)[0]
        store = ResolvedRollupStore()
        rows = sketch.extract_groups([key])
        store.migrate(key, output.groups[key], rows[key], batch_no=3)
        assert key in store and len(store) == 1
        assert store.migrations == 1
        with pytest.raises(AssertionError):
            store.migrate(key, output.groups[key], rows[key], batch_no=4)
        back = store.demote([key])
        assert store.demotions == 1 and len(store) == 0
        assert back[key] is rows[key]

    def test_demote_all_empties_store(self):
        op = make_sketch_op(seed=3, groups=10)
        sketch, output = op.sketch, op._output
        keys = sorted(sketch.key_to_gid)[:4]
        store = ResolvedRollupStore()
        for key, accum in sketch.extract_groups(keys).items():
            store.migrate(key, output.groups[key], accum, batch_no=1)
        rows = store.demote_all()
        assert sorted(rows) == sorted(keys)
        assert len(store) == 0


# ---------------------------------------------------------------------------
# Byte accounting: an accumulator shared between tiers is counted once.
# ---------------------------------------------------------------------------


class TestNbytesDedup:
    def test_shared_group_value_counted_once(self):
        op = make_sketch_op(seed=4, groups=10)
        output = op._output
        key = sorted(output.groups)[0]
        rollup = ResolvedRollupStore()
        accum = op.sketch.extract_groups([key])[key]
        rollup.migrate(key, output.groups[key], accum, batch_no=1)

        store = InMemoryStateStore()
        store.put("rollup", rollup)
        store.put("output", output)
        both = estimate_nbytes(store)

        alone = InMemoryStateStore()
        alone.put("output", output)
        separate = estimate_nbytes(alone) + rollup.estimated_bytes(seen=set())

        # The GroupValue aliased from both tiers must not be billed twice:
        # the shared-store total is smaller than summing the tiers blind.
        assert both < separate
        # And the dedup can only remove what the rollup tier itself holds.
        assert separate - both <= rollup.estimated_bytes(seen=set())

    def test_seen_set_is_per_call(self):
        rollup = ResolvedRollupStore()
        store = InMemoryStateStore()
        store.put("rollup", rollup)
        assert estimate_nbytes(store) == estimate_nbytes(store)


# ---------------------------------------------------------------------------
# Recovery: restored rollup entries are demoted before the replay suffix.
# ---------------------------------------------------------------------------


class TestRestoreDemotion:
    def test_demote_restored_rollups_sweeps_registry(self):
        op = make_sketch_op(seed=5, groups=10)
        keys = sorted(op.sketch.key_to_gid)[:3]
        rollup = op._rollup
        tracker = op.state.get("quiesce")
        assert isinstance(tracker, QuiescenceTracker)
        for key, accum in op.sketch.extract_groups(keys).items():
            rollup.migrate(key, op._output.groups[key], accum, batch_no=2)
        registry = StateRegistry()
        registry.adopt("agg:test", op.state)
        assert demote_restored_rollups(registry) == len(keys)
        assert len(rollup) == 0
        for key in keys:
            assert key in op.sketch.key_to_gid
        assert demote_restored_rollups(registry) == 0

    def test_faulted_run_with_migrations_matches_clean_reference(self):
        catalog = wave_catalog(n=12000, groups=600)
        plan = wave_plan()
        _, ref = run_partials(
            plan, catalog, "t", rollup=False,
            partition_mode="sequential", num_batches=12,
        )
        engine, got = run_partials(
            plan, catalog, "t", rollup=True,
            partition_mode="sequential", num_batches=12,
            faults="batch@7", checkpoint_interval=3,
        )
        assert engine.metrics.num_recoveries >= 1
        assert rollup_group_batches(engine) > 0
        final_ref, final = ref[-1], got[-1]
        assert final.to_relation().bag_equal(final_ref.to_relation(), 9)


# ---------------------------------------------------------------------------
# The rollup-on block output is operator state: buffers written in place.
# ---------------------------------------------------------------------------


class TestPersistentOutput:
    def _session(self, num_batches):
        engine = OnlineQueryEngine(
            wave_catalog(n=12000, groups=600),
            "t",
            OnlineConfig(num_trials=8, seed=7, rollup=True, checkpoint_interval=0),
            partition_mode="sequential",
        )
        return engine.open_run(wave_plan(), num_batches)

    @staticmethod
    def _output(ctx):
        (out,) = [
            store.get("output")
            for store in map(ctx.stores.get, ctx.stores.namespaces())
            if store.get("output") is not None
        ]
        return out

    def test_publish_rewrites_only_republished_groups(self):
        session = self._session(20)
        try:
            buffers, migrated = {}, 0
            for batch_no in range(1, 21):
                session.process(batch_no)
                out = self._output(session.ctx)
                assert out.persistent
                trials = out.ucol("ax").trials
                assert len(trials) == len(out.index)
                buffers[id(trials.base)] = trials.base  # kept alive: ids stay distinct
                migrated = max(migrated, session.ctx.metrics.rollup_groups)
        finally:
            session.close()
        assert migrated > 0
        # 30 fresh groups arrive in each of the 20 batches, yet the (G, T)
        # buffer is reallocated only when its doubling capacity runs out.
        assert len(buffers) <= 6, len(buffers)

    def test_snapshot_owns_its_arrays(self):
        import copy

        session = self._session(8)
        try:
            for batch_no in range(1, 5):
                session.process(batch_no)
            out = self._output(session.ctx)
            snap = copy.deepcopy(out)
            want = {
                "exist": out.exist.copy(),
                "certain": out.certain.copy(),
                "trials": out.ucol("ay").trials.copy(),
                "point": out.ucol("ay").point.copy(),
            }
            assert not np.shares_memory(snap.exist, out.exist)
            assert not np.shares_memory(snap.ucol("ay").trials, out.ucol("ay").trials)
            for batch_no in range(5, 9):
                session.process(batch_no)
        finally:
            session.close()
        assert np.array_equal(snap.exist, want["exist"])
        assert np.array_equal(snap.certain, want["certain"])
        assert np.array_equal(snap.ucol("ay").trials, want["trials"], equal_nan=True)
        assert np.array_equal(snap.ucol("ay").point, want["point"], equal_nan=True)


# ---------------------------------------------------------------------------
# Report schema v2: the rollup section round-trips and validates.
# ---------------------------------------------------------------------------


class TestReportRollup:
    def _summary(self, rollup):
        from repro.obs.report import TraceSummary

        obs, sink = Observability.in_memory()
        catalog = wave_catalog(n=6000, groups=300)
        engine = OnlineQueryEngine(
            catalog, "t",
            OnlineConfig(num_trials=8, seed=7, rollup=rollup),
            partition_mode="sequential",
            obs=obs,
        )
        try:
            engine.run_to_completion(wave_plan(), 10)
        finally:
            engine.executor.close()
            obs.close()
        return TraceSummary(sink.events)

    def test_rollup_section_present_and_valid(self):
        from repro.obs.report import validate_report

        summary = self._summary(rollup=True)
        doc = summary.to_dict()
        validate_report(doc)
        section = doc["rollup"]
        assert section["served_group_batches"] > 0
        assert section["hot_group_batches"] > 0
        assert section["migrations"] >= 1
        assert 0.0 < section["hit_rate"] <= 1.0

    def test_rollup_section_empty_when_disabled(self):
        from repro.obs.report import validate_report

        summary = self._summary(rollup=False)
        doc = summary.to_dict()
        validate_report(doc)
        assert doc["rollup"] == {}

    def test_top_frame_shows_tier_split(self):
        from repro.obs.export import TopView
        from repro.obs.profile import ContinuousProfiler, QueryProfile

        profiler = ContinuousProfiler(QueryProfile("shape"))
        view = TopView(target_rsd=0.01)
        frame = view.frame(
            profiler, batch_no=5, num_batches=10,
            rsd=0.02, batch_rows=100, seen_rows=500, wall_seconds=0.01,
            rollup_groups=75, nd_groups=25,
        )
        assert "rollup tier: 75 resolved / 25 ND group(s)" in frame
        assert "75.0%" in frame  # hit rate
        off = view.frame(
            profiler, batch_no=5, num_batches=10,
            rsd=0.02, batch_rows=100, seen_rows=500, wall_seconds=0.01,
        )
        assert "rollup tier" not in off


# ---------------------------------------------------------------------------
# Property: under fuzzed datasets, arrival orders, and quiescence knobs —
# with and without an injected mid-run recovery — rollup-merged results
# are indistinguishable from the rollup-disabled reference.
# ---------------------------------------------------------------------------


@fuzz
@given(
    seed=st.integers(0, 10_000),
    groups=st.integers(2, 200),
    quiesce=st.integers(0, 4),
    mode=st.sampled_from(["sequential", "blocks", "shuffle"]),
)
def test_property_rollup_is_invisible(seed, groups, quiesce, mode):
    rng = np.random.default_rng(seed)
    n = 4000
    rel = relation_from_columns(
        KX_SCHEMA,
        k=np.sort(rng.integers(0, groups, n)),
        x=np.round(rng.gamma(3.0, 4.0, n), 3),
        y=np.round(rng.normal(50.0, 15.0, n), 3),
    )
    catalog = Catalog({"t": rel})
    plan = wave_plan()
    _, ref = run_partials(
        plan, catalog, "t", rollup=False, partition_mode=mode,
        num_batches=10, quiesce=quiesce,
    )
    _, got = run_partials(
        plan, catalog, "t", rollup=True, partition_mode=mode,
        num_batches=10, quiesce=quiesce,
    )
    assert_partials_identical(got, ref, f"fuzz seed={seed} mode={mode}")


@fuzz
@given(
    seed=st.integers(0, 10_000),
    fault_batch=st.integers(3, 9),
)
def test_property_recovery_demotes_and_converges(seed, fault_batch):
    """Random resolution orders + an injected mid-run integrity failure:
    the replayed run (which demotes restored rollup entries) must land on
    the fault-free reference, and per-batch prefixes before the fault are
    bit-identical."""
    rng = np.random.default_rng(seed)
    n = 4000
    rel = relation_from_columns(
        KX_SCHEMA,
        k=np.sort(rng.integers(0, 80, n)),
        x=np.round(rng.gamma(3.0, 4.0, n), 3),
        y=np.round(rng.normal(50.0, 15.0, n), 3),
    )
    catalog = Catalog({"t": rel})
    # An uncertain SELECT (x > streaming per-group AVG) gives the sentinel
    # fault a probe site, and keeps groups ND until their range resolves.
    inner = (
        scan("t", KX_SCHEMA)
        .aggregate(["k"], [avg("x", "ax")])
        .rename({"k": "k2"})
    )
    plan = (
        scan("t", KX_SCHEMA)
        .join(inner, keys=[("k", "k2")])
        .select(col("x") > col("ax"))
        .aggregate(["k"], [avg("y", "ay")])
    )
    _, ref = run_partials(
        plan, catalog, "t", rollup=False, partition_mode="sequential",
        num_batches=10, checkpoint_interval=3, quiesce=1,
    )
    engine, got = run_partials(
        plan, catalog, "t", rollup=True, partition_mode="sequential",
        num_batches=10, checkpoint_interval=3, quiesce=1,
        faults=f"sentinel@{fault_batch}",
    )
    assert engine.metrics.num_recoveries >= 1
    assert len(got) == len(ref)
    final_ref, final = ref[-1], got[-1]
    assert final.to_relation().bag_equal(final_ref.to_relation(), 9), (
        f"seed={seed} fault@{fault_batch}"
    )
