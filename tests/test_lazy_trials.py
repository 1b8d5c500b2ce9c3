"""Late-materialised bootstrap trials.

A row's trial weights are a pure function of ``(seed, streamed table,
global row id, trial)``; a relation of the stream carries the row ids
(:class:`LazyTrials`) through every index operation and the matrix is
drawn for exactly the rows that reach a reader of ``trial_mults``. These
tests pin the three things that make that safe: the ids are the true
storage positions in every configuration, laziness never changes a
result (lazy ≡ eager, all 22 queries), and nothing draws what it does
not fold.
"""

import numpy as np
import pytest

from repro.batching import Partitioner
from repro.bootstrap import trial_multiplicities
from repro.core import OnlineConfig, OnlineQueryEngine
from repro.core import blocks as blocks_module
from repro.core.blocks import RuntimeContext
from repro.core.operators.scan import ScanOp
from repro.core.sketch import AggBundle
from repro.kernels.joins import vectorized_join
from repro.metrics.stats import BatchMetrics
from repro.relational import Catalog, avg, col, count, evaluate, scan, sum_
from repro.relational.relation import LazyTrials, Relation
from repro.workloads import CONVIVA_QUERIES, TPCH_QUERIES
from tests.conftest import KX_SCHEMA, random_kx
from tests.test_executor import _assert_rows_identical
from tests.test_kernels import join_relations

ALL_QUERIES = {**TPCH_QUERIES, **CONVIVA_QUERIES}
T = 12


class FakeRun:
    """The two things a LazyTrials source must offer."""

    num_trials = T

    def __init__(self):
        self.drawn_rows = 0

    def draw_trials(self, ids):
        self.drawn_rows += len(ids)
        return trial_multiplicities(len(ids), T, 9, "t", ids)


def lazy_kx(n=40, run=None):
    rel = random_kx(n, seed=1, groups=4)
    return rel.with_mult(rel.mult, LazyTrials(np.arange(100, 100 + n), run or FakeRun()))


def nested_plan():
    inner = scan("t", KX_SCHEMA).aggregate([], [avg("x", "ax")])
    return (
        scan("t", KX_SCHEMA)
        .join(inner, keys=[])
        .select(col("x") > col("ax"))
        .aggregate(["k"], [sum_("y", "sy"), count("n")])
    )


# ---------------------------------------------------------------------------
# Relation: ids ride through index operations, arithmetic draws.
# ---------------------------------------------------------------------------


class TestRelationCarriesIds:
    def test_index_operations_keep_the_ids_and_draw_nothing(self):
        run = FakeRun()
        rel = lazy_kx(run=run)
        mask = rel.column("x") > 15
        out = (
            rel.filter(mask)
            .take(np.array([3, 0, 3]))
            .slice(0, 2)
            .project(["k", "x"])
            .rename({"x": "xx"})
            .with_column("z", KX_SCHEMA.type_of("y"), np.zeros(2))
        )
        assert isinstance(out._trials, LazyTrials) and run.drawn_rows == 0
        assert out._trials.ids.tolist() == (np.arange(100, 140)[mask][[3, 0]]).tolist()
        assert out.num_trials == T and out.estimated_bytes() > 0 and run.drawn_rows == 0
        both = rel.slice(0, 5).concat(rel.slice(30, 40))
        assert both._trials.ids.tolist() == [*range(100, 105), *range(130, 140)]
        assert run.drawn_rows == 0

    def test_reading_draws_exactly_those_rows(self):
        run = FakeRun()
        rel = lazy_kx(run=run)
        full = trial_multiplicities(40, T, 9, "t", np.arange(100, 140))
        sub = rel.filter(rel.column("k") == 2)
        assert (sub.trial_mults == full[rel.column("k") == 2]).all()
        assert run.drawn_rows == len(sub)
        order = np.argsort(rel.column("x"), kind="stable")
        assert (rel.trials_at(order) == full[order]).all()

    def test_arithmetic_and_storage_materialise(self):
        rel = lazy_kx()
        scaled = rel.scale(2.0)
        assert scaled._trials.dtype == np.float64
        assert (scaled._trials == 2.0 * rel.trial_mults).all()
        kept = rel.with_drawn_trials()
        assert kept._trials.dtype == np.uint8 and kept.with_drawn_trials() is kept
        mixed = kept.concat(rel)  # a stored matrix meets fresh lazy rows
        assert (mixed._trials == np.vstack([kept._trials, rel.trial_mults])).all()

    def test_ids_without_a_run_mean_no_trials(self):
        rel = random_kx(10, seed=1)
        batch = Partitioner(seed=1).partition(rel, 2)[0]
        assert isinstance(batch._trials, LazyTrials) and batch._trials.source is None
        assert batch.trial_mults is None and batch.num_trials == 0
        assert batch.concat(batch).trial_mults is None


class TestStaticJoinKeepsIds:
    @pytest.mark.parametrize("join", [join_relations, vectorized_join])
    def test_unit_multiplicity_side_forms_no_float_matrix(self, join, dim_relation):
        run = FakeRun()
        rel = lazy_kx(run=run)
        disk_like = dim_relation.with_mult(dim_relation.mult, LazyTrials(np.arange(4)))
        joined = [
            join(rel, dim_relation, [("k", "k")]),
            join(dim_relation, rel, [("k", "k")]),
            join(rel, disk_like, [("k", "k")]),  # ids no run installed: no trials
        ]
        assert run.drawn_rows == 0
        for out in joined:
            assert isinstance(out._trials, LazyTrials)
            assert len(out) == len(rel) and out.trial_mults.dtype == np.uint8
            order = np.argsort(out._trials.ids, kind="stable")
            assert (out.trial_mults[order] == rel.trial_mults).all()

    @pytest.mark.parametrize("join", [join_relations, vectorized_join])
    def test_weighted_side_multiplies(self, join, dim_relation):
        rel = lazy_kx()
        side = dim_relation.with_mult(np.array([1.0, 2.0, 0.5, 1.0]), None)
        out = join(rel, side, [("k", "k")])
        assert out._trials.dtype == np.float64
        want = rel.trial_mults * side.mult[rel.column("k")][:, None]
        assert (out._trials == want).all() and (out.mult == side.mult[rel.column("k")]).all()

    def test_side_with_trials_multiplies(self, dim_relation):
        rel = lazy_kx()
        side = dim_relation.with_mult(dim_relation.mult, np.full((4, T), 3.0))
        out = vectorized_join(rel, side, [("k", "k")])
        assert (out._trials == 3.0 * rel.trial_mults).all()


# ---------------------------------------------------------------------------
# Engine: ids are storage positions; weights do not depend on the config.
# ---------------------------------------------------------------------------


@pytest.fixture
def recorder(monkeypatch):
    """Log every installed delta's ids and every draw of the run."""
    log = {"deltas": [], "draws": []}
    begin, draw = RuntimeContext.begin_batch, RuntimeContext.draw_trials

    def begin_batch(self, batch_no, delta, metrics):
        begin(self, batch_no, delta, metrics)
        log["deltas"].append((batch_no, self.delta))

    def draw_trials(self, ids):
        out = draw(self, ids)
        log["draws"].append((np.array(ids), out))
        return out

    monkeypatch.setattr(RuntimeContext, "begin_batch", begin_batch)
    monkeypatch.setattr(RuntimeContext, "draw_trials", draw_trials)
    return log


def check_log(log, table: Relation, seed: int):
    """Every delta row's id is its position in ``table``; every drawn row
    is the reference weight vector of its id."""
    reference = trial_multiplicities(len(table), T, seed, "t")
    seen = []
    for _, delta in log["deltas"]:
        ids = delta._trials.ids
        assert (table.column("y")[ids] == delta.column("y")).all()
        seen.append(ids)
    for ids, drawn in log["draws"]:
        assert (drawn == reference[ids]).all()
    return np.concatenate(seen)


class TestWeightsDoNotDependOnTheConfiguration:
    @pytest.mark.parametrize("mode", ["shuffle", "blocks", "sequential"])
    @pytest.mark.parametrize("num_batches", [5, 20, 100])
    def test_partition_mode_and_batch_count(self, mode, num_batches, recorder):
        table = random_kx(600, seed=2, groups=5)
        plan = scan("t", KX_SCHEMA).select(col("x") > 12).aggregate(["k"], [sum_("y", "s")])
        engine = OnlineQueryEngine(
            Catalog({"t": table}), "t", OnlineConfig(num_trials=T, seed=4), partition_mode=mode
        )
        final = engine.run_to_completion(plan, num_batches)
        assert sorted(check_log(recorder, table, 4).tolist()) == list(range(600))
        assert recorder["draws"] and final.is_final

    def test_a_recovery_replay_installs_the_same_ids(self, recorder):
        table = random_kx(600, seed=2, groups=5)
        cat = Catalog({"t": table})
        engine = OnlineQueryEngine(
            cat, "t", OnlineConfig(num_trials=T, seed=4, faults="sentinel@5")
        )
        final = engine.run_to_completion(nested_plan(), 8)
        assert engine.metrics.batches[4].recovered
        by_batch = {}
        for batch_no, delta in recorder["deltas"]:
            by_batch.setdefault(batch_no, []).append(delta._trials.ids)
        assert max(len(v) for v in by_batch.values()) > 1  # some batch was replayed
        for installs in by_batch.values():
            assert all((ids == installs[0]).all() for ids in installs)
        check_log(recorder, table, 4)
        assert final.to_relation().bag_equal(evaluate(nested_plan(), cat), 3)

    @pytest.mark.parametrize("name", ["Q17", "C9"])
    def test_two_scans_of_the_stream_see_the_same_weights(
        self, name, tpch_small, conviva_small, monkeypatch
    ):
        spec = ALL_QUERIES[name]
        data = tpch_small if name in TPCH_QUERIES else conviva_small
        emitted = {}
        process = ScanOp.process

        def recording(self, delta, ctx):
            out = process(self, delta, ctx)
            emitted.setdefault(ctx.batch_no, []).append(out.certain._trials)
            return out

        monkeypatch.setattr(ScanOp, "process", recording)
        engine = OnlineQueryEngine(
            data.catalog(), spec.streamed_table, OnlineConfig(num_trials=T, seed=4)
        )
        engine.run_to_completion(spec.plan, 4)
        for handles in emitted.values():
            assert len(handles) >= 2
            assert all(h.source is handles[0].source for h in handles)
            assert all((h.ids == handles[0].ids).all() for h in handles)

    def test_a_hand_built_delta_gets_arrival_order_ids(self):
        ctx = RuntimeContext(Catalog({}), "t", 30, OnlineConfig(num_trials=T, seed=3))
        first, second = random_kx(10, seed=1), random_kx(20, seed=2)
        ctx.begin_batch(1, first, BatchMetrics(1))
        assert ctx.delta._trials.ids.tolist() == list(range(10))
        ctx.begin_batch(2, second, BatchMetrics(2))
        assert ctx.delta._trials.ids.tolist() == list(range(10, 30))
        assert (ctx.delta.trial_mults == trial_multiplicities(20, T, 3, "t", np.arange(10, 30))).all()
        # Trials a caller attached are replaced, as they always were.
        ctx.begin_batch(3, first.with_mult(first.mult, np.ones((10, T))), BatchMetrics(3))
        assert ctx.delta.trial_mults.dtype == np.uint8


# ---------------------------------------------------------------------------
# Laziness changes no result and draws no unread cell.
# ---------------------------------------------------------------------------


def run_all(spec, catalog, num_batches=5):
    engine = OnlineQueryEngine(
        catalog, spec.streamed_table, OnlineConfig(num_trials=T, seed=11)
    )
    return list(engine.run(spec.plan, num_batches))


@pytest.mark.parametrize("name", sorted(ALL_QUERIES))
def test_lazy_equals_eager(name, tpch_small, conviva_small, monkeypatch):
    """Drawing the whole delta at ``begin_batch`` (the old engine, as a
    test-side patch) yields bit-identical partial results: values and
    trial vectors, every batch."""
    spec = ALL_QUERIES[name]
    catalog = (tpch_small if name in TPCH_QUERIES else conviva_small).catalog()
    lazy = run_all(spec, catalog)
    begin = RuntimeContext.begin_batch

    def eager_begin(self, batch_no, delta, metrics):
        begin(self, batch_no, delta, metrics)
        self._delta = self._delta.with_drawn_trials()

    monkeypatch.setattr(RuntimeContext, "begin_batch", eager_begin)
    eager = run_all(spec, catalog)
    assert len(lazy) == len(eager) == 5
    names = lazy[0].schema.names
    for a, b in zip(lazy, eager):
        _assert_rows_identical(a.rows, b.rows, names, f"{name} batch {a.batch_no}")


def test_q6_draws_exactly_the_cells_it_folds(tpch_small, monkeypatch):
    counts = {"drawn": 0, "folded": 0}
    draw, fold = blocks_module.trial_multiplicities, AggBundle.fold

    def counting_draw(num_rows, num_trials, *rest):
        counts["drawn"] += num_rows * num_trials
        return draw(num_rows, num_trials, *rest)

    def counting_fold(self, rel, group_by):
        counts["folded"] += len(rel)
        return fold(self, rel, group_by)

    monkeypatch.setattr(blocks_module, "trial_multiplicities", counting_draw)
    monkeypatch.setattr(AggBundle, "fold", counting_fold)
    spec = TPCH_QUERIES["Q6"]
    catalog = tpch_small.catalog()
    engine = OnlineQueryEngine(catalog, "lineorder", OnlineConfig(num_trials=T, seed=2))
    engine.run_to_completion(spec.plan, 20)
    total = len(catalog.get("lineorder"))
    assert 0 < counts["folded"] < total / 4  # Q6 is selective
    assert counts["drawn"] == T * counts["folded"]
