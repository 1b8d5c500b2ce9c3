"""Unit tests for individual online operators, driven by a manual context."""

import numpy as np
import pytest

from repro.core.blocks import OnlineConfig, RuntimeContext
from repro.core.operators import (
    AggregateOp,
    DeltaBatch,
    FilterOp,
    ProjectOp,
    RowSinkOp,
    ScanOp,
    SpineOp,
    StaticEmitOp,
    StaticJoinOp,
    UnionOp,
    empty_relation,
)
from repro.metrics import BatchMetrics
from repro.relational import (
    Catalog,
    Project,
    avg,
    col,
    count,
    evaluate,
    relation_from_columns,
    scan,
    sum_,
)
from tests.conftest import DIM_SCHEMA, KX_SCHEMA, group_rows, random_kx

T = 5


def make_ctx(catalog=None, total=100):
    ctx = RuntimeContext(
        catalog or Catalog({}), "t", total, OnlineConfig(num_trials=T, seed=1)
    )
    return ctx


def feed(ctx, batch_no, delta):
    ctx.begin_batch(batch_no, delta, BatchMetrics(batch_no))


class _Fixed(SpineOp):
    """Test double: replays a queued sequence of DeltaBatches."""

    def __init__(self, schema, batches, uncertain_cols=()):
        super().__init__("fixed", schema, set(uncertain_cols))
        self.batches = list(batches)

    def process(self, delta, ctx):
        return self.batches.pop(0)


class TestScanOp:
    def test_emits_delta_with_trials(self):
        rel = random_kx(40, seed=1)
        ctx = make_ctx(total=40)
        feed(ctx, 1, rel)
        out = ScanOp("t", KX_SCHEMA).run(ctx)
        assert len(out.certain) == 40
        assert out.certain.trial_mults.shape == (40, T)
        assert len(out.volatile) == 0

    def test_trials_shared_across_scans(self):
        rel = random_kx(10, seed=1)
        ctx = make_ctx(total=10)
        feed(ctx, 1, rel)
        a = ScanOp("t", KX_SCHEMA).run(ctx)
        b = ScanOp("t", KX_SCHEMA).run(ctx)
        assert (a.certain.trial_mults == b.certain.trial_mults).all()

    def test_scale_tracks_seen_rows(self):
        ctx = make_ctx(total=100)
        feed(ctx, 1, random_kx(25, seed=1))
        assert ctx.scale == 4.0
        feed(ctx, 2, random_kx(25, seed=2))
        assert ctx.scale == 2.0


class TestFilterProjectUnion:
    def run_one(self, op_factory, rel):
        ctx = make_ctx(total=len(rel))
        feed(ctx, 1, rel)
        child = _Fixed(
            KX_SCHEMA,
            [DeltaBatch(ctx.delta, empty_relation(KX_SCHEMA, set(), T))],
        )
        return op_factory(child).run(ctx)

    def test_filter_applies_to_certain(self):
        rel = random_kx(50, seed=2)
        out = self.run_one(lambda c: FilterOp(c, col("x") > 20.0, 1), rel)
        expected = (rel.column("x") > 20.0).sum()
        assert len(out.certain) == expected

    def test_project_computes(self):
        rel = random_kx(10, seed=2)
        node = Project(scan("t", KX_SCHEMA), [("k", "k"), ("double", col("x") * 2)])
        out = self.run_one(
            lambda c: ProjectOp(c, node, node.output_schema({})), rel
        )
        assert list(out.certain.column("double")) == list(rel.column("x") * 2)

    def test_union_concats(self):
        rel = random_kx(10, seed=2)
        ctx = make_ctx(total=10)
        feed(ctx, 1, rel)
        empty = empty_relation(KX_SCHEMA, set(), T)
        left = _Fixed(KX_SCHEMA, [DeltaBatch(ctx.delta, empty)])
        right = _Fixed(KX_SCHEMA, [DeltaBatch(ctx.delta, empty)])
        out = UnionOp(left, right).run(ctx)
        assert len(out.certain) == 20

    def test_static_emit_fires_once(self):
        rel = random_kx(5, seed=2)
        ctx = make_ctx(total=5)
        feed(ctx, 1, rel)
        op = StaticEmitOp(rel)
        assert len(op.run(ctx).certain) == 5
        assert len(op.run(ctx).certain) == 0
        op.reset()
        assert len(op.run(ctx).certain) == 5


class TestStaticJoinOp:
    def test_joins_against_dimension(self):
        dim = relation_from_columns(DIM_SCHEMA, k=[0, 1], label=["a", "b"])
        rel = random_kx(30, seed=3, groups=4)
        ctx = make_ctx(total=30)
        feed(ctx, 1, rel)
        child = _Fixed(
            KX_SCHEMA, [DeltaBatch(ctx.delta, empty_relation(KX_SCHEMA, set(), T))]
        )
        node = scan("t", KX_SCHEMA).join(scan("d", DIM_SCHEMA), keys=["k"])
        op = StaticJoinOp(child, dim, [("k", "k")], node.output_schema({}), True, 1)
        out = op.run(ctx)
        matched = np.isin(rel.column("k"), [0, 1]).sum()
        assert len(out.certain) == matched
        assert "label" in out.certain.schema

    def test_reports_state_bytes(self):
        dim = relation_from_columns(DIM_SCHEMA, k=[0], label=["a"])
        rel = random_kx(5, seed=3)
        ctx = make_ctx(total=5)
        feed(ctx, 1, rel)
        child = _Fixed(
            KX_SCHEMA, [DeltaBatch(ctx.delta, empty_relation(KX_SCHEMA, set(), T))]
        )
        node = scan("t", KX_SCHEMA).join(scan("d", DIM_SCHEMA), keys=["k"])
        op = StaticJoinOp(child, dim, [("k", "k")], node.output_schema({}), True, 1)
        op.run(ctx)
        op.record_state(ctx)
        assert ctx.metrics.state_bytes_matching("join:") > 0


class TestAggregateOp:
    def make_op(self, ctx, rel, group_by=("k",), specs=None):
        specs = specs or [sum_("x", "sx"), count("n")]
        child = _Fixed(
            KX_SCHEMA, [DeltaBatch(rel, empty_relation(KX_SCHEMA, set(), T))]
        )
        node = scan("t", KX_SCHEMA).aggregate(list(group_by), specs)
        return AggregateOp(
            child, list(group_by), specs, node.output_schema({}),
            block_id=99, sample_weighted=True,
        )

    def test_publishes_block_output(self):
        rel = random_kx(40, seed=4, groups=3)
        ctx = make_ctx(total=40)
        feed(ctx, 1, rel)
        op = self.make_op(ctx, ctx.delta)
        op.run(ctx)
        assert 99 in ctx.blocks
        assert len(ctx.blocks[99]) == 3

    def test_values_scaled_by_m(self):
        rel = random_kx(40, seed=4, groups=2)
        ctx = make_ctx(total=80)  # seeing half the data -> m = 2
        feed(ctx, 1, rel)
        op = self.make_op(ctx, ctx.delta)
        op.run(ctx)
        total_sx = sum(
            g.values["sx"].value for g in group_rows(ctx.blocks[99]).values()
        )
        assert total_sx == pytest.approx(2.0 * rel.column("x").sum())

    def test_groups_marked_certain(self):
        rel = random_kx(40, seed=4, groups=2)
        ctx = make_ctx(total=40)
        feed(ctx, 1, rel)
        op = self.make_op(ctx, ctx.delta)
        op.run(ctx)
        assert all(g.certain for g in group_rows(ctx.blocks[99]).values())

    def test_gids_follow_first_publication_across_batches(self):
        ctx = make_ctx(total=20)
        first = random_kx(10, seed=4, groups=1)
        second = random_kx(10, seed=5, groups=3)
        child = _Fixed(
            KX_SCHEMA,
            [
                DeltaBatch(first.with_mult(first.mult, np.ones((10, T))),
                           empty_relation(KX_SCHEMA, set(), T)),
                DeltaBatch(second.with_mult(second.mult, np.ones((10, T))),
                           empty_relation(KX_SCHEMA, set(), T)),
            ],
        )
        node = scan("t", KX_SCHEMA).aggregate(["k"], [count("n")])
        op = AggregateOp(child, ["k"], [count("n")], node.output_schema({}), 99, True)
        feed(ctx, 1, first)
        op.run(ctx)
        index = ctx.indexes[99]
        first_keys = list(index.keys)
        assert first_keys == list(group_rows(ctx.blocks[99]))
        feed(ctx, 2, second)
        op.run(ctx)
        assert ctx.blocks[99].index is index
        assert index.keys[: len(first_keys)] == first_keys
        assert len(index) > len(first_keys)
        assert set(index.keys) == set(group_rows(ctx.blocks[99]))

    def test_vanished_volatile_group_tombstoned(self):
        ctx = make_ctx(total=20)
        rel = random_kx(10, seed=4, groups=2)
        vol = random_kx(4, seed=6, groups=4).with_mult(
            np.ones(4), np.ones((4, T))
        )
        empty = empty_relation(KX_SCHEMA, set(), T)
        child = _Fixed(
            KX_SCHEMA,
            [DeltaBatch(empty, vol), DeltaBatch(empty, empty)],
        )
        node = scan("t", KX_SCHEMA).aggregate(["k"], [count("n")])
        op = AggregateOp(child, ["k"], [count("n")], node.output_schema({}), 99, True)
        feed(ctx, 1, rel.take(np.arange(0)))
        op.run(ctx)
        keys_before = set(group_rows(ctx.blocks[99]))
        feed(ctx, 2, rel.take(np.arange(0)))
        op.run(ctx)
        # Groups that lost all (volatile) contributors stay resolvable but
        # report non-existence.
        for key in keys_before:
            group = group_rows(ctx.blocks[99])[key]
            assert not group.member_point or group.certain

    def _certain(self, rel):
        return DeltaBatch(
            rel.with_mult(rel.mult, np.ones((len(rel), T))),
            empty_relation(KX_SCHEMA, set(), T),
        )

    def test_nan_key_from_certain_rows_is_certain(self):
        # NaN keys hash by object identity: the group must still count as
        # certain, like every group folded from certain rows.
        rel = relation_from_columns(
            KX_SCHEMA,
            k=[0, 1, 2, 3],
            x=[1.0, float("nan"), float("nan"), 2.0],
            y=[1.0, 2.0, 3.0, 4.0],
        )
        ctx = make_ctx(total=4)
        feed(ctx, 1, rel)
        node = scan("t", KX_SCHEMA).aggregate(["x"], [count("n")])
        op = AggregateOp(
            _Fixed(KX_SCHEMA, [self._certain(rel)]),
            ["x"], [count("n")], node.output_schema({}), 99, True,
        )
        op.run(ctx)
        groups = group_rows(ctx.blocks[99]).values()
        assert any(g.key[0] != g.key[0] for g in groups)
        assert all(g.certain for g in groups)

    def test_reset_forgets_published_groups(self):
        ctx = make_ctx(total=20)
        rel = random_kx(10, seed=4, groups=3)
        zeros = rel.take(np.flatnonzero(rel.column("k") == 0))
        child = _Fixed(KX_SCHEMA, [self._certain(rel), self._certain(zeros)])
        node = scan("t", KX_SCHEMA).aggregate(["k"], [count("n")])
        op = AggregateOp(child, ["k"], [count("n")], node.output_schema({}), 99, True)
        feed(ctx, 1, rel)
        op.run(ctx)
        assert set(group_rows(ctx.blocks[99])) == {(0,), (1,), (2,)}
        op.reset()
        feed(ctx, 2, zeros)
        op.run(ctx)
        # The replay published only group 0: groups 1 and 2 were published
        # before the reset alone, so they are not tombstoned.
        assert list(group_rows(ctx.blocks[99])) == [(0,)]


class TestRowSink:
    def test_accumulates(self):
        rel = random_kx(10, seed=4)
        ctx = make_ctx(total=20)
        empty = empty_relation(KX_SCHEMA, set(), T)
        child = _Fixed(
            KX_SCHEMA,
            [DeltaBatch(rel, empty), DeltaBatch(rel, empty)],
        )
        sink = RowSinkOp(child)
        feed(ctx, 1, rel)
        sink.run(ctx)
        assert len(sink.result(ctx)) == 10
        feed(ctx, 2, rel)
        sink.run(ctx)
        assert len(sink.result(ctx)) == 20


class TestFailureRecovery:
    def test_forced_recovery_still_exact(self):
        """Slack 0 + few trials force integrity failures; the final result
        must still equal the batch answer (Theorem 1 via recovery)."""
        from repro.core import OnlineQueryEngine

        rel = random_kx(2000, seed=8, groups=6)
        dim = relation_from_columns(
            DIM_SCHEMA, k=list(range(6)), label=list("abcdef")
        )
        catalog = Catalog({"t": rel, "dim": dim})
        inner = (
            scan("t", KX_SCHEMA).aggregate(["k"], [avg("x", "ax")]).rename({"k": "k2"})
        )
        plan = (
            scan("t", KX_SCHEMA)
            .join(inner, keys=[("k", "k2")])
            .select(col("x") > col("ax"))
            .aggregate(["k"], [count("n")])
        )
        recoveries = 0
        for seed in range(4):
            engine = OnlineQueryEngine(
                catalog, "t", OnlineConfig(num_trials=8, seed=seed, slack=0.0)
            )
            final = engine.run_to_completion(plan, 12)
            exact = evaluate(plan, catalog)
            assert final.to_relation().bag_equal(exact, 3)
            recoveries += engine.metrics.num_recoveries
        assert recoveries > 0  # the failure path was actually exercised

    def test_recovery_metrics_flagged(self):
        from repro.core import OnlineQueryEngine

        rel = random_kx(2000, seed=8, groups=6)
        catalog = Catalog({"t": rel})
        inner = (
            scan("t", KX_SCHEMA).aggregate(["k"], [avg("x", "ax")]).rename({"k": "k2"})
        )
        plan = (
            scan("t", KX_SCHEMA)
            .join(inner, keys=[("k", "k2")])
            .select(col("x") > col("ax"))
            .aggregate(["k"], [count("n")])
        )
        found = False
        for seed in range(6):
            engine = OnlineQueryEngine(
                catalog, "t", OnlineConfig(num_trials=8, seed=seed, slack=0.0)
            )
            engine.run_to_completion(plan, 12)
            for bm in engine.metrics.batches:
                if bm.recovered:
                    assert bm.recovery_seconds > 0
                    found = True
        assert found
