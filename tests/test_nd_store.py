"""The append-only ND store: an undecided row's lifecycle through the
uncertain filter, compaction, and a reset taken while rows are live."""

import numpy as np

from repro.core.blocks import OnlineConfig, RuntimeContext
from repro.core.operators import DeltaBatch, ScanOp, UncertainFilterOp
from repro.core.operators.base import NDStore
from repro.core.values import UncertainValue, VariationRange
from repro.relational import Catalog, ColumnType, Relation, Schema
from repro.relational.expressions import Col, Comparison
from tests.conftest import Group, gid_column, publish_group

SCHEMA = Schema([("d", ColumnType.FLOAT), ("u", ColumnType.FLOAT)])
T = 4


def make_filter() -> tuple[RuntimeContext, UncertainFilterOp]:
    """``d > u``, with ``u`` the one group of block 1."""
    ctx = RuntimeContext(Catalog({}), "t", 100, OnlineConfig(num_trials=T))
    scan = ScanOp("t", SCHEMA)
    scan.uncertain_cols.add("u")
    return ctx, UncertainFilterOp(scan, [], [Comparison(">", Col("d"), Col("u"))], node_id=1)


def publish_u(ctx: RuntimeContext, point: float, lo: float, hi: float) -> None:
    uv = UncertainValue(point, np.full(T, point), vrange=VariationRange(lo, hi))
    publish_group(ctx, 1, ["v"], Group((0,), {"v": uv}, True))


def rows(ctx: RuntimeContext, d: list[float]) -> Relation:
    """Rows referencing block 1's group by gid, lineage sidecar included."""
    n = len(d)
    gids, lineage = gid_column(ctx, 1, [(0,)] * n, "v")
    return Relation._from_parts(
        SCHEMA, {"d": np.asarray(d, dtype=float), "u": gids}, np.ones(n), np.ones((n, T)),
        lineage={"u": lineage},
    )


def run(ctx: RuntimeContext, op: UncertainFilterOp, batch_no: int, d=()) -> DeltaBatch:
    ctx.batch_no = batch_no
    empty = op.empty(ctx)
    return op.process(DeltaBatch(rows(ctx, list(d)) if d else empty, empty), ctx)


def ds(rel: Relation) -> list[float]:
    return rel.columns["d"].tolist()


class TestLifecycle:
    def test_row_stays_nd_then_resolves_once(self):
        ctx, op = make_filter()
        publish_u(ctx, 4.0, 0.0, 10.0)
        out = run(ctx, op, 1, [5.0, 50.0])
        assert ds(out.certain) == [50.0]
        assert ds(out.volatile) == [5.0]
        run(ctx, op, 2)
        publish_u(ctx, 6.0, 0.0, 10.0)  # still undecided, currently false
        out = run(ctx, op, 3)
        assert len(out.certain) == 0 and len(out.volatile) == 0
        assert ds(op.nd_store.live_rows()) == [5.0]
        publish_u(ctx, 1.5, 1.0, 2.0)
        out = run(ctx, op, 4)
        assert ds(out.certain) == [5.0]
        assert len(out.volatile) == 0 and len(op.nd_store) == 0
        for batch_no in (5, 6):
            out = run(ctx, op, batch_no)
            assert len(out.certain) == 0 and len(out.volatile) == 0

    def test_volatile_carries_current_decisions(self):
        ctx, op = make_filter()
        publish_u(ctx, 4.0, 0.0, 10.0)
        run(ctx, op, 1, [3.0, 5.0])
        uv = UncertainValue(4.0, np.array([2.0, 4.0, 6.0, 8.0]), vrange=VariationRange(0.0, 10.0))
        publish_group(ctx, 1, ["v"], Group((0,), {"v": uv}, True))
        out = run(ctx, op, 2)
        assert ds(out.volatile) == [3.0, 5.0]
        assert out.volatile.mult.tolist() == [0.0, 1.0]
        assert out.volatile.trial_mults.tolist() == [[1, 0, 0, 0], [1, 1, 0, 0]]

    def test_checkpoint_while_live_restores_the_live_rows(self):
        ctx, op = make_filter()
        publish_u(ctx, 4.0, 0.0, 10.0)
        run(ctx, op, 1, [5.0, 50.0, 6.0])
        run(ctx, op, 2, [7.0])
        live = ds(op.nd_store.live_rows())
        third = run(ctx, op, 3)
        publish_u(ctx, 1.5, 1.0, 2.0)
        run(ctx, op, 4)
        assert len(op.nd_store) == 0
        # Recovery resets the operator and replays batches 1-2.
        op.reset()
        assert op.nd_store is None
        publish_u(ctx, 4.0, 0.0, 10.0)
        run(ctx, op, 1, [5.0, 50.0, 6.0])
        run(ctx, op, 2, [7.0])
        assert live == [5.0, 6.0, 7.0]
        assert ds(op.nd_store.live_rows()) == live
        again = run(ctx, op, 3)
        assert ds(again.volatile) == ds(third.volatile)
        assert np.array_equal(again.volatile.trial_mults, third.volatile.trial_mults)


class TestAppendOnly:
    def rel(self, xs) -> Relation:
        return Relation(Schema([("x", ColumnType.FLOAT)]), {"x": np.asarray(xs, dtype=float)})

    def test_compacts_only_when_dead_outnumber_live(self):
        rows = self.rel(range(6))
        store = NDStore(rows)
        half = store.advanced(np.array([True, False] * 3), self.rel([]))
        assert half.rows is rows and half.live.tolist() == [0, 2, 4]
        third = half.advanced(np.array([True, False, True]), self.rel([]))
        assert third.rows is not rows and third.live.tolist() == [0, 1]
        assert ds_x(third.live_rows()) == [0.0, 4.0]
        grown = third.advanced(np.array([True, True]), self.rel([9.0]))
        assert ds_x(grown.live_rows()) == [0.0, 4.0, 9.0]

    def test_never_written_in_place(self):
        store = NDStore(self.rel(range(4)))
        store.advanced(np.array([False, True, False, True]), self.rel([7.0]))
        assert store.live.tolist() == [0, 1, 2, 3]
        assert ds_x(store.live_rows()) == [0.0, 1.0, 2.0, 3.0]


def ds_x(rel: Relation) -> list[float]:
    return rel.columns["x"].tolist()
