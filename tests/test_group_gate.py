"""Group-gated semi-joins: Q18 folds each row once.

Q18's IN-subquery decides one membership per ``orderkey`` and the outer
aggregate groups by ``(custkey, orderkey)``, so the compiler drops the
uncertain join and the aggregate gates each group's existence by the
side view's current membership (``GroupGate``). These tests hold that
path to the Theorem-1 contract — every partial equals the batch engine
over the prefix ``D_i`` with each row weighted ``m_i``, the final equals
the batch engine and SQLite — and pin what the path no longer does.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines import run_batch
from repro.batching.partitioner import Partitioner
from repro.core import OnlineConfig, OnlineQueryEngine, UncertainValue
from repro.core.blocks import (
    MEMBER_FALSE,
    MEMBER_TRUE,
    MEMBER_UNKNOWN,
    RuntimeContext,
)
from repro.core.compiler import StreamPipelineUnit, compile_online
from repro.core.operators import (
    AggregateOp,
    GroupGate,
    ScanOp,
    UncertainJoinOp,
    iter_ops,
)
from repro.core.sentinels import MembershipSentinels
from repro.engine.shards import ShardedQueryEngine
from repro.metrics import BatchMetrics
from repro.relational import Catalog, relation_from_columns
from repro.relational.aggregates import sum_
from repro.relational.algebra import scan
from repro.relational.expressions import col
from repro.workloads import TPCH_QUERIES, generate_tpch
from repro.workloads.tpch import CUSTOMER_SCHEMA, LINEORDER_SCHEMA
from tests.conftest import KX_SCHEMA, Group, output_from_groups
from tests.sqlite_oracle import SQLiteOracle
from tests.test_shards import assert_cells_identical

Q18 = TPCH_QUERIES["Q18"]
BATCHES = 20
TRIALS = 20


@pytest.fixture(scope="module", params=[0.5, 2.0], ids=["scale0.5", "scale2"])
def catalog(request):
    return generate_tpch(scale=request.param, seed=42).catalog()


def _ops(plan, catalog):
    compiled = compile_online(plan, catalog, "lineorder")
    return [
        op
        for unit in compiled.units
        if isinstance(unit, StreamPipelineUnit)
        for op in iter_ops(unit.root_op)
    ]


def _points(rows, keys):
    """``(key..., value)`` per row, sorted; values as plain floats."""
    out = []
    for row in rows:
        values = [
            v.value if isinstance(v, UncertainValue) else v for v in row.values()
        ]
        out.append(tuple(values))
    return sorted(out, key=lambda r: r[: len(keys)])


def _assert_close(got, expected, context):
    assert len(got) == len(expected), f"{context}: {len(got)} rows != {len(expected)}"
    for a, b in zip(got, expected):
        assert a[:-1] == b[:-1], f"{context}: group {a[:-1]} != {b[:-1]}"
        assert math.isclose(a[-1], b[-1], rel_tol=1e-9), f"{context}: {a} != {b}"


def _q18_by_customer():
    """Q18 with ``orderkey`` dropped from the outer group key: the
    membership is per order, no longer per output group."""
    lineorder = scan("lineorder", LINEORDER_SCHEMA)
    big_orders = (
        lineorder.aggregate(["orderkey"], [sum_("quantity", "total_qty")])
        .select(col("total_qty") > 7500.0)
        .project([("orderkey", "orderkey")])
    )
    return (
        scan("lineorder", LINEORDER_SCHEMA)
        .join(big_orders.rename({"orderkey": "ok2"}), keys=[("orderkey", "ok2")])
        .join(scan("customer", CUSTOMER_SCHEMA), keys=["custkey"])
        .aggregate(["custkey"], [sum_("quantity", "sum_qty")])
    )


def _q18_variant(group_by, outer_filter=None):
    """Q18 whose outer aggregate groups by ``group_by`` (a superset of
    ``orderkey``) and whose outer stream is optionally filtered before
    the join: still gated, but the block's groups no longer line up 1:1
    with the side's, so block gids and side gids differ."""
    lineorder = scan("lineorder", LINEORDER_SCHEMA)
    big_orders = (
        lineorder.aggregate(["orderkey"], [sum_("quantity", "total_qty")])
        .select(col("total_qty") > 7500.0)
        .project([("orderkey", "orderkey")])
    )
    outer = scan("lineorder", LINEORDER_SCHEMA)
    if outer_filter is not None:
        outer = outer.select(outer_filter)
    return (
        outer.join(big_orders.rename({"orderkey": "ok2"}), keys=[("orderkey", "ok2")])
        .join(scan("customer", CUSTOMER_SCHEMA), keys=["custkey"])
        .aggregate(group_by, [sum_("quantity", "sum_qty")])
    )


GATED_VARIANTS = {
    "returnflag": (["custkey", "orderkey", "returnflag"], None),
    "filtered": (["custkey", "orderkey"], col("quantity") > 25.0),
    "orderkey_last": (["returnflag", "custkey", "orderkey"], col("quantity") > 10.0),
}


@pytest.fixture(scope="module")
def sqlite_q18(catalog):
    """Q18's answer from SQLite over the whole catalog, sorted."""
    return sorted(SQLiteOracle(catalog).query(Q18.plan))


def test_gate_sets_existence_not_values():
    """One batch through a gated aggregate against a hand-published side:
    a stably-in key exists everywhere and is settled, a stably-out or
    unpublished key nowhere, an unresolved key by the side's point and
    per-trial decisions; every group's sums are its rows' sums."""
    t = 4
    ctx = RuntimeContext(Catalog({}), "t", 8, OnlineConfig(num_trials=t, seed=1))
    rel = relation_from_columns(
        KX_SCHEMA, k=[0, 0, 1, 1, 2, 2, 3, 3], x=[0.0] * 8,
        y=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
    )
    ctx.begin_batch(1, rel, BatchMetrics(1))
    unresolved = np.array([True, False, True, False])
    ctx.blocks[7] = output_from_groups(7, ["k2"], ["k2"], [
        Group((0,), {"k2": 0}, True, MEMBER_TRUE, True),
        Group((1,), {"k2": 1}, False, MEMBER_FALSE, False),
        Group((2,), {"k2": 2}, False, MEMBER_UNKNOWN, True, unresolved),
    ], t, ctx.indexes[7])
    plan = scan("t", KX_SCHEMA).aggregate(["k"], [sum_("y", "sy")])
    op = AggregateOp(
        ScanOp("t", KX_SCHEMA), ["k"], plan.aggs, plan.output_schema({}),
        block_id=9, sample_weighted=True, gates=[GroupGate(7, ("k",))],
    )
    op.run(ctx)
    out = ctx.blocks[9]
    gids = out.probe([(0,), (1,), (2,), (3,)])
    assert out.certain[gids].tolist() == [True, False, False, False]
    assert out.member_point[gids].tolist() == [True, False, True, False]
    none = [False] * t
    assert out.exist[gids].tolist() == [[True] * t, none, unresolved.tolist(), none]
    assert out.ucol("sy").point[gids].tolist() == [3.0, 7.0, 11.0, 15.0]


class TestCompiledShape:
    def test_q18_gates_its_outer_aggregate(self, catalog):
        ops = _ops(Q18.plan, catalog)
        assert not any(isinstance(op, UncertainJoinOp) for op in ops)
        gated = [op for op in ops if isinstance(op, AggregateOp) and op.gates]
        assert len(gated) == 1
        assert gated[0].group_by == ["custkey", "orderkey"]
        assert [g.columns for g in gated[0].gates] == [("orderkey",)]

    @pytest.mark.parametrize("variant", sorted(GATED_VARIANTS))
    def test_variants_are_gated(self, variant, catalog):
        group_by, outer_filter = GATED_VARIANTS[variant]
        ops = _ops(_q18_variant(group_by, outer_filter), catalog)
        assert not any(isinstance(op, UncertainJoinOp) for op in ops)
        gated = [op for op in ops if isinstance(op, AggregateOp) and op.gates]
        assert [[g.columns for g in op.gates] for op in gated] == [[("orderkey",)]]

    def test_outer_key_without_orderkey_keeps_the_nd_path(self, catalog):
        ops = _ops(_q18_by_customer(), catalog)
        assert any(isinstance(op, UncertainJoinOp) for op in ops)
        assert not any(isinstance(op, AggregateOp) and op.gates for op in ops)

    @pytest.mark.parametrize("name", sorted(set(TPCH_QUERIES) - {"Q18"}))
    def test_no_other_tpch_query_is_gated(self, name, catalog):
        spec = TPCH_QUERIES[name]
        compiled = compile_online(spec.plan, catalog, spec.streamed_table)
        for unit in compiled.units:
            if isinstance(unit, StreamPipelineUnit):
                for op in iter_ops(unit.root_op):
                    assert not (isinstance(op, AggregateOp) and op.gates), name


class TestTheorem1:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_partials_equal_the_scaled_prefix(self, catalog, sqlite_q18, seed):
        """Each partial's points equal the batch engine over the prefix
        ``D_i`` with every row weighted ``m_i``; the final equals the
        batch engine and SQLite."""
        engine = OnlineQueryEngine(
            catalog, "lineorder", OnlineConfig(num_trials=TRIALS, seed=seed)
        )
        partials = list(engine.run(Q18.plan, BATCHES))
        streamed = catalog.get("lineorder")
        indices = Partitioner(seed=seed).partition_indices(len(streamed), BATCHES)
        keys = ["custkey", "orderkey"]
        for i, partial in enumerate(partials, start=1):
            rows = np.sort(np.concatenate(indices[:i]))
            prefix = streamed.take(rows).scale(len(streamed) / len(rows))
            expected = run_batch(Q18.plan, catalog.replace("lineorder", prefix))
            _assert_close(
                _points(partial.rows, keys),
                _points(expected.relation.iter_rows(), keys),
                f"seed {seed} batch {i}",
            )
        final = _points(partials[-1].rows, keys)
        _assert_close(final, sqlite_q18, f"seed {seed} vs SQLite")

    @pytest.mark.parametrize("variant", sorted(GATED_VARIANTS))
    def test_gated_variants_equal_the_scaled_prefix(self, variant, catalog):
        """Gated plans whose block gids differ from the side's gids (more
        output groups than orders, or orders the filter drops): every
        partial and the final still equal the batch engine."""
        group_by, outer_filter = GATED_VARIANTS[variant]
        plan = _q18_variant(group_by, outer_filter)
        seed = 4
        engine = OnlineQueryEngine(
            catalog, "lineorder", OnlineConfig(num_trials=TRIALS, seed=seed)
        )
        partials = list(engine.run(plan, BATCHES))
        streamed = catalog.get("lineorder")
        indices = Partitioner(seed=seed).partition_indices(len(streamed), BATCHES)
        for i, partial in enumerate(partials, start=1):
            rows = np.sort(np.concatenate(indices[:i]))
            prefix = streamed.take(rows).scale(len(streamed) / len(rows))
            expected = run_batch(plan, catalog.replace("lineorder", prefix))
            _assert_close(
                _points(partial.rows, group_by),
                _points(expected.relation.iter_rows(), group_by),
                f"{variant} batch {i}",
            )
        final = run_batch(plan, catalog).relation
        _assert_close(
            _points(partials[-1].rows, group_by),
            _points(final.iter_rows(), group_by),
            f"{variant} final",
        )

    def test_nd_path_variant_equals_the_batch_engine(self, catalog):
        plan = _q18_by_customer()
        final = OnlineQueryEngine(
            catalog, "lineorder", OnlineConfig(num_trials=TRIALS, seed=5)
        ).run_to_completion(plan, BATCHES)
        expected = run_batch(plan, catalog).relation
        _assert_close(
            _points(final.rows, ["custkey"]),
            _points(expected.iter_rows(), ["custkey"]),
            "custkey-only Q18",
        )


class TestNoNdWork:
    def test_no_recomputation_and_no_sentinel(self, catalog, monkeypatch):
        recorded = []
        real = MembershipSentinels.record_gids

        def counting(self, *args, **kwargs):
            recorded.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(MembershipSentinels, "record_gids", counting)
        engine = OnlineQueryEngine(
            catalog, "lineorder", OnlineConfig(num_trials=TRIALS, seed=7)
        )
        for _ in engine.run(Q18.plan, BATCHES):
            pass
        assert sum(b.recomputed_tuples for b in engine.metrics.batches) == 0
        assert engine.metrics.num_recoveries == 0
        assert recorded == []


@pytest.mark.parametrize("variant", ["Q18", *sorted(GATED_VARIANTS)])
def test_two_shards_bit_identical_to_serial(variant, catalog):
    """A gated plan under the sharded entry point is the serial run, in
    the serial row order."""
    plan = Q18.plan if variant == "Q18" else _q18_variant(*GATED_VARIANTS[variant])
    config = dict(num_trials=TRIALS, seed=9)
    serial = OnlineQueryEngine(catalog, "lineorder", OnlineConfig(**config))
    sharded = ShardedQueryEngine(catalog, "lineorder", OnlineConfig(shards=2, **config))
    for a, b in zip(serial.run(plan, 8), sharded.run(plan, 8), strict=True):
        assert_cells_identical(a.rows, b.rows, f"batch {a.batch_no}")
