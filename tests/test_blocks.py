"""The columnar lineage-block boundary: stable gids, arrays vs row view.

Three kinds of check, all count- or value-based so they repeat exactly:

* engine runs — in the default config and with OPT2 off, an uncertain
  column is its gids: every classify of an ND store gathers by gid, never
  over more distinct groups than the block has, and no ND store holds an
  object column;
* hypothesis parity of the rows the one row builder delivers, and of
  gathers by gid against a row-wise reference, with the arrays they read
  (tombstones, volatile-only groups, the scalar ``()`` group, empty
  outputs, keys not yet published);
* a state snapshot shares relation buffers yet restores any number of
  times to the same suffix, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import OnlineConfig, OnlineQueryEngine, classify, smallplan
from repro.core.blocks import (
    MEMBER_TRUE,
    MEMBER_UNKNOWN,
    BlockOutput,
    GroupIndex,
    RuntimeContext,
    UColumn,
)
from repro.core.operators import iter_ops
from repro.core.smallplan import SmallBlockLeaf, SmallPlanUnit, SmallRename
from repro.kernels import resolve as kresolve
from repro.relational import Catalog, ColumnType, Relation, Schema
from repro.relational.expressions import Col
from repro.storage.columns import CODE_DTYPE
from repro.storage.lineage import LineageColumn
from repro.workloads import CONVIVA_QUERIES, TPCH_QUERIES
from tests.conftest import group_rows, output_from_groups, rowwise_side
from tests.test_kernels import assert_partials_identical

fuzz = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

T = 4


# ---------------------------------------------------------------------------
# Engine runs: lineage is the gid, end to end.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def catalogs(tpch_small, conviva_small):
    return {"Q20": tpch_small.catalog(), "C9": conviva_small.catalog()}


class TestLineageIsTheGid:
    @pytest.mark.parametrize("lazy_lineage", [True, False], ids=["default", "opt2-off"])
    @pytest.mark.parametrize("name", ["Q20", "C9"])
    def test_no_object_resolution_on_the_vectorized_path(
        self, name, lazy_lineage, catalogs, monkeypatch
    ):
        spec = {**TPCH_QUERIES, **CONVIVA_QUERIES}[name]
        gathers = []
        original_gather = kresolve.resolve_column

        def gather(lineage, gids, ctx):
            gathers.append(len(gids))
            output = ctx.blocks[lineage.block_id]
            # Distinct cells behind one classify never exceed the block's
            # groups — whatever batch the rows were attached in.
            assert len(np.unique(gids)) <= len(output)
            return original_gather(lineage, gids, ctx)

        monkeypatch.setattr(kresolve, "resolve_column", gather)

        engine = OnlineQueryEngine(
            catalogs[name],
            spec.streamed_table,
            OnlineConfig(num_trials=8, seed=5, lazy_lineage=lazy_lineage),
        )
        session = engine.open_run(spec.plan, 12)
        ops = [
            op
            for unit in session.compiled.units
            if hasattr(unit, "root_op")
            for op in iter_ops(unit.root_op)
        ]
        try:
            for batch_no in range(1, 13):
                assert not session.process(batch_no).metrics.recovered
                for op in ops:
                    nd = op.state.get("nd")
                    if nd is None or not len(nd):
                        continue
                    uncertain = op.uncertain_cols & set(nd.rows.columns)
                    # Every uncertain column of the store is its gids, and
                    # its sidecar survives every append to the store.
                    assert uncertain and uncertain <= set(nd.rows.lineage), op.label
                    for name in uncertain:
                        assert nd.rows.columns[name].dtype == CODE_DTYPE, (op.label, name)
        finally:
            session.close()
        assert sum(gathers) > 0


# ---------------------------------------------------------------------------
# Arrays vs the lazy row view.
# ---------------------------------------------------------------------------


@st.composite
def published_outputs(draw):
    """A columnar output as ``AggregateOp._publish`` fills it, plus the
    number of index keys it published."""
    scalar = draw(st.booleans())
    index = GroupIndex()
    if scalar:
        keys = [()]
    else:
        keys = [(k,) for k in draw(st.lists(st.integers(0, 9), unique=True, max_size=7))]
    gids = index.add(keys)
    # Keys the index knows but this batch did not publish.
    later = index.add([(100 + i,) for i in range(draw(st.integers(0, 2)))])
    g = len(index)
    order = draw(st.permutations(gids.tolist()))
    order = np.asarray(order, dtype=np.intp)
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    certain = np.zeros(g, dtype=bool)
    member_point = np.zeros(g, dtype=bool)
    exist = np.zeros((g, T), dtype=bool)
    point = np.full(g, np.nan)
    trials = np.full((g, T), np.nan)
    lo = np.full(g, -np.inf)
    hi = np.full(g, np.inf)
    for gid in gids.tolist():
        kind = draw(st.sampled_from(["certain", "volatile", "tombstone"]))
        if kind == "tombstone":
            continue  # NaN values, empty existence
        certain[gid] = kind == "certain"
        exist[gid] = True if certain[gid] else draw(
            st.lists(st.booleans(), min_size=T, max_size=T)
        )
        member_point[gid] = certain[gid] or draw(st.booleans())
        point[gid] = draw(finite)
        trials[gid] = draw(st.lists(finite, min_size=T, max_size=T))
        lo[gid] = min(point[gid], trials[gid].min()) - 1.0
        hi[gid] = max(point[gid], trials[gid].max()) + 1.0
    out = BlockOutput(5, [] if scalar else ["k"], ["v"], index)
    out.fill(
        order, certain, np.full(g, MEMBER_TRUE, dtype=np.int8), member_point,
        exist, {"v": UColumn(point, trials, lo, hi)},
    )
    return out, later


class TestRowViewMatchesArrays:
    @fuzz
    @given(published_outputs())
    def test_groups_view(self, case):
        out, later = case
        keys = out.index.keys
        frame = smallplan._block_frame(out, out.order)
        rows = frame.rows()
        assert len(rows) == len(out) == len(out.order)
        col = out.ucol("v")
        for gid, row in zip(out.order.tolist(), rows):
            if out.key_cols:
                assert row["k"] == keys[gid][0]
            uv = row["v"]
            assert np.array_equal([uv.value], [col.point[gid]], equal_nan=True)
            assert np.array_equal(uv.trials, col.trials[gid], equal_nan=True)
            assert (uv.vrange.lo, uv.vrange.hi) == (col.lo[gid], col.hi[gid])
        assert frame.certain.tolist() == out.certain[out.order].tolist()
        assert frame.point.tolist() == out.member_point[out.order].tolist()
        for gid in later.tolist():
            assert out.probe([keys[gid]]).tolist() == [-1]
        assert out.probe([("never",)]).tolist() == [-1]

    @fuzz
    @given(published_outputs())
    def test_gather_resolves_like_the_row_reference(self, case):
        out, later = case
        gids = np.concatenate([out.order, later, out.order[:1]]).astype(CODE_DTYPE)
        if not len(gids):
            return
        schema = Schema([("u", ColumnType.FLOAT)])
        rel = Relation._from_parts(
            schema, {"u": gids}, np.ones(len(gids)), None,
            lineage={"u": LineageColumn(5, "v")},
        )
        ctx = RuntimeContext(Catalog({}), "t", 100, OnlineConfig(num_trials=T))
        ctx.blocks[5] = out
        vec = classify.evaluate_side(Col("u"), rel, {"u"}, ctx)
        ref = rowwise_side(Col("u"), rel, {"u"}, ctx)
        # Keys the index handed out after this publish are PENDING.
        assert vec.pending.tolist() == [g in later.tolist() for g in gids.tolist()]
        assert np.array_equal(vec.pending, ref.pending)
        for name in ("lo", "hi", "point"):
            assert np.array_equal(
                getattr(vec, name), getattr(ref, name), equal_nan=True
            ), name
        assert np.array_equal(vec.trials, ref.trials, equal_nan=True)

    def test_empty_output(self):
        out = BlockOutput(5, ["k"], ["v"])
        assert len(out) == 0 and group_rows(out) == {}
        assert smallplan._block_frame(out, out.order).rows() == []
        assert out.probe([(1,)]).tolist() == [-1]
        assert out.estimated_bytes() == 0

    def test_row_built_output_with_nothing_published(self):
        index = GroupIndex()
        index.add([(1,), (2,)])
        out = output_from_groups(5, ["k"], ["v", "w"], [], T, index)
        assert len(out) == 0 and out.absent(np.array([0, 1])).all()
        # Either reading of a column nobody published is filler.
        assert np.isnan(out.ucol("v").point).all() and out.ucol("v").trials.shape == (2, T)
        assert out.det_values("w", np.dtype(np.int64)).tolist() == [0, 0]

    def test_passthrough_view_is_an_array_relabel(self):
        ctx = RuntimeContext(Catalog({}), "t", 100, OnlineConfig(num_trials=T))
        index = ctx.indexes[5]
        gids = index.add([(1,), (2,), (3,)])
        g = len(index)
        leaf = BlockOutput(5, ["k"], ["v"], index)
        leaf.fill(
            gids,
            np.array([True, False, False]),
            np.full(g, MEMBER_TRUE, dtype=np.int8),
            np.array([True, True, False]),
            np.array([[True] * T, [True, False, True, False], [False] * T]),
            {"v": UColumn(np.arange(3.0), np.ones((g, T)), np.zeros(g), np.ones(g) * 9)},
        )
        ctx.blocks[5] = leaf
        unit = SmallPlanUnit(
            SmallRename(SmallBlockLeaf(5), {"k": "k2"}),
            publish_id=9, key_cols=["k2"], value_cols=["v"],
        )
        unit.run(ctx)
        view = ctx.blocks[9]
        assert view.index is leaf.index
        assert view.ucol("v") is leaf.ucol("v") and view.exist is leaf.exist
        assert view.member_status.tolist() == [MEMBER_TRUE, MEMBER_UNKNOWN, MEMBER_UNKNOWN]
        row = group_rows(view)[(2,)]
        assert row.values["k2"] == 2 and row.values["v"].value == 1.0
        assert not row.certain and row.member_status == MEMBER_UNKNOWN


# ---------------------------------------------------------------------------
# Resetting the operators rewinds a run exactly, repeatedly.
# ---------------------------------------------------------------------------


class TestSnapshotSharing:
    def test_restore_twice_after_further_batches_reproduces_the_suffix(
        self, tpch_small
    ):
        spec = TPCH_QUERIES["Q20"]
        engine = OnlineQueryEngine(
            tpch_small.catalog(),
            spec.streamed_table,
            OnlineConfig(num_trials=8, seed=7),
        )
        session = engine.open_run(spec.plan, 12)
        try:
            ctx = session.ctx
            for batch_no in range(1, 7):
                session.process(batch_no)
            runs = []
            for attempt in range(3):
                if attempt:
                    # Reset rebuilds the just-opened state however far the
                    # run got: rewind and redo the prefix.
                    session.compiled.reset()
                    ctx.reset_for_replay()
                    for batch_no in range(1, 7):
                        session.process(batch_no)
                runs.append([session.process(b) for b in range(7, 13)])
        finally:
            session.close()
        assert_partials_identical(runs[1], runs[0], "first reset")
        assert_partials_identical(runs[2], runs[0], "second reset")
