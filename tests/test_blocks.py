"""The columnar lineage-block boundary: stable gids, arrays vs row view.

Three kinds of check, all count- or value-based so they repeat exactly:

* engine runs — in the default config and with OPT2 off, no lineage
  reference is resolved through an object: every classify
  of an ND store gathers by gid from the sidecar, and never over more
  distinct groups than the block has;
* hypothesis parity of the lazily materialised ``groups`` view against
  the arrays it is built from (tombstones, volatile-only groups, the
  scalar ``()`` group, empty outputs, keys not yet published);
* a state snapshot shares relation buffers yet restores any number of
  times to the same suffix, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import OnlineConfig, OnlineQueryEngine, classify
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
from repro.core.values import LineageRef
from repro.kernels import resolve as kresolve
from repro.relational import Catalog, ColumnType, Relation, Schema
from repro.relational.expressions import Col
from repro.storage.lineage import LineageColumn
from repro.workloads import CONVIVA_QUERIES, TPCH_QUERIES
from tests.conftest import output_from_groups
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
        counts = {"resolve": 0, "rowwise": 0, "gathers": 0}
        original_resolve = RuntimeContext.resolve
        original_cell = classify._resolve_cell
        original_gather = kresolve.resolve_column

        def resolve(self, ref):
            counts["resolve"] += 1
            return original_resolve(self, ref)

        def cell(*args):
            counts["rowwise"] += 1
            return original_cell(*args)

        def gather(lineage, ctx):
            counts["gathers"] += 1
            output = ctx.blocks[lineage.block_id]
            # Distinct cells behind one classify never exceed the block's
            # groups — whatever batch the rows were attached in.
            assert len(np.unique(lineage.gids)) <= len(output)
            return original_gather(lineage, ctx)

        monkeypatch.setattr(RuntimeContext, "resolve", resolve)
        monkeypatch.setattr(classify, "_resolve_cell", cell)
        monkeypatch.setattr(kresolve, "resolve_column", gather)

        engine = OnlineQueryEngine(
            catalogs[name],
            spec.streamed_table,
            # A seed with no range-integrity failure in these 12 batches:
            # a recovery words its violation through the row-wise sentinel
            # check (one ``resolve`` per flipped entity), by design.
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
                    refs = [
                        c for c, a in nd.rows.columns.items()
                        if a.dtype == object and isinstance(a[0], LineageRef)
                    ]
                    # The sidecar survives every append to the ND store.
                    assert refs and set(refs) <= set(nd.rows.lineage), op.label
        finally:
            session.close()
        assert counts["gathers"] > 0
        assert counts["resolve"] == 0
        assert counts["rowwise"] == 0


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
        assert list(out.groups) == [keys[g] for g in out.order.tolist()]
        assert len(out.groups) == len(out) == len(out.order)
        col = out.ucol("v")
        for key, group in out.groups.items():
            gid = out.gid(key)
            assert group is out.groups[key] is out.get(key)  # cached
            assert group.key == key
            assert group.certain == bool(out.certain[gid])
            assert group.member_status == MEMBER_TRUE
            assert group.member_point == bool(out.member_point[gid])
            assert np.array_equal(group.exist_in_trial(T), out.exist[gid])
            if out.key_cols:
                assert group.values["k"] == key[0]
            uv = group.values["v"]
            assert np.array_equal([uv.value], [col.point[gid]], equal_nan=True)
            assert np.array_equal(uv.trials, col.trials[gid], equal_nan=True)
            assert (uv.vrange.lo, uv.vrange.hi) == (col.lo[gid], col.hi[gid])
            assert uv.lineage == LineageRef(5, key, "v")
        for gid in later.tolist():
            assert out.get(keys[gid]) is None and keys[gid] not in out.groups
        assert out.get(("never",)) is None

    @fuzz
    @given(published_outputs())
    def test_gather_resolves_like_the_row_reference(self, case):
        out, later = case
        gids = np.concatenate([out.order, later, out.order[:1]])
        if not len(gids):
            return
        keys = out.index.keys
        refs = np.empty(len(gids), dtype=object)
        refs[:] = [LineageRef(5, keys[g], "v") for g in gids.tolist()]
        schema = Schema([("u", ColumnType.FLOAT)])
        with_sidecar = Relation._from_parts(
            schema, {"u": refs}, np.ones(len(gids)), None,
            lineage={"u": LineageColumn(5, "v", gids)},
        )
        # Without a lineage sidecar the kernel declines and evaluate_side
        # falls back to its general per-row loop: the reference.
        ctx = RuntimeContext(Catalog({}), "t", 100, OnlineConfig(num_trials=T))
        ctx.blocks[5] = out
        vec, ref = (
            classify.evaluate_side(Col("u"), rel, {"u"}, ctx)
            for rel in (with_sidecar, Relation(schema, {"u": refs}))
        )
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
        assert len(out) == 0 and list(out.groups) == []
        assert out.get((1,)) is None
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
        row = view.get((2,))
        assert row.values["k2"] == 2 and row.values["v"].value == 1.0
        assert row.values["v"].lineage == LineageRef(9, (2,), "v")
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
