"""Bit-identity tests for the kernel layer (repro.kernels).

Each kernel is checked against a row-wise reference written in the
tests (``tests.conftest.rowwise_side``, the per-row ``UncertainValue``
evaluation of a comparison side; brute-force staircases here); the
contract is *bit-identical* output, not approximate equality. These tests pin each kernel on hand-picked edge cases; the
property suite (tests/test_properties.py) covers randomized inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import classify
from repro.core.blocks import (
    MEMBER_FALSE,
    MEMBER_TRUE,
    MEMBER_UNKNOWN,
    GroupIndex,
    OnlineConfig,
    RuntimeContext,
)
from repro.core.operators.base import SpineOp, StateRule, TagRule
from repro.core.operators.join import UncertainJoinOp
from repro.core.sentinels import SentinelStore
from repro.core.values import UncertainValue, VariationRange
from repro.errors import RangeIntegrityError
from repro.kernels.codec import factorize_keys, recode_subset
from repro.kernels.holistic import (
    grouped_indices,
    weighted_quantile,
    weighted_quantile_trials,
)
from repro.kernels.joins import SideIndex, _join_trials, vectorized_join
from repro.kernels.stats import STATS
from repro.relational import Catalog, ColumnType, Relation, Schema, relation_from_columns
from repro.relational.aggregates import AGG_FUNCTIONS, AggregateFunction, Median, Quantile
from repro.relational.expressions import Arith, Col, Comparison, col, lit
from repro.kernels import resolve as kresolve
from repro.storage.columns import CODE_DTYPE
from repro.storage.lineage import LineageColumn
from tests.conftest import (
    Group,
    gid_column,
    group_rows,
    output_from_groups,
    publish_group,
    rowwise_side,
)


def make_ctx(t=4):
    ctx = RuntimeContext(Catalog({}), "t", 100, OnlineConfig(num_trials=t))
    ctx.batch_no = 1
    return ctx


def reference_codes(rel, names):
    """The dict-based reference the codec must reproduce."""
    mapping, keys = {}, []
    keyed = rel.key_tuples(list(names)) if names else [()] * len(rel)
    codes = np.empty(len(rel), dtype=np.intp)
    for i, key in enumerate(keyed):
        gid = mapping.get(key)
        if gid is None:
            gid = len(keys)
            mapping[key] = gid
            keys.append(key)
        codes[i] = gid
    return keys, codes


def keys_equal(a, b):
    """Key-tuple list equality, NaN-aware (NaN keys group by identity in
    both paths, so positionally-matching NaNs are the same group)."""
    if len(a) != len(b):
        return False
    for ka, kb in zip(a, b):
        if len(ka) != len(kb):
            return False
        for va, vb in zip(ka, kb):
            if type(va) is not type(vb):
                return False
            if isinstance(va, float) and np.isnan(va) and np.isnan(vb):
                continue
            if va != vb:
                return False
    return True


class TestKeyCodec:
    def check(self, rel, names):
        kc = factorize_keys(rel, names)
        ref_keys, ref_codes = reference_codes(rel, names)
        # Keys must be value- and type-interchangeable with the reference's.
        assert keys_equal(kc.keys, ref_keys)
        assert np.array_equal(kc.codes, ref_codes)
        return kc

    def rel(self, **cols):
        names = list(cols)
        types = []
        for name in names:
            sample = cols[name][0] if len(cols[name]) else 0
            if isinstance(sample, str):
                types.append((name, ColumnType.STRING))
            elif isinstance(sample, float):
                types.append((name, ColumnType.FLOAT))
            else:
                types.append((name, ColumnType.INT))
        return relation_from_columns(Schema(types), **cols)

    def test_multi_column_int_keys(self):
        rel = self.rel(a=[3, 1, 3, 1, 2, 3], b=[0, 1, 0, 1, 0, 1])
        self.check(rel, ["a", "b"])

    def test_single_column(self):
        self.check(self.rel(a=[5, 5, 2, 9, 2]), ["a"])

    def test_string_keys(self):
        self.check(self.rel(s=["x", "y", "x", "z", "y"]), ["s"])

    def test_empty_relation(self):
        kc = self.check(self.rel(a=[]), ["a"])
        assert kc.num_keys == 0

    def test_single_row(self):
        self.check(self.rel(a=[7], b=[1]), ["a", "b"])

    def test_scalar_key_no_columns(self):
        rel = self.rel(a=[1, 2, 3])
        kc = factorize_keys(rel, [])
        assert kc.keys == [()]
        assert np.array_equal(kc.codes, np.zeros(3, dtype=np.intp))
        # Zero rows -> zero keys (reference derives keys from rows).
        assert factorize_keys(self.rel(a=[]), []).keys == []

    def test_nan_keys_fall_back_to_dict(self):
        # np.unique collapses NaNs; dict keys treat every NaN as distinct.
        rel = self.rel(f=[1.0, float("nan"), 1.0, float("nan")])
        self.check(rel, ["f"])

    def test_unorderable_object_keys_fall_back(self):
        schema = Schema([("o", ColumnType.STRING)])
        vals = np.empty(4, dtype=object)
        vals[0], vals[1], vals[2], vals[3] = "a", None, "a", None
        rel = Relation(schema, {"o": vals})
        self.check(rel, ["o"])

    def test_memoized_per_relation(self):
        rel = self.rel(a=[1, 2, 1])
        STATS.reset()
        first = factorize_keys(rel, ["a"])
        second = factorize_keys(rel, ["a"])
        assert first is second
        snap = STATS.snapshot()
        assert snap["codec_misses"] == 1 and snap["codec_hits"] == 1

    def test_recode_subset_matches_masked_reference(self):
        rel = self.rel(a=[3, 1, 3, 2, 1, 2, 3])
        kc = factorize_keys(rel, ["a"])
        mask = np.array([False, True, True, False, True, True, True])
        keys, codes = recode_subset(kc, mask)
        ref_keys, ref_codes = reference_codes(rel.filter(mask), ["a"])
        assert keys == ref_keys
        assert np.array_equal(codes, ref_codes)

    def test_recode_subset_empty(self):
        kc = factorize_keys(self.rel(a=[1, 2]), ["a"])
        keys, codes = recode_subset(kc, np.zeros(2, dtype=bool))
        assert keys == [] and len(codes) == 0


def _sides(seed=0, n_left=40, n_right=12):
    rng = np.random.default_rng(seed)
    left = relation_from_columns(
        Schema([("k", ColumnType.INT), ("x", ColumnType.FLOAT)]),
        k=rng.integers(0, 8, n_left),
        x=rng.normal(0, 1, n_left),
    )
    right = relation_from_columns(
        Schema([("k2", ColumnType.INT), ("v", ColumnType.FLOAT)]),
        k2=rng.integers(0, 8, n_right),
        v=rng.normal(0, 1, n_right),
    )
    return left, right


def join_relations(
    left: Relation, right: Relation, keys: list[tuple[str, str]]
) -> Relation:
    """Brute-force reference for ``vectorized_join``: a dict over the right
    side's key tuples, walked row by row from the left (cross join when
    ``keys`` is empty). Multiplicities multiply (Appendix A); trial
    weights come from the kernel module's ``_join_trials``."""
    if not keys:
        li = np.repeat(np.arange(len(left)), len(right))
        ri = np.tile(np.arange(len(right)), len(left))
    else:
        index: dict[tuple, list[int]] = {}
        for j, key in enumerate(right.key_tuples([rk for _, rk in keys])):
            index.setdefault(key, []).append(j)
        pairs = [
            (i, j)
            for i, key in enumerate(left.key_tuples([lk for lk, _ in keys]))
            for j in index.get(key, ())
        ]
        li = np.array([i for i, _ in pairs], dtype=np.intp)
        ri = np.array([j for _, j in pairs], dtype=np.intp)
    drop = {rk for _, rk in keys}
    kept_right = [c for c in right.schema if c.name not in drop]
    cols = {c.name: left.columns[c.name][li] for c in left.schema}
    cols.update({c.name: right.columns[c.name][ri] for c in kept_right})
    lm, rm = left.mult[li], right.mult[ri]
    return Relation(
        Schema(list(left.schema.columns) + kept_right),
        cols,
        lm * rm,
        _join_trials(left, right, li, ri, lm, rm),
    )


def assert_rel_identical(a: Relation, b: Relation):
    assert a.schema.names == b.schema.names
    for name in a.schema.names:
        assert np.array_equal(a.columns[name], b.columns[name]), name
    assert np.array_equal(a.mult, b.mult)
    if a.trial_mults is None:
        assert b.trial_mults is None
    else:
        assert np.array_equal(a.trial_mults, b.trial_mults)


class TestVectorizedJoin:
    def test_matches_reference_exactly(self):
        left, right = _sides()
        ref = join_relations(left, right, [("k", "k2")])
        out = vectorized_join(left, right, [("k", "k2")])
        assert_rel_identical(out, ref)

    def test_with_trial_mults(self):
        left, right = _sides(seed=3)
        rng = np.random.default_rng(9)
        left = left.with_mult(left.mult, rng.poisson(1.0, (len(left), 5)).astype(float))
        ref = join_relations(left, right, [("k", "k2")])
        out = vectorized_join(left, right, [("k", "k2")])
        assert_rel_identical(out, ref)

    def test_prebuilt_index(self):
        left, right = _sides(seed=5)
        index = SideIndex(right, ["k2"])
        out = vectorized_join(left, right, [("k", "k2")], index)
        assert_rel_identical(out, join_relations(left, right, [("k", "k2")]))

    def test_empty_left(self):
        left, right = _sides()
        left = left.filter(np.zeros(len(left), dtype=bool))
        assert_rel_identical(
            vectorized_join(left, right, [("k", "k2")]),
            join_relations(left, right, [("k", "k2")]),
        )

    def test_empty_right(self):
        left, right = _sides()
        right = right.filter(np.zeros(len(right), dtype=bool))
        assert_rel_identical(
            vectorized_join(left, right, [("k", "k2")]),
            join_relations(left, right, [("k", "k2")]),
        )

    def test_cross_join_delegates(self):
        left, right = _sides(n_left=4, n_right=3)
        assert_rel_identical(
            vectorized_join(left, right, []), join_relations(left, right, [])
        )

    def test_no_match_keys(self):
        left, right = _sides()
        right = Relation(
            right.schema,
            {"k2": right.columns["k2"] + 100, "v": right.columns["v"]},
            right.mult,
            right.trial_mults,
        )
        assert_rel_identical(
            vectorized_join(left, right, [("k", "k2")]),
            join_relations(left, right, [("k", "k2")]),
        )


def _view(t=4):
    groups = []
    statuses = [
        (0, MEMBER_TRUE, True, True, None),
        (1, MEMBER_FALSE, True, False, None),
        (2, MEMBER_UNKNOWN, True, True, np.array([True, False, True, False])),
        (3, MEMBER_UNKNOWN, False, False, np.array([False, False, True, True])),
        (4, MEMBER_TRUE, False, True, np.array([True, True, False, True])),
    ]
    for k, status, certain, point, exist in statuses:
        uv = UncertainValue(float(k), np.full(t, float(k)), VariationRange(k - 1.0, k + 1.0))
        groups.append(
            Group(
                (k,), {"ax": uv, "lbl": k * 10}, certain,
                member_status=status, member_point=point, exist_trials=exist,
            )
        )
    return output_from_groups(7, ["k2"], ["ax", "lbl"], groups, t)


class TestBlockOutputArrays:
    """The gid-indexed arrays against the groups they were stacked from."""

    def test_status_codes_align_with_classify(self):
        assert MEMBER_TRUE == classify.TRUE
        assert MEMBER_FALSE == classify.FALSE
        assert MEMBER_UNKNOWN == classify.UNKNOWN

    def test_probe_matches_view_get(self):
        view = _view()
        keys = [(0,), (99,), (3,), (2,)]
        assert view.probe(keys).tolist() == [0, -1, 3, 2]
        for key, gid in zip(keys, view.probe(keys)):
            if gid >= 0:
                assert view.index.keys[gid] == key

    def test_join_status_matches_group_flags(self):
        view = _view()
        for key, group in group_rows(view).items():
            gid = view.probe([key])[0]
            if group.certain and group.member_status == MEMBER_TRUE:
                assert view.join_status[gid] == classify.TRUE
            elif group.member_status == MEMBER_FALSE:
                assert view.join_status[gid] == classify.FALSE
            else:
                assert view.join_status[gid] == classify.UNKNOWN
            assert view.member_point[gid] == group.member_point

    def test_exist_matrix(self):
        view = _view()
        for key, group in group_rows(view).items():
            assert np.array_equal(view.exist[view.probe([key])[0]], group.exist_in_trial(4))

    def test_columns_stacked_from_rows(self):
        view = _view()
        col = view.ucol("ax")
        assert view.ucol("ax") is col
        for k in range(5):
            gid = view.probe([(k,)])[0]
            assert col.point[gid] == float(k)
            assert np.array_equal(col.trials[gid], np.full(4, float(k)))
            assert (col.lo[gid], col.hi[gid]) == (k - 1.0, k + 1.0)
        assert view.det_values("lbl", np.dtype(np.int64)).tolist() == [
            0, 10, 20, 30, 40
        ]
        assert view.det_values("k2", np.dtype(np.int64)).tolist() == [0, 1, 2, 3, 4]

    def test_gids_survive_republish_in_another_order(self):
        first = _view()
        groups = group_rows(first)
        again = output_from_groups(
            7, ["k2"], ["ax", "lbl"], reversed(list(groups.values())), 4, first.index,
        )
        assert list(group_rows(again)) == list(reversed(list(groups)))
        keys = list(groups)
        assert again.probe(keys).tolist() == first.probe(keys).tolist()


class _StubChild(SpineOp):
    tag_rule = TagRule()
    state_rule = StateRule()


class TestAttachCoded:
    """Regression: vectorized attach equals the per-row reference fills."""

    def make_op(self):
        stream_schema = Schema([("k", ColumnType.INT), ("x", ColumnType.FLOAT)])
        out_schema = Schema(
            [
                ("k", ColumnType.INT),
                ("x", ColumnType.FLOAT),
                ("ax", ColumnType.FLOAT),
                ("lbl", ColumnType.INT),
            ]
        )
        child = _StubChild("src", stream_schema, set())
        return UncertainJoinOp(
            child, 7, ["k"], [("ax", True), ("lbl", False)], out_schema, 1
        )

    def stream(self, keys):
        return relation_from_columns(
            Schema([("k", ColumnType.INT), ("x", ColumnType.FLOAT)]),
            k=keys,
            x=[float(i) for i in range(len(keys))],
        )

    def test_attach_equality(self):
        op = self.make_op()
        view = _view()
        rel = self.stream([0, 2, 4, 0, 3])
        gids = view.probe([(k,) for k in rel.columns["k"].tolist()])
        out = op._attach_coded(rel, view, gids)
        # The uncertain column's cells are the gids; the plain one holds
        # each row's group value, as a row-by-row fill would.
        groups = group_rows(view)
        assert out.columns["ax"].dtype == CODE_DTYPE
        assert out.columns["ax"].tolist() == gids.tolist()
        assert out.lineage == {"ax": LineageColumn(7, "ax")}
        assert out.schema.names == ["k", "x", "ax", "lbl"]
        assert out.columns["lbl"].tolist() == [
            groups[(k,)].values["lbl"] for k in rel.columns["k"].tolist()
        ]
        assert out.columns["lbl"].dtype == np.int64
        assert np.array_equal(out.mult, rel.mult)

    def test_attach_empty(self):
        op = self.make_op()
        out = op._attach_coded(self.stream([]), None, np.empty(0, dtype=np.intp))
        assert out.schema.names == ["k", "x", "ax", "lbl"]
        assert [out.columns[n].dtype for n in ("ax", "lbl")] == [CODE_DTYPE, np.int64]
        assert all(len(out.columns[name]) == 0 for name in out.schema.names)
        assert out.lineage == {"ax": LineageColumn(7, "ax")}


def publish_block(ctx, block, key, value, trials, lo, hi, colname="v"):
    uv = UncertainValue(value, np.asarray(trials, dtype=float), VariationRange(lo, hi))
    publish_group(ctx, block, [colname], Group(key, {colname: uv}, True))


class TestResolveKernel:
    """kernels.resolve vs the row-wise reference (``rowwise_side``)."""

    SCHEMA = Schema([("d", ColumnType.FLOAT), ("u", ColumnType.FLOAT)])

    def rel(self, ctx, d_values, keys):
        """Rows ``d`` whose ``u`` references group ``(k,)`` of block 1 by
        gid, as the uncertain join attaches them."""
        gids, lineage = gid_column(ctx, 1, [(k,) for k in keys], "v")
        return Relation._from_parts(
            self.SCHEMA, {"d": np.asarray(d_values, dtype=float), "u": gids},
            np.ones(len(gids)), None, lineage={"u": lineage},
        )

    def context(self, publish_keys=(0, 1), t=4):
        ctx = make_ctx(t=t)
        for k in publish_keys:
            publish_block(
                ctx, 1, (k,), 10.0 + k, [10.0 + k + j * 0.5 for j in range(t)],
                8.0 + k, 12.0 + k,
            )
        return ctx

    def assert_sides_equal(self, expr, d_values, keys, ctx=None, t=4):
        ctx = ctx if ctx is not None else self.context(t=t)
        rel = self.rel(ctx, d_values, keys)
        vec = classify.evaluate_side(expr, rel, {"u"}, ctx)
        ref = rowwise_side(expr, rel, {"u"}, ctx)
        assert np.array_equal(vec.lo, ref.lo, equal_nan=True)
        assert np.array_equal(vec.hi, ref.hi, equal_nan=True)
        assert np.array_equal(vec.point, ref.point, equal_nan=True)
        assert np.array_equal(
            np.asarray(vec.trial_matrix(t)), np.asarray(ref.trial_matrix(t)),
            equal_nan=True,
        )
        assert np.array_equal(vec.pending, ref.pending)
        return vec

    def test_bare_column(self):
        self.assert_sides_equal(Col("u"), [0.0, 0.0, 0.0], [0, 1, 0])

    def test_arith_with_literal(self):
        for expr in (Col("u") * 0.5 + lit(1.0), Col("u") - col("d"), col("d") * Col("u")):
            self.assert_sides_equal(expr, [2.0, 4.0], [0, 1])

    def test_division_range_crossing_zero(self):
        ctx = self.context((0,))
        publish_block(ctx, 1, (9,), 0.5, [0.5] * 4, -1.0, 2.0)
        vec = self.assert_sides_equal(col("d") / Col("u"), [6.0, 6.0], [0, 9], ctx)
        assert vec.lo[1] == -np.inf and vec.hi[1] == np.inf

    def test_pending_refs(self):
        # Key 5 never published: rows referencing it are pending, NaN-filled.
        for expr in (Col("u") + lit(1.0), Col("u")):
            vec = self.assert_sides_equal(expr, [1.0, 2.0, 3.0], [0, 5, 1])
            assert vec.pending.tolist() == [False, True, False]

    def test_modulo_outside_kernel_dialect(self):
        # % has no interval rule: over an uncertain column the kernel
        # refuses it (the compiler rejects such a plan, TC107); over
        # certain columns only it is evaluated as a plain expression.
        ctx = self.context((0,))
        rel = self.rel(ctx, [2.0], [0])
        with pytest.raises(kresolve.UnsupportedKernel):
            kresolve.try_evaluate_side(Arith("%", Col("u"), lit(3.0)), rel, {"u"}, ctx)
        vec = self.assert_sides_equal(Col("u") + Arith("%", col("d"), lit(3.0)), [5.0], [0])
        assert vec.point.tolist() == [12.0]

    def test_column_without_sidecar_outside_kernel(self):
        # Only an empty relation carries an uncertain column without its
        # sidecar (an operator's empty output); it evaluates to no rows.
        ctx = self.context((0,))
        empty = Relation(self.SCHEMA, {"d": np.zeros(0), "u": np.zeros(0, dtype=CODE_DTYPE)})
        side = classify.evaluate_side(Col("u") * 2.0, empty, {"u"}, ctx)
        assert len(side.point) == len(side.pending) == 0
        assert side.trial_matrix(4).shape == (0, 4)

    def test_classification_identical(self):
        ctx = self.context()
        rel = self.rel(ctx, [20.0, 1.0, 10.5], [0, 0, 0])
        cmp_ = Comparison(">", Col("d"), Col("u"))
        vec = classify.classify_comparison(cmp_, rel, {"u"}, ctx)
        left = rowwise_side(cmp_.left, rel, {"u"}, ctx)
        right = rowwise_side(cmp_.right, rel, {"u"}, ctx)
        status, point = classify.classify_bounds(cmp_.op, left, right)
        assert np.array_equal(vec.status, status)
        assert np.array_equal(vec.point, point)
        trials = classify.compare(cmp_.op, left.trial_matrix(4), right.trial_matrix(4))
        assert np.array_equal(np.asarray(vec.trial_matrix(4)), trials)


class TestHolisticKernels:
    def naive_quantile(self, values, weights, q):
        """Independent reference: linear scan over sorted values."""
        order = np.argsort(values, kind="stable")
        cum = np.cumsum(np.asarray(weights, dtype=float)[order])
        total = cum[-1] if len(cum) else 0.0
        if not total > 0.0:
            return float("nan")
        idx = int(np.count_nonzero(cum < q * total))
        return float(np.asarray(values)[order[min(idx, len(values) - 1)]])

    def test_weighted_quantile_matches_naive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(0, 10, 37)
            w = rng.poisson(1.0, 37).astype(float)
            for q in (0.1, 0.5, 0.9, 1.0):
                got = weighted_quantile(v, w, q)
                want = self.naive_quantile(v, w, q)
                assert got == want or (np.isnan(got) and np.isnan(want))

    def test_trials_equal_per_column_scalar(self):
        rng = np.random.default_rng(1)
        v = rng.normal(0, 5, 50)
        tw = rng.poisson(1.0, (50, 16)).astype(float)
        for q in (0.25, 0.5, 0.95):
            vec = weighted_quantile_trials(v, tw, q)
            ref = np.array([weighted_quantile(v, tw[:, j], q) for j in range(16)])
            assert np.array_equal(vec, ref, equal_nan=True)

    def test_zero_weight_trials_are_nan(self):
        v = np.array([1.0, 2.0])
        tw = np.array([[1.0, 0.0], [1.0, 0.0]])
        out = weighted_quantile_trials(v, tw, 0.5)
        assert out[0] == 1.0 and np.isnan(out[1])

    def test_empty_group(self):
        assert np.isnan(weighted_quantile(np.empty(0), np.empty(0), 0.5))
        out = weighted_quantile_trials(np.empty(0), np.empty((0, 3)), 0.5)
        assert np.isnan(out).all()

    def test_grouped_indices_match_dict_reference(self):
        rng = np.random.default_rng(2)
        codes_src = rng.integers(0, 6, 80)
        keys, codes = reference_codes(
            relation_from_columns(
                Schema([("k", ColumnType.INT)]), k=codes_src
            ),
            ["k"],
        )
        by_group = {}
        for i, c in enumerate(codes):
            by_group.setdefault(c, []).append(i)
        ix_lists = grouped_indices(codes, len(keys))
        assert len(ix_lists) == len(by_group)
        for g, ix in enumerate(ix_lists):
            assert ix.tolist() == by_group[g]

    def test_quantile_trial_compute_equals_base_loop(self):
        rng = np.random.default_rng(3)
        v = rng.normal(0, 3, 40)
        tw = rng.poisson(1.0, (40, 9)).astype(float)
        func = Quantile(0.9)
        base = AggregateFunction.trial_compute(func, v, tw)
        assert np.array_equal(func.trial_compute(v, tw), base, equal_nan=True)

    def test_registry_exposes_median_and_quantiles(self):
        assert isinstance(AGG_FUNCTIONS["median"](), Median)
        assert AGG_FUNCTIONS["p95"]().q == 0.95
        with pytest.raises(Exception):
            Quantile(0.0)


_FLIP = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class _ReferenceStaircases:
    """Brute-force sentinels: one dict-held tightest value per (entity,
    direction), every row pushed on its own — the semantics the array
    store must reproduce, NaN det values included."""

    def __init__(self, cmp_: Comparison):
        self.cmp = cmp_
        self.det_left = cmp_.left.attrs() == {"d"}
        self.op = cmp_.op if self.det_left else _FLIP[cmp_.op]
        #: entity -> {expected: tightest det value}, first-recorded order
        self.tight: dict = {}

    def record(self, rel, rows, expected):
        for i, exp in zip(rows, expected):
            entity = (rel.columns["u"][i],)
            by_dir = self.tight.setdefault(entity, {})
            value = float(rel.columns["d"][i])
            by_dir[bool(exp)] = self._push(bool(exp), by_dir.get(bool(exp)), value)

    def _push(self, expected, last, value):
        if last is None:
            return value
        if self.op in (">", ">="):
            return min(last, value) if expected else max(last, value)
        if self.op in ("<", "<="):
            return max(last, value) if expected else min(last, value)
        return value

    def holds(self, det, unc):
        a, b = (det, unc) if self.det_left else (unc, det)
        with np.errstate(invalid="ignore"):
            return bool(
                {">": np.greater, ">=": np.greater_equal, "<": np.less,
                 "<=": np.less_equal, "==": np.equal, "!=": np.not_equal}[self.cmp.op](a, b)
            )

    def outcome(self, points: dict, batch_no: int, index):
        """The error message of a check against ``points`` (entity key ->
        current point; a missing key has vanished, and with no key at all
        the block is not published), or None: the first violated (entity,
        direction) in record order."""
        for entity, by_dir in self.tight.items():
            gid = int(entity[0])
            key = index.keys[gid]
            named = f"key {key!r}" if points else f"gid {gid}"
            described = f"(block 1, {named}, column 'v')"
            for expected in (True, False):
                if expected not in by_dir:
                    continue
                if key not in points:
                    reason = f"entity {described} resolved {expected} vanished"
                elif self.holds(by_dir[expected], points[key]) != expected:
                    reason = (
                        f"resolved decision flipped for entity {described}: {self.cmp!r} "
                        f"expected {expected} for det value {by_dir[expected]!r}"
                    )
                else:
                    continue
                return f"sentinel violation at batch {batch_no}: {reason}"
        return None


class TestVectorizedSentinels:
    """The array sentinel store against :class:`_ReferenceStaircases`:
    the tightest value per (entity, direction), and every check outcome —
    whether it fails and the entity and direction it names — equal the
    brute-force reference's."""

    def make_stores(self, cmp_=None):
        cmp_ = cmp_ or Comparison(">", Col("d"), Col("u"))
        return SentinelStore([cmp_], {"u"}), _ReferenceStaircases(cmp_)

    def index(self):
        """One run's group index of block 1; keys are added in reverse so
        a key's gid is not the key itself."""
        index = GroupIndex()
        index.add([(k,) for k in (3, 2, 1, 0)])
        return index

    def rel(self, index, d_values, keys):
        gids = index.add([(int(k),) for k in keys]).astype(CODE_DTYPE)
        return Relation._from_parts(
            Schema([("d", ColumnType.FLOAT), ("u", ColumnType.FLOAT)]),
            {"d": np.asarray(d_values, dtype=float), "u": gids},
            np.ones(len(gids)), lineage={"u": LineageColumn(1, "v")},
        )

    def assert_matches_reference(self, store, ref, index, probes=(), keys=range(4)):
        """Compare the tightest values, then check both against every
        entity at each probe estimate (and at each tightest det value,
        just above and below it, NaN and gone)."""
        conj = store._per_conjunct[0]
        got = {
            (int(conj.cells[0].gids[conj.entities[slot, 0]]),): {
                bool(d): float(conj.tight[slot, d]) for d in (1, 0) if conj.has[slot, d]
            }
            for slot in range(conj.n)
        }
        assert list(got) == list(ref.tight)
        for entity, by_dir in ref.tight.items():
            assert got[entity].keys() == by_dir.keys(), entity
            for expected, det in by_dir.items():
                assert _scalar_eq(got[entity][expected], det), (entity, expected)
        dets = [d for by_dir in ref.tight.values() for d in by_dir.values()]
        values = set(probes) | {float("nan"), None}
        for d in dets:
            if d == d:
                values |= {d, d - 0.25, d + 0.25}
        for value in values:
            ctx = RuntimeContext(Catalog({}), "t", 100, OnlineConfig(num_trials=2))
            ctx.batch_no = 99
            ctx.indexes[1] = index
            points = {}
            for k in keys if value is not None else ():
                points[(k,)] = value
                uv = UncertainValue(value, np.full(2, value))
                publish_group(ctx, 1, ["v"], Group((k,), {"v": uv}, True))
            try:
                store.check(ctx)
                got = None
            except RangeIntegrityError as failure:
                got = str(failure)
            assert got == ref.outcome(points, 99, index), value

    def test_batched_fold_equals_sequential(self):
        rng = np.random.default_rng(4)
        store, ref = self.make_stores()
        index = self.index()
        for _ in range(4):
            d = np.round(rng.normal(10, 5, 30), 3)
            keys = rng.integers(0, 4, 30)
            rel = self.rel(index, d, keys)
            rows = np.arange(30)
            expected = rng.random(30) > 0.5
            store.record(0, rel, rows, expected)
            ref.record(rel, rows, expected)
        self.assert_matches_reference(store, ref, index)

    def test_nan_det_values_use_reference(self):
        store, ref = self.make_stores()
        index = self.index()
        for d, keys, expected in [
            ([1.0, float("nan"), 3.0], [0, 0, 1], [True, True, False]),
            ([float("nan"), 0.5, 7.0], [2, 0, 1], [True, True, False]),
            ([-1.0, 9.0], [2, 1], [True, False]),
        ]:
            rel = self.rel(index, d, keys)
            store.record(0, rel, np.arange(len(d)), np.array(expected))
            ref.record(rel, np.arange(len(d)), expected)
        self.assert_matches_reference(store, ref, index, keys=range(3))

    def test_equality_op_uses_reference(self):
        store, ref = self.make_stores(Comparison("==", Col("d"), Col("u")))
        index = self.index()
        for d in ([1.0, 2.0, 1.5], [1.5, 1.5, 2.5], [2.5, 2.5, 2.5]):
            rel = self.rel(index, d, [0, 0, 0])
            expected = np.array([False, False, True])
            store.record(0, rel, np.arange(3), expected)
            ref.record(rel, np.arange(3), expected)
        self.assert_matches_reference(store, ref, index, keys=[0])

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_staircases_match_reference(self, data):
        op = data.draw(st.sampled_from(sorted(_FLIP)), label="op")
        det_left = data.draw(st.booleans(), label="det on the left")
        cmp_ = Comparison(op, Col("d"), Col("u")) if det_left else Comparison(op, Col("u"), Col("d"))
        store, ref = self.make_stores(cmp_)
        index = self.index()
        value = st.one_of(st.just(float("nan")), st.integers(-8, 8).map(lambda i: i / 2))
        for _ in range(data.draw(st.integers(1, 6), label="calls")):
            n = data.draw(st.integers(1, 6), label="rows")
            d = [data.draw(value) for _ in range(n)]
            keys = [data.draw(st.integers(0, 3)) for _ in range(n)]
            expected = np.array([data.draw(st.booleans()) for _ in range(n)])
            rel = self.rel(index, d, keys)
            store.record(0, rel, np.arange(n), expected)
            ref.record(rel, np.arange(n), expected)
        self.assert_matches_reference(store, ref, index, probes=[-5.0, 0.0, 5.0])


# -- whole-run comparison helper ---------------------------------------------------


def _scalar_eq(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (np.isnan(a) and np.isnan(b))
    return a == b


def assert_partials_identical(got, want, where):
    assert len(got) == len(want), where
    for pg, pw in zip(got, want):
        ctx = f"{where} batch {pw.batch_no}"
        assert pg.batch_no == pw.batch_no, ctx
        assert pg.fraction_processed == pw.fraction_processed, ctx
        assert pg.schema.names == pw.schema.names, ctx
        assert len(pg.rows) == len(pw.rows), ctx
        # Row order must match too.
        for rg, rw in zip(pg.rows, pw.rows):
            for name in pw.schema.names:
                vg, vw = rg[name], rw[name]
                if isinstance(vw, UncertainValue):
                    assert isinstance(vg, UncertainValue), f"{ctx}: {name}"
                    assert _scalar_eq(vg.value, vw.value), f"{ctx}: {name}"
                    assert np.array_equal(vg.trials, vw.trials, equal_nan=True), (
                        f"{ctx}: {name} trials"
                    )
                    assert _scalar_eq(vg.vrange.lo, vw.vrange.lo), f"{ctx}: {name} lo"
                    assert _scalar_eq(vg.vrange.hi, vw.vrange.hi), f"{ctx}: {name} hi"
                else:
                    assert _scalar_eq(vg, vw), f"{ctx}: {name}"
