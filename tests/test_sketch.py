"""Tests for the per-group per-trial aggregate sketches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketch import AggBundle
from repro.relational import ColumnType, avg, count, sum_, var
from repro.relational.groupby import RowSegments, group_ids
from repro.relational.relation import Relation, relation_from_columns
from tests.conftest import KX_SCHEMA, random_kx
from tests.test_kernels import join_relations


def with_trials(rel: Relation, value: float = 1.0, t: int = 3) -> Relation:
    return rel.with_mult(rel.mult, np.full((len(rel), t), value))


SPECS = [sum_("x", "sx"), avg("x", "ax"), count("n")]


class TestFold:
    def test_fold_accumulates_keys(self):
        rel = with_trials(random_kx(100, seed=1, groups=4))
        b = AggBundle(SPECS, 3)
        b.fold(rel, ["k"])
        assert len(b) == 4

    def test_fold_weight_sums(self):
        rel = with_trials(random_kx(100, seed=1, groups=4))
        b = AggBundle(SPECS, 3)
        b.fold(rel, ["k"])
        assert b.acc[:, 0, 0].sum() == pytest.approx(100.0)

    def test_incremental_fold_equals_single_fold(self):
        rel = with_trials(random_kx(200, seed=1, groups=4))
        first = rel.filter(np.arange(200) < 120)
        second = rel.filter(np.arange(200) >= 120)
        inc = AggBundle(SPECS, 3)
        inc.fold(first, ["k"])
        inc.fold(second, ["k"])
        once = AggBundle(SPECS, 3)
        once.fold(rel, ["k"])
        for s in range(len(SPECS)):
            vi, ti = inc.finalize(s, 1.0)
            vo, to = once.finalize(s, 1.0)
            order_i = {k: i for i, k in enumerate(inc.keys)}
            order_o = {k: i for i, k in enumerate(once.keys)}
            for key in order_o:
                assert vi[order_i[key]] == pytest.approx(vo[order_o[key]])

    def test_scalar_group(self):
        rel = with_trials(random_kx(50, seed=2))
        b = AggBundle(SPECS, 3)
        b.fold(rel, [])
        assert b.keys == [()]

    def test_empty_fold_noop(self):
        b = AggBundle(SPECS, 3)
        b.fold(Relation.empty(KX_SCHEMA, num_trials=3), ["k"])
        assert len(b) == 0


class TestFinalize:
    def test_sum_matches_numpy(self):
        rel = with_trials(random_kx(100, seed=3, groups=2))
        b = AggBundle(SPECS, 3)
        b.fold(rel, ["k"])
        values, trials = b.finalize(0, 1.0)
        for gi, key in enumerate(b.keys):
            mask = rel.column("k") == key[0]
            assert values[gi] == pytest.approx(rel.column("x")[mask].sum())

    def test_trial_values_use_trial_weights(self):
        rel = with_trials(random_kx(60, seed=3, groups=2), value=2.0)
        b = AggBundle(SPECS, 3)
        b.fold(rel, ["k"])
        values, trials = b.finalize(0, 1.0)
        assert trials[0, 0] == pytest.approx(2.0 * values[0])

    def test_avg_trials_unscaled(self):
        rel = with_trials(random_kx(60, seed=3, groups=2), value=2.0)
        b = AggBundle(SPECS, 3)
        b.fold(rel, ["k"])
        values, trials = b.finalize(1, 5.0)  # scale must NOT apply to AVG
        assert trials[0, 0] == pytest.approx(values[0])

    def test_scale_applies_to_sum_and_count(self):
        rel = with_trials(random_kx(60, seed=3, groups=2))
        b = AggBundle(SPECS, 3)
        b.fold(rel, ["k"])
        unscaled, _ = b.finalize(0, 1.0)
        scaled, _ = b.finalize(0, 4.0)
        assert scaled[0] == pytest.approx(4.0 * unscaled[0])
        cn_unscaled, _ = b.finalize(2, 1.0)
        cn_scaled, _ = b.finalize(2, 4.0)
        assert cn_scaled[0] == pytest.approx(4.0 * cn_unscaled[0])


class TestFoldValues:
    def test_uncertain_argument_path(self):
        b = AggBundle([sum_("x", "sx")], 2)
        keys = [("g",), ("g",)]
        b.fold_values(
            keys,
            0,
            values=np.array([3.0, 4.0]),
            trial_values=np.array([[3.0, 30.0], [4.0, 40.0]]),
            mult=np.ones(2),
            trial_mults=np.ones((2, 2)),
        )
        values, trials = b.finalize(0, 1.0)
        assert values[0] == 7.0
        assert list(trials[0]) == [7.0, 70.0]


class TestFoldedWith:
    def test_folded_with_no_rows_is_self(self):
        b = AggBundle(SPECS, 3)
        assert b.folded_with(with_trials(random_kx(0, seed=1)), ["k"]) is b

    def test_folded_with_unions_keys(self):
        rel = with_trials(random_kx(100, seed=5, groups=4))
        left = AggBundle(SPECS, 3)
        left.fold(rel.filter(rel.column("k") < 2), ["k"])
        out = left.folded_with(rel.filter(rel.column("k") >= 2), ["k"])
        assert len(out) == 4 and len(left) == 2
        assert out.keys[:2] == left.keys

    def test_folded_with_sums_overlapping_groups(self):
        rel = with_trials(random_kx(100, seed=5, groups=2))
        a = AggBundle(SPECS, 3)
        a.fold(rel, ["k"])
        out = a.folded_with(rel, ["k"])
        va, _ = a.finalize(0, 1.0)
        vm, _ = out.finalize(0, 1.0)
        for i, key in enumerate(a.keys):
            assert vm[out.keys.index(key)] == pytest.approx(2.0 * va[i])

    def test_folded_with_does_not_mutate_self(self):
        rel = with_trials(random_kx(50, seed=5, groups=2))
        a = AggBundle(SPECS, 3)
        a.fold(rel, ["k"])
        before, keys = a.acc.copy(), list(a.keys)
        a.folded_with(with_trials(random_kx(50, seed=6, groups=4)), ["k"])
        assert (a.acc == before).all() and a.keys == keys
        assert set(a.key_to_gid) == set(keys)

    def test_bits_equal_a_separate_bundle_added_in(self):
        """Every block is the persistent block plus the volatile rows' own
        block, as adding a separately folded bundle into zeros gives —
        ``-0.0`` blocks (zero weights times negative features) included."""
        def rows(n, seed, groups, weight):
            rel = with_trials(random_kx(n, seed=seed, groups=groups), weight)
            rel = rel.with_mult(rel.mult * weight, rel.trial_mults)
            return rel.with_column("neg", ColumnType.FLOAT, -np.ones(n))

        specs = [sum_("neg", "sn"), avg("x", "ax")]
        base = AggBundle(specs, 3)
        base.fold(rows(60, 7, 3, 0.0), ["k"])
        vol = rows(40, 8, 5, 0.0)
        alone = AggBundle(specs, 3)
        alone.fold(vol, ["k"])
        out = base.folded_with(vol, ["k"])
        for gid, key in enumerate(out.keys):
            want = np.zeros(out.acc.shape[1:])
            if key in base.key_to_gid:
                want = want + base.acc[base.key_to_gid[key]]
            if key in alone.key_to_gid:
                want = want + alone.acc[alone.key_to_gid[key]]
            assert want.tobytes() == out.acc[gid].tobytes(), key


class TestBytes:
    def test_estimated_bytes_grow_with_groups(self):
        small = AggBundle(SPECS, 3)
        small.fold(with_trials(random_kx(50, seed=1, groups=2)), ["k"])
        big = AggBundle(SPECS, 3)
        big.fold(with_trials(random_kx(50, seed=1, groups=20)), ["k"])
        assert big.estimated_bytes() > small.estimated_bytes()


# -- the fold's kernels against the np.add.at kernel they replaced --------------------
#
# Summation order differs (np.add.at adds row by row, reduceat and the
# per-segment BLAS product each sum a segment in their own order), so parity
# is to rel 1e-12, the tolerance set from the dtype: < 2**-40 relative for
# segments of up to a few thousand float64 terms.

RTOL = 1e-12


def add_at_sums(values: np.ndarray, gids: np.ndarray, num_groups: int) -> np.ndarray:
    """Reference: unbuffered scatter-add of float64 rows into their groups."""
    values = np.asarray(values, dtype=np.float64)
    acc = np.zeros((num_groups,) + values.shape[1:])
    np.add.at(acc, gids, values)
    return acc


def add_at_fold(bundle: AggBundle, rel: Relation, group_by: list[str]) -> None:
    """Reference: ``AggBundle.fold`` as row-by-row scatter-adds into views
    of the accumulator (row 0 weights, then each spec's feature rows;
    column 0 the point, then the trials)."""
    local_keys, local_gids = group_ids(rel, group_by)
    gids = bundle._ensure_groups(local_keys)[local_gids]
    trial_w = np.asarray(
        rel.trial_mults
        if rel.trial_mults is not None
        else np.broadcast_to(rel.mult[:, None], (len(rel), bundle.num_trials)),
        dtype=np.float64,
    )
    acc = bundle.acc
    np.add.at(acc[:, 0, 0], gids, rel.mult)
    np.add.at(acc[:, 0, 1:], gids, trial_w)
    for spec, rows in zip(bundle.specs, bundle.feature_rows):
        if spec.func.num_features == 0:
            continue
        feats = spec.func.features(spec.arg_values(rel))  # (k, n)
        np.add.at(acc[:, rows, 0], gids, (feats * rel.mult).T)
        np.add.at(acc[:, rows, 1:], gids, feats.T[:, :, None] * trial_w[:, None, :])


def assert_same_tables(got: AggBundle, want: AggBundle) -> None:
    g = len(want)
    assert got.keys == want.keys
    assert got.acc.shape[1:] == want.acc.shape[1:]
    np.testing.assert_allclose(got.acc[:g], want.acc[:g], rtol=RTOL)


@st.composite
def grouped_rows(draw):
    n = draw(st.integers(0, 60))
    num_groups = draw(st.integers(1, 12))
    t = draw(st.integers(0, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    gids = rng.integers(0, num_groups, n).astype(np.intp)
    counts = rng.poisson(1.0, (n, t)).astype(np.uint8)
    weights = counts if draw(st.booleans()) else counts * rng.random((n, t))
    feats = rng.normal(50.0, 20.0, (draw(st.integers(1, 3)), n))
    return gids, num_groups, weights, feats


def trial_weight_sums(rows: np.ndarray, gids: np.ndarray, num_groups: int) -> np.ndarray:
    """Per-group sums over axis 0 through RowSegments, the way AggBundle folds."""
    segments = RowSegments.of_gids(gids)
    out = np.zeros((num_groups,) + rows.shape[1:])
    out[segments.groups] = segments.sums(rows[segments.order])
    return out


class TestSegmentedSums:
    @given(grouped_rows())
    @settings(max_examples=150, deadline=None)
    def test_matches_add_at(self, rows):
        gids, num_groups, weights, feats = rows
        np.testing.assert_allclose(
            trial_weight_sums(weights, gids, num_groups),
            add_at_sums(weights, gids, num_groups),
            rtol=RTOL,
        )
        weighted = feats.T[:, None, :] * weights[:, :, None].astype(np.float64)
        np.testing.assert_allclose(
            trial_weight_sums(weighted, gids, num_groups),
            add_at_sums(weighted, gids, num_groups),
            rtol=RTOL,
        )

    def test_empty_input(self):
        out = trial_weight_sums(np.zeros((0, 4), dtype=np.uint8), np.zeros(0, np.intp), 3)
        assert out.shape == (3, 4) and not out.any()
        segments = RowSegments.of_gids(np.zeros(0, dtype=np.intp))
        assert len(segments.order) == len(segments.starts) == len(segments.groups) == 0

    def test_one_group(self):
        w = np.arange(12.0).reshape(6, 2)
        out = trial_weight_sums(w, np.zeros(6, dtype=np.intp), 1)
        assert out.tolist() == [[30.0, 36.0]]

    def test_all_distinct_unsorted_groups(self):
        gids = np.array([3, 0, 2, 1], dtype=np.intp)
        w = np.array([[1.5], [2.5], [3.5], [4.5]])
        assert trial_weight_sums(w, gids, 4).ravel().tolist() == [2.5, 4.5, 3.5, 1.5]

    def test_rows_keep_their_order_within_a_group(self):
        segments = RowSegments.of_gids(np.array([1, 0, 1, 0, 1], dtype=np.intp))
        assert segments.order.tolist() == [1, 3, 0, 2, 4]
        assert segments.starts.tolist() == [0, 2]
        assert segments.groups.tolist() == [0, 1]

    def test_uint8_segment_sum_above_255(self):
        counts = np.full((300, 2), 3, dtype=np.uint8)
        out = trial_weight_sums(counts, np.zeros(300, dtype=np.intp), 1)
        assert out.dtype == np.float64
        assert out.tolist() == [[900.0, 900.0]]

    def test_a_groups_sum_ignores_the_other_rows_of_the_call(self):
        """A group's sum depends on its own rows only, not on the call's others."""
        rng = np.random.default_rng(3)
        gids = rng.integers(0, 5, 400).astype(np.intp)
        w = rng.random((400, 7))
        full = trial_weight_sums(w, gids, 5)
        for g in range(5):
            alone = trial_weight_sums(w[gids == g], np.zeros((gids == g).sum(), np.intp), 1)
            assert (full[g] == alone[0]).all()


class TestFoldAgainstReference:
    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    @pytest.mark.parametrize("groups", [1, 4, 150])
    def test_fold_matches_add_at(self, dtype, groups):
        rel = random_kx(150, seed=groups, groups=groups)
        counts = np.random.default_rng(7).poisson(1.0, (150, 6)).astype(dtype)
        rel = rel.with_mult(np.random.default_rng(8).random(150), counts)
        got, want = AggBundle(SPECS, 6), AggBundle(SPECS, 6)
        for part in (rel.slice(0, 90), rel.slice(90, 150)):
            got.fold(part, ["k"])
            add_at_fold(want, part, ["k"])
        assert rel.trial_mults.dtype == dtype
        assert_same_tables(got, want)

    def test_fold_without_trials_broadcasts_mult(self):
        rel = random_kx(80, seed=2, groups=3)  # trial_mults None: read-only broadcast
        got, want = AggBundle(SPECS, 4), AggBundle(SPECS, 4)
        got.fold(rel, ["k"])
        add_at_fold(want, rel, ["k"])
        assert_same_tables(got, want)
        assert (got.acc[:3, 0, 1:] == got.acc[:3, 0, :1]).all()

    def test_fold_with_zero_trials(self):
        rel = random_kx(40, seed=2, groups=3)
        got, want = AggBundle(SPECS, 0), AggBundle(SPECS, 0)
        got.fold(rel, ["k"])
        add_at_fold(want, rel, ["k"])
        assert_same_tables(got, want)

    def test_fold_values_coded_matches_fold_values(self):
        rng = np.random.default_rng(11)
        n, t = 50, 4
        codes = rng.integers(0, 3, n).astype(np.intp)
        keys = [("a",), ("b",), ("c",)]
        args = (
            rng.normal(size=n),
            rng.normal(size=(n, t)),
            rng.random(n),
            rng.poisson(1.0, (n, t)).astype(np.uint8),
        )
        row_wise, coded = AggBundle([sum_("x", "sx")], t), AggBundle([sum_("x", "sx")], t)
        row_wise.fold_values([keys[c] for c in codes], 0, *args)
        coded.fold_values_coded(keys, codes, 0, *args)
        assert len(row_wise) == len(coded) == 3
        # Bit-identical, not merely close: the coded fold is the engine's
        # path and fold_values its row-wise reference.
        for key, gid in row_wise.key_to_gid.items():
            other = coded.key_to_gid[key]
            assert row_wise.acc[gid].tobytes() == coded.acc[other].tobytes()
        values, trial_values, mult, trial_mults = args
        want = add_at_sums(trial_values * trial_mults, codes, 3)
        got = np.stack([coded.acc[coded.key_to_gid[k], 1, 1:] for k in keys])
        np.testing.assert_allclose(got, want, rtol=RTOL)


SPEC_SETS = [
    [count("n")],  # K = 0: the segmented-sum case
    [sum_("x", "sx")],
    SPECS,
    [var("x", "vx"), count("n"), sum_("y", "sy")],
]


@st.composite
def fold_cases(draw):
    """A relation, its specs and T, over the shapes the fold special-cases."""
    n = draw(st.integers(1, 60))
    t = draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = draw(st.sampled_from(["random", "distinct", "one"]))
    k = {
        "random": rng.integers(0, draw(st.integers(1, 12)), n),
        "distinct": rng.permutation(n),  # every segment has length 1
        "one": np.zeros(n, dtype=np.int64),  # one group holds every row
    }[keys]
    x, y = rng.normal(50.0, 20.0, n), rng.normal(-5.0, 3.0, n)
    weights = draw(st.sampled_from(["uint8", "heavy", "float", "broadcast"]))
    counts = rng.poisson(1.0, (n, t)).astype(np.uint8)
    if weights == "heavy":  # uint8 counts whose group sums exceed 255
        counts = rng.integers(100, 256, (n, t)).astype(np.uint8)
    trials = {
        "uint8": counts,
        "heavy": counts,
        "float": counts * rng.random((n, t)),
        "broadcast": None,  # deterministic mult: the read-only broadcast
    }[weights]
    if draw(st.booleans()) and trials is not None and t:
        # Non-finite features on rows with a zero trial weight: 0·inf = NaN.
        bad = rng.random(n) < 0.25
        x[bad] = rng.choice([np.nan, np.inf, -np.inf], int(bad.sum()))
        trials[bad, 0] = 0
    rel = relation_from_columns(KX_SCHEMA, k=k, x=x, y=y)
    rel = rel.with_mult(rng.random(n) + 0.5, trials)
    return rel, draw(st.sampled_from(SPEC_SETS)), t


class TestAccumulatorParity:
    @given(fold_cases(), st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_fold_matches_add_at(self, case, cut):
        rel, specs, t = case
        got, want = AggBundle(specs, t), AggBundle(specs, t)
        cut = min(cut, len(rel))
        for part in (rel.slice(0, cut), rel.slice(cut, len(rel))):
            got.fold(part, ["k"])
            add_at_fold(want, part, ["k"])
        assert_same_tables(got, want)

    def test_one_row(self):
        rel = with_trials(random_kx(1, seed=4), value=3.0)
        got, want = AggBundle(SPECS, 3), AggBundle(SPECS, 3)
        got.fold(rel, ["k"])
        add_at_fold(want, rel, ["k"])
        assert got.acc[:1].tobytes() == want.acc[:1].tobytes()  # a product is exact

    def test_finalize_reads_the_accumulator(self):
        rel = with_trials(random_kx(40, seed=6, groups=3), value=2.0)
        b = AggBundle(SPECS, 3)
        b.fold(rel, ["k"])
        g = len(b)
        sx, sx_trials = b.finalize(0, 1.0)
        assert (sx == b.acc[:g, 1, 0]).all() and (sx_trials == b.acc[:g, 1, 1:]).all()
        n, n_trials = b.finalize(2, 1.0)
        assert (n == b.acc[:g, 0, 0]).all() and (n_trials == b.acc[:g, 0, 1:]).all()


class TestPositionIndependence:
    """A group's block is the same bits alone, among other groups, or at
    another offset of the call."""

    @given(fold_cases(), st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_block_ignores_other_groups(self, case, pad):
        rel, specs, t = case
        keys = rel.column("k")
        target = int(keys[len(rel) // 2])
        prefix = relation_from_columns(
            KX_SCHEMA, k=-1 - np.arange(pad), x=np.arange(pad) + 0.25, y=np.ones(pad)
        )
        prefix = prefix.with_mult(np.ones(pad), None if rel.trial_mults is None else
                                  np.ones((pad, t), dtype=rel.trial_mults.dtype))
        alone, among, shifted = (AggBundle(specs, t) for _ in range(3))
        alone.fold(rel.filter(keys == target), ["k"])
        among.fold(rel, ["k"])
        shifted.fold(prefix.concat(rel), ["k"])
        blocks = [b.acc[b.key_to_gid[(target,)]].tobytes() for b in (alone, among, shifted)]
        assert blocks[0] == blocks[1] == blocks[2]


class TestCapacity:
    def test_groups_trickling_in_reallocate_geometrically(self):
        """4 096 folds of one new group each: ≤ 13 reallocations (doubling),
        and the same tables as one fold of all the rows."""
        n = 4096
        rel = relation_from_columns(
            KX_SCHEMA, k=np.arange(n), x=np.arange(n) * 0.5, y=np.zeros(n)
        )
        rel = rel.with_mult(rel.mult, np.full((n, 2), 2, dtype=np.uint8))
        trickled, once = AggBundle(SPECS, 2), AggBundle(SPECS, 2)
        reallocations, buffer = 0, trickled.acc
        for i in range(n):
            trickled.fold(rel.slice(i, i + 1), ["k"])
            if trickled.acc is not buffer:
                reallocations, buffer = reallocations + 1, trickled.acc
        once.fold(rel, ["k"])
        assert reallocations <= 13
        assert len(trickled) == len(once) == n
        assert trickled.estimated_bytes() == once.estimated_bytes()
        for s in range(len(SPECS)):
            for got, want in zip(trickled.finalize(s, 2.0), once.finalize(s, 2.0)):
                assert got.shape == want.shape
                assert (got == want).all()

    def test_one_shot_bundle_allocates_exactly(self):
        b = AggBundle(SPECS, 3)
        b.fold(with_trials(random_kx(50, seed=1, groups=5)), ["k"])
        assert b.acc.shape == (5, 1 + 2, 1 + 3)  # 5 groups, [1; sx; ax], [mult | 3 trials]


class TestNarrowCounts:
    def test_streamed_join_product_above_255(self):
        """Both sides carry uint8 counts: the product must widen first."""
        left = relation_from_columns(KX_SCHEMA, k=[1, 2], x=[1.0, 2.0], y=[0.0, 0.0])
        left = left.with_mult(left.mult, np.full((2, 3), 20, dtype=np.uint8))
        right = left.rename({"x": "x2", "y": "y2"})
        joined = join_relations(left, right, [("k", "k")])
        assert joined.trial_mults.dtype == np.float64
        assert (joined.trial_mults == 400.0).all()

    def test_relation_keeps_uint8_and_coerces_the_rest(self):
        rel = random_kx(6, seed=1)
        counts = np.ones((6, 2), dtype=np.uint8)
        kept = Relation(rel.schema, rel.columns, rel.mult, counts)
        assert kept.trial_mults.dtype == np.uint8
        for derived in (
            kept.filter(np.arange(6) % 2 == 0),
            kept.take(np.array([5, 0])),
            kept.slice(1, 4),
            kept.concat(kept),
        ):
            assert derived.trial_mults.dtype == np.uint8
        assert kept.scale(0.5).trial_mults.dtype == np.float64
        assert kept.estimated_bytes() == rel.with_mult(rel.mult, counts * 1.0).estimated_bytes()
        widened = Relation(rel.schema, rel.columns, rel.mult, np.ones((6, 2), dtype=np.int64))
        assert widened.trial_mults.dtype == np.float64
