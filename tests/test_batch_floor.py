"""The per-batch floor kernels against the code they replace, bit for bit.

* ``key_segments`` / ``group_ids`` / ``factorize_keys`` (one stable sort
  of one integer code per row) against the dict-reference key codes +
  ``RowSegments`` over them;
* the integer ``SideIndex`` probe (``np.searchsorted``) against the dict
  probe and the row-wise join;
* the inlined row std of ``batched_range_bounds`` against ``np.std``;
* GROUP BY on one nullable or NaN column, both engines;
* count guards: the fold sorts once per call, the join never factorizes
  its probe side;
* published arrays stay unchanged by later folds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.batch import run_batch
from repro.core import OnlineConfig, OnlineQueryEngine, sketch
from repro.core.operators.join import StaticJoinOp
from repro.core.ranges import RangeMonitor
from repro.core.sketch import AggBundle
from repro.kernels.codec import factorize_keys
from repro.kernels.joins import SideIndex, vectorized_join
from repro.kernels.ranges import _std_rows
from repro.kernels.stats import STATS
from repro.relational import Catalog, ColumnType, Relation, Schema, relation_from_columns
from repro.relational.aggregates import avg, count, sum_
from repro.relational.algebra import scan
from repro.relational.groupby import RowSegments, group_ids, key_segments
from repro.storage.columns import EncodedColumn
from repro.relational.expressions import col
from repro.workloads.tpch import CUSTOMER_SCHEMA, LINEORDER_SCHEMA
from tests.test_kernels import (
    assert_rel_identical,
    join_relations,
    keys_equal,
    reference_codes,
)

# -- one-sort segmentation ---------------------------------------------------------

_STRINGS = ["a", "b", "c", None]


@st.composite
def key_relations(draw):
    """A relation of 1-3 key columns of mixed kinds, plus a value column."""
    n = draw(st.sampled_from([0, 1, 2, 7, 40]))
    kinds = draw(st.lists(
        st.sampled_from(["int", "bool", "str", "coded", "nan"]), min_size=1, max_size=3
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    schema, cols, encodings = [], {}, {}
    for i, kind in enumerate(kinds):
        name = f"c{i}"
        if kind == "int":
            lo = draw(st.sampled_from([-5, -(2**62), 0]))
            values = rng.integers(lo, lo + draw(st.sampled_from([1, 3, 2**62])), n)
            schema.append((name, ColumnType.INT))
        elif kind == "bool":
            values = rng.random(n) < 0.5
            schema.append((name, ColumnType.BOOL))
        elif kind == "nan":
            values = rng.choice([1.0, -0.0, 0.0, np.nan, 2.5], n)
            schema.append((name, ColumnType.FLOAT))
        else:
            values = np.array([_STRINGS[j] for j in rng.integers(0, 4, n)], dtype=object)
            schema.append((name, ColumnType.STRING))
            if kind == "coded":
                encodings[name] = EncodedColumn.encode(values)
        cols[name] = values
    schema.append(("x", ColumnType.FLOAT))
    cols["x"] = rng.normal(10.0, 3.0, n)
    rel = Relation._from_parts(
        Schema(schema), cols, np.ones(n), rng.poisson(1.0, (n, 3)).astype(np.uint8),
        encodings=encodings or None,
    )
    return rel, [f"c{i}" for i in range(len(kinds))]


def reference_segments(rel, group_by):
    """What ``key_segments`` replaces: dict-reference first-appearance codes,
    then one ``RowSegments`` sort of them."""
    keys, codes = reference_codes(rel, group_by)
    return keys, RowSegments.of_gids(codes)


def rows_by_group(segments: RowSegments) -> dict[int, list[int]]:
    ends = segments.starts + segments.lengths()
    return {
        g: segments.order[a:b].tolist()
        for g, a, b in zip(segments.groups.tolist(), segments.starts, ends)
    }


class TestKeySegments:
    @given(key_relations())
    @settings(max_examples=200, deadline=None)
    def test_matches_dict_codes_and_row_segments(self, case):
        rel, by = case
        keys, segments = key_segments(rel, by)
        ref_keys, ref_segments = reference_segments(rel, by)
        assert keys_equal(keys, ref_keys)
        assert rows_by_group(segments) == rows_by_group(ref_segments)
        ref_codes = reference_codes(rel, by)[1]
        assert np.array_equal(group_ids(rel, by)[1], ref_codes)
        kc = factorize_keys(rel, by)
        assert keys_equal(kc.keys, ref_keys) and np.array_equal(kc.codes, ref_codes)

    @given(key_relations())
    @settings(max_examples=100, deadline=None)
    def test_fold_is_bit_identical(self, case):
        rel, by = case
        specs = [sum_("x", "sx"), avg("x", "ax"), count("n")]
        got, want = AggBundle(specs, 3), AggBundle(specs, 3)
        half = len(rel) // 2
        parts = [rel.slice(0, half), rel.slice(half, len(rel)), rel]
        for part in parts:
            got.fold(part, by)
        original = sketch.key_segments
        sketch.key_segments = reference_segments
        try:
            for part in parts:
                want.fold(part, by)
        finally:
            sketch.key_segments = original
        assert keys_equal(got.keys, want.keys)
        assert np.array_equal(got.acc, want.acc)

    def test_scalar_key(self):
        keys, segments = key_segments(relation_from_columns(
            Schema([("x", ColumnType.FLOAT)]), x=np.arange(3.0)), [])
        assert keys == [()]
        assert segments.order.tolist() == [0, 1, 2] and segments.groups.tolist() == [0]

    def test_lengths(self):
        segments = RowSegments.of_gids(np.array([2, 0, 2, 2], dtype=np.intp))
        assert segments.lengths().tolist() == [1, 3]
        assert RowSegments.of_gids(np.zeros(0, dtype=np.intp)).lengths().tolist() == []


# -- integer join probe ------------------------------------------------------------


def _rel(name, values, dtype):
    values = np.asarray(values, dtype=dtype)
    return Relation._from_parts(
        Schema([(name, ColumnType.INT), (f"{name}_v", ColumnType.FLOAT)]),
        {name: values, f"{name}_v": np.arange(len(values), dtype=np.float64)},
        np.ones(len(values)),
    )


_INT64 = np.iinfo(np.int64)


class TestIntegerProbe:
    def check(self, left, right):
        index = SideIndex(right, ["k2"])
        assert index.sorted_keys is not None
        assert np.array_equal(index.probe(left, ["k"]), index.probe_by_dict(left, ["k"]))
        assert_rel_identical(
            vectorized_join(left, right, [("k", "k2")], index),
            join_relations(left, right, [("k", "k2")]),
        )

    @given(
        st.lists(st.integers(-4, 6), max_size=30),
        st.lists(st.integers(-2, 4), max_size=12),
        st.sampled_from([np.int64, np.int32, np.int8, np.uint16]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_probe(self, probe, side, probe_dtype):
        if probe_dtype is np.uint16:
            probe = [abs(v) for v in probe]
        self.check(_rel("k", probe, probe_dtype), _rel("k2", side, np.int64))

    def test_absent_and_duplicate_side_keys(self):
        self.check(_rel("k", [5, 1, 9, 1, -3], np.int64), _rel("k2", [1, 1, 5, 1], np.int64))

    def test_int32_probe_of_int64_side(self):
        self.check(_rel("k", [2**31 - 1, -(2**31), 7], np.int32),
                   _rel("k2", [2**31 - 1, 2**40, -(2**31)], np.int64))

    def test_uint64_above_int64_never_meets_through_float(self):
        # 2**63 and 2**63 - 1 are the same float64; they must not join.
        left = _rel("k", [2**63, 2**64 - 1, 3], np.uint64)
        right = _rel("k2", [_INT64.max, -1, 3], np.int64)
        index = SideIndex(right, ["k2"])
        assert index.probe(left, ["k"]).tolist() == index.probe_by_dict(left, ["k"]).tolist()
        joined = vectorized_join(left, right, [("k", "k2")], index)
        assert joined.columns["k"].tolist() == [3]
        self.check(left, right)

    def test_other_keys_keep_the_dict_probe(self):
        rng = np.random.default_rng(3)
        right = relation_from_columns(
            Schema([("k2", ColumnType.STRING)]), k2=np.array(list("abca"), dtype=object))
        left = relation_from_columns(
            Schema([("k", ColumnType.STRING), ("x", ColumnType.FLOAT)]),
            k=np.array(list("cxab"), dtype=object), x=rng.random(4))
        index = SideIndex(right, ["k2"])
        assert index.sorted_keys is None
        assert_rel_identical(
            vectorized_join(left, right, [("k", "k2")], index),
            join_relations(left, right, [("k", "k2")]),
        )


# -- inlined std -------------------------------------------------------------------


class TestInlinedStd:
    @given(
        st.integers(1, 12),
        st.integers(1, 150),
        st.sampled_from([1e-3, 1.0, 1e6]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_np_std(self, g, t, spread, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(50.0, spread, (g, t))
        m[rng.random((g, t)) < 0.1] = 0.0
        assert np.array_equal(_std_rows(m.copy()), np.std(m, axis=1))

    @given(
        st.integers(1, 40),
        st.integers(0, 150),
        st.sampled_from([0.0, 0.05, 0.5, 0.95]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_bounds_match_per_cell_observe(self, g, t, bad, seed):
        """NaN/inf-bearing rows of every finite count, G > 1 and T > 6."""
        rng = np.random.default_rng(seed)
        trials = rng.normal(5.0, 2.0, (g, t))
        trials[rng.random((g, t)) < bad] = np.nan
        trials[rng.random((g, t)) < bad / 10] = np.inf
        trials[rng.random(g) < 0.2] = 7.0
        points = rng.choice([1.0, np.nan, 5.0], g)
        lo, hi = RangeMonitor(slack=2.0).observe_batch(points, trials)
        for i in range(g):
            want = RangeMonitor(slack=2.0).observe(float(points[i]), trials[i])
            assert (lo[i], hi[i]) == (want.lo, want.hi)

    def test_one_row_and_constant_rows(self):
        m = np.array([[3.0, 3.0, 3.0]])
        assert np.array_equal(_std_rows(m), np.std(m, axis=1))


# -- GROUP BY one nullable or NaN column -------------------------------------------

_NULLS = Schema([
    ("s", ColumnType.STRING), ("f", ColumnType.FLOAT), ("k", ColumnType.INT),
    ("x", ColumnType.FLOAT),
])


def _null_catalog() -> Catalog:
    return Catalog({"t": relation_from_columns(
        _NULLS,
        s=np.array(["a", None, "b", None, "a"], dtype=object),
        f=np.array([1.0, np.nan, 2.0, np.nan, 1.0]),
        k=np.array([1, 2, 1, 2, 1]),
        x=np.arange(5.0),
    )})


class TestNullAndNaNKeys:
    @pytest.mark.parametrize("by,groups", [
        (["s"], 3), (["f"], 4), (["s", "k"], 3), (["f", "k"], 4),
    ])
    def test_both_engines_agree(self, by, groups):
        plan = scan("t", _NULLS).aggregate(by, [count("n"), sum_("x", "sx")])
        catalog = _null_catalog()
        batch = run_batch(plan, catalog).relation
        assert len(batch) == groups
        online = OnlineQueryEngine(
            catalog, "t", OnlineConfig(num_trials=4, seed=1)
        ).run_to_completion(plan, 2)
        assert online.to_relation().bag_equal(batch)

    def test_none_is_one_group(self):
        keys, gids = group_ids(_null_catalog().get("t"), ["s"])
        assert keys == [("a",), (None,), ("b",)]
        assert gids.tolist() == [0, 1, 2, 1, 0]

    def test_every_nan_is_its_own_group(self):
        keys, gids = group_ids(_null_catalog().get("t"), ["f"])
        assert len(keys) == 4 and gids.tolist() == [0, 1, 2, 3, 0]


# -- count guards on a flat query with an integer dimension join -------------------


class TestFloorCounts:
    """Q3's shape without its (at test scale, empty) date filter:
    lineorder joined with customer on the integer ``custkey``, grouped by
    three integer columns, 20 batches. Counts the work, not the time."""

    def test_one_sort_per_fold_and_no_probe_factorize(self, tpch_small, monkeypatch):
        sorts = [0]
        for name in ("argsort", "sort", "unique", "lexsort"):
            def counted(*args, _f=getattr(np, name), **kwargs):
                sorts[0] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(np, name, counted)
        per_fold, misses, joined = [], [], [0]
        fold, process = AggBundle.fold, StaticJoinOp.process

        def counted_fold(self, rel, group_by):
            before = sorts[0]
            out = fold(self, rel, group_by)
            if len(rel):
                per_fold.append(sorts[0] - before)
            return out

        def counted_process(self, delta, ctx):
            before = STATS.snapshot()["codec_misses"]
            out = process(self, delta, ctx)
            misses.append(STATS.snapshot()["codec_misses"] - before)
            joined[0] += len(out.certain)
            return out

        monkeypatch.setattr(AggBundle, "fold", counted_fold)
        monkeypatch.setattr(StaticJoinOp, "process", counted_process)
        plan = (
            scan("lineorder", LINEORDER_SCHEMA)
            .join(scan("customer", CUSTOMER_SCHEMA), keys=["custkey"])
            .aggregate(
                ["orderkey", "orderdate", "shippriority"],
                [sum_(col("extendedprice") * (1 - col("discount")), "revenue")],
            )
        )
        OnlineQueryEngine(
            tpch_small.catalog(), "lineorder", OnlineConfig(num_trials=8, seed=3)
        ).run_to_completion(plan, 20)
        assert len(per_fold) == 20 and set(per_fold) == {1}
        assert len(misses) == 20 and set(misses) == {0}
        assert joined[0] > 0


# -- published arrays are owned ----------------------------------------------------


class TestPublishedArraysAreOwned:
    """An output's arrays never change after publish, though the publish
    skips its scatter copies when it publishes every gid in order."""

    def test_later_folds_leave_earlier_outputs_alone(self, kx_catalog):
        inner = scan("t", kx_catalog.get("t").schema).aggregate(
            ["k"], [sum_("x", "sx"), count("n")]
        )
        plan = inner.aggregate([], [sum_("sx", "total"), count("groups")])
        session = OnlineQueryEngine(
            kx_catalog, "t", OnlineConfig(num_trials=4, seed=2)
        ).open_run(plan, 4)
        published = []
        for batch_no in range(1, 5):
            session.process(batch_no)
            for old, copies in published:
                for name, arrays in copies.items():
                    for got, want in zip(old.ucol(name), arrays):
                        assert np.array_equal(got, want, equal_nan=True), name
            published = [
                (out, {name: [a.copy() for a in out.ucol(name)] for name in out.value_cols
                       if name not in out.key_cols})
                for out in session.ctx.blocks.values()
            ]
        assert published

    def test_unscaled_results_outlive_the_next_fold(self, kx_relation):
        """At scale 1.0 a SUM or COUNT finalizes to the sums themselves;
        the returned arrays must not be views of the persistent sketch."""
        bundle = AggBundle([sum_("x", "sx"), count("n")], 3)
        bundle.fold(kx_relation, ["k"])
        results = [bundle.finalize(s, 1.0) for s in range(2)]
        saved = [[a.copy() for a in pair] for pair in results]
        bundle.fold(kx_relation, ["k"])
        for pair, want in zip(results, saved):
            for got, expected in zip(pair, want):
                assert np.array_equal(got, expected)
