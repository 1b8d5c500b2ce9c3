"""Tests for the columnar storage plane.

Covers the dictionary pages / encoded columns, the structured lineage
sidecar, zero-copy relation slicing (whose aliasing hazard the
sanitizer catches: ``tests/test_sanitize.py``), and the on-disk chunk
format round-trip. Property-based tests
at the bottom fuzz the encode/decode and disk round-trips over the nasty
corners: None (null masks), NaN (identity-distinct), empty batches, and
single-distinct-key columns.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batching import Partitioner
from repro.core.operators import ScanOp, UncertainJoinOp
from repro.errors import ReproError
from repro.relational import ColumnType, Relation, Schema, relation_from_columns
from repro.relational.groupby import group_ids
from repro.storage import (
    DictPage,
    DiskTable,
    EncodedColumn,
    LineageColumn,
    encode_relation,
    ingest_chunks,
    open_table,
    write_relation,
)
from repro.storage.columns import CODE_DTYPE
from repro.workloads.tpch import LINEORDER_SCHEMA, stream_lineorder_chunks
from tests.conftest import KX_SCHEMA, random_kx

fuzz = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

SALES_SCHEMA = Schema(
    [
        ("region", ColumnType.STRING),
        ("qty", ColumnType.INT),
        ("price", ColumnType.FLOAT),
        ("returned", ColumnType.BOOL),
    ]
)


def sales(n: int = 30, seed: int = 0, nulls: bool = False) -> Relation:
    rng = np.random.default_rng(seed)
    region = np.array(
        [f"r{i}" for i in rng.integers(0, 4, n)], dtype=object
    )
    if nulls:
        region[rng.random(n) < 0.2] = None
    return relation_from_columns(
        SALES_SCHEMA,
        region=region,
        qty=rng.integers(1, 50, n),
        price=np.round(rng.gamma(3.0, 4.0, n), 3),
        returned=rng.random(n) < 0.1,
    )


def assert_same_rows(a: Relation, b: Relation) -> None:
    assert [c.name for c in a.schema] == [c.name for c in b.schema]
    assert len(a) == len(b)
    for c in a.schema:
        x, y = a.columns[c.name], b.columns[c.name]
        if x.dtype.kind == "O":
            assert x.tolist() == y.tolist()
        else:
            np.testing.assert_array_equal(np.asarray(x), np.asarray(y))
    np.testing.assert_array_equal(np.asarray(a.mult), np.asarray(b.mult))


# ---------------------------------------------------------------------------
# DictPage / EncodedColumn
# ---------------------------------------------------------------------------


class TestDictPage:
    def test_first_appearance_codes(self):
        page = DictPage()
        codes = page.encode_values(["b", "a", "b", "c", "a"])
        assert codes.tolist() == [0, 1, 0, 2, 1]
        assert page.tolist() == ["b", "a", "c"]

    def test_append_only_across_calls(self):
        page = DictPage()
        first = page.encode_values(["x", "y"])
        second = page.encode_values(["z", "y", "x"])
        assert first.tolist() == [0, 1]
        assert second.tolist() == [2, 1, 0]
        assert page.gather(first).tolist() == ["x", "y"]

    def test_none_is_a_legal_value_and_masks(self):
        page = DictPage()
        arr = np.array(["a", None, "a", None], dtype=object)
        codes, mask = page.encode_array(arr)
        assert mask is not None
        assert mask.tolist() == [False, True, False, True]
        assert page.gather(codes).tolist() == ["a", None, "a", None]

    def test_no_nulls_means_no_mask(self):
        page = DictPage()
        _, mask = page.encode_array(np.array(["a", "b"], dtype=object))
        assert mask is None

    def test_nan_objects_stay_identity_distinct(self):
        # Two distinct NaN objects are distinct dict keys (NaN != NaN but
        # dict lookup short-circuits on identity) — exactly the codec's
        # _dict_factorize_column semantics.
        nan1, nan2 = float("nan"), float("nan")
        page = DictPage()
        codes = page.encode_values([nan1, nan2, nan1])
        assert codes.tolist() == [0, 1, 0]

    def test_unhashable_values_raise(self):
        with pytest.raises(TypeError):
            DictPage().encode_values([["not", "hashable"]])


class TestEncodedColumn:
    def test_round_trip_and_canonical_objects(self):
        arr = np.array(["u", "v", "u", "w"], dtype=object)
        enc = EncodedColumn.encode(arr)
        out = enc.materialize()
        assert out.tolist() == arr.tolist()
        assert out[0] is out[2]  # page gather canonicalizes cells

    def test_take_and_slice_share_the_page(self):
        enc = EncodedColumn.encode(np.array(["a", "b", "c", "a"], dtype=object))
        taken = enc.take(np.array([3, 1]))
        sliced = enc.slice(1, 3)
        assert taken.page is enc.page and sliced.page is enc.page
        assert taken.materialize().tolist() == ["a", "b"]
        assert sliced.materialize().tolist() == ["b", "c"]
        assert np.shares_memory(sliced.codes, enc.codes)

    def test_concat_same_page(self):
        enc = EncodedColumn.encode(np.array(["a", "b"], dtype=object))
        out = enc.concat(enc.slice(0, 1))
        assert out.page is enc.page
        assert out.materialize().tolist() == ["a", "b", "a"]

    def test_concat_translates_foreign_page(self):
        left = EncodedColumn.encode(np.array(["a", "b"], dtype=object))
        right = EncodedColumn.encode(np.array(["c", "b"], dtype=object))
        out = left.concat(right)
        assert out.page is left.page
        assert out.materialize().tolist() == ["a", "b", "c", "b"]
        # Translation extends left's page append-only: old codes intact.
        assert left.materialize().tolist() == ["a", "b"]

    def test_concat_merges_null_masks(self):
        left = EncodedColumn.encode(np.array(["a", None], dtype=object))
        right = EncodedColumn.encode(np.array(["b", "c"], dtype=object))
        out = left.concat(right)
        assert out.null_mask.tolist() == [False, True, False, False]
        both = right.concat(left)
        assert both.null_mask.tolist() == [False, False, False, True]


# ---------------------------------------------------------------------------
# encode_relation + sidecar flow through Relation operations
# ---------------------------------------------------------------------------


class TestEncodeRelation:
    def test_encodes_object_columns_only(self):
        rel = encode_relation(sales())
        assert set(rel.encodings) == {"region"}
        assert_same_rows(rel, sales())

    def test_unhashable_cells_leave_column_unencoded(self):
        schema = Schema([("k", ColumnType.STRING), ("x", ColumnType.FLOAT)])
        k = np.empty(2, dtype=object)
        k[:] = [["a"], ["b"]]  # lists are unhashable
        rel = Relation(schema, {"k": k, "x": np.ones(2)})
        assert encode_relation(rel).encodings == {}

    def test_sidecar_survives_take_filter_slice(self):
        rel = encode_relation(sales())
        page = rel.encodings["region"].page
        taken = rel.take(np.array([5, 1, 8]))
        filtered = rel.filter(np.asarray(rel.columns["qty"]) > 10)
        sliced = rel.slice(4, 20)
        for out in (taken, filtered, sliced):
            assert out.encodings["region"].page is page
            assert (
                out.encodings["region"].materialize().tolist()
                == out.columns["region"].tolist()
            )

    def test_sidecar_survives_concat(self):
        rel = encode_relation(sales())
        out = rel.slice(0, 10).concat(rel.slice(10, 30))
        assert out.encodings["region"].page is rel.encodings["region"].page
        assert_same_rows(out, rel)

    def test_concat_with_unencoded_relation_drops_sidecar(self):
        rel = encode_relation(sales(10))
        plain = sales(5, seed=3)
        out = rel.concat(plain)
        assert "region" not in out.encodings
        assert len(out) == 15


# ---------------------------------------------------------------------------
# Zero-copy slicing and the aliasing hazard
# ---------------------------------------------------------------------------


class TestZeroCopySlice:
    def test_slice_aliases_parent_buffers(self):
        rel = random_kx(100, seed=1)
        view = rel.slice(10, 60)
        assert len(view) == 50
        for name in ("k", "x", "y"):
            assert np.shares_memory(view.columns[name], rel.columns[name])
        assert np.shares_memory(view.mult, rel.mult)

    def test_take_copies(self):
        rel = random_kx(50, seed=1)
        out = rel.take(np.arange(10, 20))
        for name in ("k", "x", "y"):
            assert not np.shares_memory(out.columns[name], rel.columns[name])

    def test_slice_bit_identical_to_take(self):
        rel = encode_relation(sales(40, seed=2, nulls=True))
        assert_same_rows(rel.slice(7, 31), rel.take(np.arange(7, 31)))


class TestPartitionerZeroCopy:
    def test_sequential_mode_yields_views(self):
        rel = random_kx(200, seed=4)
        batches = Partitioner(mode="sequential").partition(rel, 4)
        assert sum(len(b) for b in batches) == 200
        for b in batches:
            assert np.shares_memory(b.columns["x"], rel.columns["x"])
        joined = batches[0]
        for b in batches[1:]:
            joined = joined.concat(b)
        assert_same_rows(joined, rel)

    def test_shuffle_mode_still_gathers(self):
        rel = random_kx(100, seed=4)
        batches = Partitioner(mode="shuffle", seed=9).partition(rel, 3)
        assert sum(len(b) for b in batches) == 100
        # A shuffled batch is almost surely non-contiguous -> copied.
        assert not np.shares_memory(batches[0].columns["x"], rel.columns["x"])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError):
            Partitioner(mode="bogus")


# ---------------------------------------------------------------------------
# LineageColumn
# ---------------------------------------------------------------------------


def _gids(n: int, groups: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, groups, n)


def _attached(gids, block_id: int = 3, column: str = "v") -> Relation:
    """A relation whose uncertain column ``u`` holds ``gids`` into
    ``(block_id, column)``."""
    gids = np.asarray(gids, dtype=CODE_DTYPE)
    return Relation._from_parts(
        Schema([("u", ColumnType.FLOAT)]), {"u": gids}, np.ones(len(gids)), None,
        lineage={"u": LineageColumn(block_id, column)},
    )


class TestLineageColumn:
    def test_gids_narrow_to_code_dtype(self):
        # The uncertain join attaches a column's cells as int32 gids.
        op = UncertainJoinOp(
            ScanOp("t", KX_SCHEMA), 3, ["k"], [("v", True)],
            KX_SCHEMA.concat(Schema([("v", ColumnType.FLOAT)])), 1,
        )
        out = op._attach_coded(random_kx(50, seed=3), None, _gids(50, 5, seed=3))
        assert out.columns["v"].dtype == np.int32
        assert out.lineage == {"v": LineageColumn(3, "v")}

    def test_take_slice_keep_the_block_column(self):
        gids = _gids(20, 4)
        rel = _attached(gids)
        for part, expected in (
            (rel.take(np.array([3, 7])), gids[[3, 7]]),
            (rel.filter(gids > 1), gids[gids > 1]),
            (rel.slice(5, 15), gids[5:15]),
        ):
            assert part.lineage == {"u": LineageColumn(3, "v")}
            assert part.columns["u"].tolist() == expected.tolist()

    def test_concat_requires_the_same_block_column(self):
        rel = _attached(_gids(10, 3))
        # Columns attached in different batches always concatenate: gids
        # are stable, so there is no per-batch pool to disagree on.
        later = _gids(4, 6, seed=1)
        both = rel.concat(_attached(later))
        assert both.columns["u"].tolist() == rel.columns["u"].tolist() + later.tolist()
        assert both.lineage == rel.lineage
        assert rel.concat(_attached(later, block_id=4)).lineage == {}
        assert rel.concat(_attached(later, column="w")).lineage == {}

    def test_relation_concat_keeps_sidecar_across_batches(self):
        store = _attached([0, 1]).concat(_attached([1, 2, 5]))
        assert store.columns["u"].tolist() == [0, 1, 1, 2, 5]
        assert store.lineage["u"] == LineageColumn(3, "v")

    def test_equal_and_hashable_by_block_column(self):
        a, b = LineageColumn(1, "c"), LineageColumn(1, "c")
        assert a == b and hash(a) == hash(b)
        assert a != LineageColumn(2, "c") and a != LineageColumn(1, "d")


# ---------------------------------------------------------------------------
# On-disk chunk tables
# ---------------------------------------------------------------------------


class TestDiskRoundTrip:
    def test_write_relation_round_trip(self, tmp_path):
        rel = sales(100, seed=5, nulls=True)
        table = write_relation(str(tmp_path / "t"), rel, chunk_rows=32)
        assert table.num_rows == 100
        assert table.num_chunks == 4
        assert_same_rows(table.relation(), rel)

    def test_chunks_concat_to_whole(self, tmp_path):
        rel = sales(50, seed=6)
        table = write_relation(str(tmp_path / "t"), rel, chunk_rows=20)
        joined = None
        for chunk in table.iter_chunks():
            joined = chunk if joined is None else joined.concat(chunk)
        assert_same_rows(joined, rel)

    def test_one_page_shared_across_chunks(self, tmp_path):
        rel = sales(60, seed=7)
        table = write_relation(str(tmp_path / "t"), rel, chunk_rows=16)
        page = table.page("region")
        for chunk in table.iter_chunks():
            assert chunk.encodings["region"].page is page

    def test_numeric_chunks_are_memmap_views(self, tmp_path):
        rel = sales(40, seed=8)
        table = write_relation(str(tmp_path / "t"), rel, chunk_rows=10)
        chunk = table.chunk(1)
        base = chunk.columns["price"]
        while isinstance(getattr(base, "base", None), np.ndarray):
            base = base.base
        assert isinstance(base, np.memmap)
        with pytest.raises(ValueError):
            chunk.columns["price"][0] = 0.0  # mode="r" maps are read-only

    def test_ingest_mapping_chunks(self, tmp_path):
        schema = Schema([("k", ColumnType.INT), ("x", ColumnType.FLOAT)])
        chunks = [
            {"k": np.array([1, 2]), "x": np.array([0.5, 1.5])},
            {"k": np.array([3]), "x": np.array([2.5])},
        ]
        table = ingest_chunks(str(tmp_path / "t"), schema, chunks)
        assert table.num_rows == 3
        assert table.relation().columns["k"].tolist() == [1, 2, 3]

    def test_dictionary_grows_across_chunks(self, tmp_path):
        schema = Schema([("s", ColumnType.STRING)])
        chunks = [
            {"s": np.array(["a", "b"], dtype=object)},
            {"s": np.array(["c", "a"], dtype=object)},
        ]
        table = ingest_chunks(str(tmp_path / "t"), schema, chunks)
        assert table.page("s").tolist() == ["a", "b", "c"]
        assert table.relation().columns["s"].tolist() == ["a", "b", "c", "a"]

    def test_empty_relation_round_trip(self, tmp_path):
        rel = sales(30, seed=1).slice(0, 0)
        table = write_relation(str(tmp_path / "t"), rel)
        assert table.num_rows == 0
        assert len(table.relation()) == 0

    def test_open_table_rejects_non_table(self, tmp_path):
        (tmp_path / "meta.json").write_text('{"format": "something-else"}')
        with pytest.raises(ReproError):
            open_table(str(tmp_path))

    def test_ragged_chunk_rejected(self, tmp_path):
        schema = Schema([("a", ColumnType.INT), ("b", ColumnType.INT)])
        with pytest.raises(ReproError):
            ingest_chunks(
                str(tmp_path / "t"),
                schema,
                [{"a": np.array([1, 2]), "b": np.array([1])}],
            )

    def test_chunk_index_out_of_range(self, tmp_path):
        table = write_relation(str(tmp_path / "t"), sales(10), chunk_rows=5)
        with pytest.raises(ReproError):
            table.chunk(2)

    def test_reopen_by_path(self, tmp_path):
        rel = sales(25, seed=9, nulls=True)
        write_relation(str(tmp_path / "t"), rel, chunk_rows=8)
        assert_same_rows(open_table(str(tmp_path / "t")).relation(), rel)
        assert isinstance(open_table(str(tmp_path / "t")), DiskTable)


class TestStreamedScan:
    """A chunked scan of a fact table streamed to disk holds chunks, not
    the table: 60 000 rows in twelve 5 000-row chunks."""

    GROUP_KEYS = ["returnflag", "shipmode"]

    @pytest.fixture(scope="class")
    def table(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("streamed") / "lineorder")
        chunks = stream_lineorder_chunks(60_000, seed=42, chunk_rows=5_000)
        return ingest_chunks(path, LINEORDER_SCHEMA, chunks).path

    def _revenue(self, rel: Relation) -> np.ndarray:
        return np.asarray(rel.columns["extendedprice"]) * (
            1.0 - np.asarray(rel.columns["discount"])
        )

    def _scan_groupby(self, table: DiskTable) -> dict[tuple, float]:
        totals: dict[tuple, float] = {}
        for chunk in table.iter_chunks():
            keys, gids = group_ids(chunk, self.GROUP_KEYS)
            sums = np.bincount(gids, weights=self._revenue(chunk), minlength=len(keys))
            for key, s in zip(keys, sums):
                totals[key] = totals.get(key, 0.0) + float(s)
        return totals

    def test_peak_memory_tracks_chunks_not_the_table(self, table):
        # memmapped buffers are untraced OS pages; tracemalloc sees the
        # per-chunk materialisation, which must stay O(chunk).
        fresh = open_table(table)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            self._scan_groupby(fresh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        chunk = fresh.chunk(0).estimated_bytes()
        whole = sum(c.estimated_bytes() for c in fresh.iter_chunks())
        assert whole > 10 * chunk
        assert peak <= 8 * chunk, f"scan peak {peak:,} > 8 chunks ({chunk:,} each)"
        assert peak < whole / 2, f"scan peak {peak:,} not < half table {whole:,}"

    def test_chunked_groupby_matches_materialized(self, table):
        disk = open_table(table)
        rel = disk.relation()
        keys, gids = group_ids(rel, self.GROUP_KEYS)
        sums = np.bincount(gids, weights=self._revenue(rel), minlength=len(keys))
        streamed = self._scan_groupby(disk)
        assert set(streamed) == set(keys)
        for key, s in zip(keys, sums):
            np.testing.assert_allclose(streamed[key], s, rtol=1e-9)


# ---------------------------------------------------------------------------
# _from_parts
# ---------------------------------------------------------------------------


class TestFromParts:
    def test_matches_public_constructor(self):
        rel = random_kx(20, seed=2)
        rebuilt = Relation._from_parts(
            rel.schema, dict(rel.columns), rel.mult, rel.trial_mults
        )
        assert_same_rows(rebuilt, rel)
        assert rebuilt.encodings == {} and rebuilt.lineage == {}

    def test_sidecars_attach(self):
        rel = encode_relation(sales(10))
        rebuilt = Relation._from_parts(
            rel.schema,
            dict(rel.columns),
            rel.mult,
            None,
            encodings=dict(rel.encodings),
        )
        assert rebuilt.encodings["region"].page is rel.encodings["region"].page

    def test_default_sidecar_dicts_are_not_shared_mutable_state(self):
        a = Relation._from_parts(
            KX_SCHEMA,
            {
                "k": np.zeros(1, dtype=np.int64),
                "x": np.zeros(1),
                "y": np.zeros(1),
            },
            np.ones(1),
            None,
        )
        assert a.encodings == {}
        # The shared empty default must never be written to; attaching
        # goes through _from_parts kwargs, giving a fresh dict.
        b = encode_relation(sales(3))
        assert b.encodings and a.encodings == {}


# ---------------------------------------------------------------------------
# Property-based round trips
# ---------------------------------------------------------------------------

cell = st.one_of(
    st.none(),
    st.text(max_size=6),
    st.sampled_from(["dup", "dup2"]),  # force repeats
)


@fuzz
@given(st.lists(cell, max_size=60))
def test_prop_page_round_trip(values):
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    page = DictPage()
    codes, mask = page.encode_array(arr)
    assert page.gather(codes).tolist() == values
    if mask is not None:
        assert mask.tolist() == [v is None for v in values]
    else:
        assert all(v is not None for v in values)
    # Re-encoding through a fresh page agrees cell for cell.
    again = EncodedColumn.encode(arr)
    assert again.materialize().tolist() == values


@fuzz
@given(st.lists(cell, max_size=40), st.lists(cell, max_size=40))
def test_prop_cross_page_concat(left_vals, right_vals):
    def col(values):
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        return EncodedColumn.encode(arr)

    out = col(left_vals).concat(col(right_vals))
    assert out.materialize().tolist() == left_vals + right_vals
    nulls = [v is None for v in left_vals + right_vals]
    if out.null_mask is not None:
        assert out.null_mask.tolist() == nulls
    else:
        assert not any(nulls)


@fuzz
@given(
    values=st.lists(
        st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
        max_size=50,
    ),
    chunk_rows=st.integers(min_value=1, max_value=16),
)
def test_prop_disk_round_trip(values, chunk_rows, tmp_path_factory):
    strings = np.empty(len(values), dtype=object)
    strings[:] = values
    rel = relation_from_columns(
        Schema([("s", ColumnType.STRING), ("x", ColumnType.FLOAT)]),
        s=strings,
        x=np.arange(len(values), dtype=np.float64),
    )
    path = str(tmp_path_factory.mktemp("chunks") / "t")
    table = write_relation(path, rel, chunk_rows=chunk_rows)
    assert_same_rows(table.relation(), rel)
    total = 0
    for chunk in table.iter_chunks():
        total += len(chunk)
        enc = chunk.encodings.get("s")
        if enc is not None and enc.null_mask is not None:
            assert enc.null_mask.tolist() == [
                v is None for v in chunk.columns["s"].tolist()
            ]
    assert total == table.num_rows


@fuzz
@given(
    n=st.integers(min_value=0, max_value=40),
    chunk_rows=st.integers(min_value=1, max_value=5),
)
def test_prop_single_distinct_key(n, chunk_rows, tmp_path_factory):
    strings = np.empty(n, dtype=object)
    strings[:] = ["only"] * n
    rel = relation_from_columns(
        Schema([("s", ColumnType.STRING)]), s=strings
    )
    path = str(tmp_path_factory.mktemp("single") / "t")
    table = write_relation(path, rel, chunk_rows=chunk_rows)
    assert table.page("s").tolist() == (["only"] if n else [])
    assert_same_rows(table.relation(), rel)


@fuzz
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=40))
def test_prop_lineage_round_trip(raw_slots):
    rel = _attached([abs(s) for s in raw_slots], block_id=0)
    # Slicing then concatenating reproduces the original gids.
    half = len(rel) // 2
    rejoined = rel.slice(0, half).concat(rel.slice(half, len(rel)))
    np.testing.assert_array_equal(rejoined.columns["u"], rel.columns["u"])
    assert rejoined.lineage == rel.lineage
