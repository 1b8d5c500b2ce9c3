"""Tests for the state-store layer: stores and their byte accounting."""

import numpy as np

from repro.core import OnlineConfig, OnlineQueryEngine
from repro.core.compiler import compile_online
from repro.core.operators import AggregateOp, UncertainFilterOp, iter_ops
from repro.core.sketch import AggBundle
from repro.kernels.joins import vectorized_join
from repro.relational import Catalog, avg, col, count, scan, sum_
from repro.relational.relation import relation_from_columns
from repro.relational.schema import ColumnType, Schema
from repro.state import StateStore, estimate_nbytes
from repro.storage import encode_relation, sidecar_nbytes
from tests.conftest import KX_SCHEMA, random_kx


class TestEstimateNbytes:
    def test_none_is_free(self):
        assert estimate_nbytes(None) == 0

    def test_ndarray_uses_nbytes(self):
        arr = np.zeros(10, dtype=np.float64)
        assert estimate_nbytes(arr) == 80

    def test_defers_to_estimated_bytes(self):
        class Sized:
            def estimated_bytes(self):
                return 12345

        assert estimate_nbytes(Sized()) == 12345

    def test_relation_footprint(self):
        rel = random_kx(100, seed=1)
        assert estimate_nbytes(rel) == rel.estimated_bytes()


_CAT_SCHEMA = Schema([("cat", ColumnType.STRING), ("x", ColumnType.FLOAT)])


def _encoded_cat(n: int = 40) -> "object":
    rel = relation_from_columns(
        _CAT_SCHEMA,
        cat=[f"c{i % 4}" for i in range(n)],
        x=[float(i) for i in range(n)],
    )
    return encode_relation(rel)


class TestSidecarAccounting:
    """Regression: dictionary pages and mask buffers in the footprint.

    The original ``estimate_nbytes`` deferred to ``Relation.estimated_bytes``
    alone, which (deliberately — Figure 9(b) pins it) knows nothing about
    the encoded-column sidecars, so dictionary pages were invisible; and a
    naive fix would count a shared page once per slice holding it.
    """

    def test_encoded_relation_counts_sidecars(self):
        rel = _encoded_cat()
        assert estimate_nbytes(rel) == rel.estimated_bytes() + sidecar_nbytes(
            rel, set()
        )
        assert estimate_nbytes(rel) > rel.estimated_bytes()

    def test_plain_relation_unchanged(self):
        rel = random_kx(100, seed=1)
        assert estimate_nbytes(rel) == rel.estimated_bytes()

    def test_shared_page_counted_once_within_one_entry(self):
        # A join of two slices of one table: both key columns are coded
        # on the table's one page, which the entry counts once.
        rel = _encoded_cat()
        left = rel.slice(0, 5)
        right = rel.slice(5, 10).rename({"cat": "cat2", "x": "x2"})
        joined = vectorized_join(left, right, [])
        page = rel.encodings["cat"].page
        encodings = joined.encodings.values()
        assert all(enc.page is page for enc in encodings)
        store = StateStore()
        store.put("nd", joined)
        codes = sum(enc.codes.nbytes for enc in encodings)
        assert store.entry_bytes() == {
            "nd": joined.estimated_bytes() + codes + page.estimated_bytes()
        }

    def test_shared_page_counted_once_across_entries(self):
        rel = _encoded_cat()
        store = StateStore()
        store.put("nd", rel.slice(0, 20))
        store.put("pending", rel.slice(20, 40))
        page_bytes = rel.encodings["cat"].page.estimated_bytes()
        per_entry = store.entry_bytes()
        assert per_entry["nd"] - per_entry["pending"] == page_bytes
        separate = estimate_nbytes(store.get("nd")) + estimate_nbytes(
            store.get("pending")
        )
        assert sum(per_entry.values()) == separate - page_bytes

    def test_null_mask_buffer_is_counted(self):
        rel = relation_from_columns(
            _CAT_SCHEMA,
            cat=["a", None, "b", None],
            x=[1.0, 2.0, 3.0, 4.0],
        )
        enc = encode_relation(rel).encodings["cat"]
        assert enc.null_mask is not None
        assert (
            enc.estimated_bytes(set())
            == enc.codes.nbytes + enc.null_mask.nbytes + enc.page.estimated_bytes()
        )


class TestInMemoryStateStore:
    def test_put_get_delete(self):
        store = StateStore()
        store.put("nd", [1, 2])
        assert store.get("nd") == [1, 2]
        assert "nd" in store
        store.delete("nd")
        assert store.get("nd") is None
        assert "nd" not in store

    def test_entry_bytes_per_key(self):
        store = StateStore()
        store.put("a", np.zeros(4))
        store.put("b", None)
        assert store.entry_bytes() == {"a": 32, "b": 0}


class TestEngineStateAccounting:
    """Every stateful operator must report its footprint through its store."""

    def make_catalog(self):
        return Catalog({"t": random_kx(1500, seed=0, groups=6)})

    def nested_plan(self):
        inner = scan("t", KX_SCHEMA).aggregate([], [avg("x", "ax")])
        return (
            scan("t", KX_SCHEMA)
            .join(inner, keys=[])
            .select(col("x") > col("ax"))
            .aggregate([], [avg("y", "ay"), count("n")])
        )

    def test_filter_join_aggregate_all_report(self):
        engine = OnlineQueryEngine(
            self.make_catalog(), "t", OnlineConfig(num_trials=10, seed=5)
        )
        engine.run_to_completion(self.nested_plan(), 6)
        bm = engine.metrics.batches[-1]
        assert bm.state_bytes_matching("select:") > 0
        assert bm.state_bytes_matching("join:") > 0
        assert bm.state_bytes_matching("aggregate:") > 0

    def test_flat_aggregate_reports(self):
        engine = OnlineQueryEngine(
            self.make_catalog(), "t", OnlineConfig(num_trials=10, seed=5)
        )
        plan = scan("t", KX_SCHEMA).aggregate(["k"], [sum_("y", "sy")])
        engine.run_to_completion(plan, 4)
        assert engine.metrics.batches[-1].state_bytes_matching("aggregate:") > 0

    @staticmethod
    def ops_of(compiled):
        return [
            op
            for unit in compiled.units
            if hasattr(unit, "root_op")
            for op in iter_ops(unit.root_op)
        ]

    def test_operator_state_items_introspection(self):
        catalog = self.make_catalog()
        compiled = compile_online(self.nested_plan(), catalog, "t")
        filters = [
            op for op in self.ops_of(compiled) if isinstance(op, UncertainFilterOp)
        ]
        assert filters
        assert {k for k, _ in filters[0].state_items()} == {"nd", "sentinels"}

    def test_growing_aggregate_reports_its_bytes_every_batch(self):
        # Each batch brings groups the sketch has not seen, and the
        # sketch grows in place: every batch's report is measured afresh.
        catalog = Catalog({"t": random_kx(2000, seed=0, groups=500)})
        engine = OnlineQueryEngine(catalog, "t", OnlineConfig(num_trials=10, seed=5))
        plan = scan("t", KX_SCHEMA).aggregate(["k"], [sum_("y", "sy")])
        session = engine.open_run(plan, 10)
        try:
            [op] = [
                op for op in self.ops_of(session.compiled) if isinstance(op, AggregateOp)
            ]
            reported = []
            for batch_no in range(1, 11):
                metrics = session.process(batch_no).metrics
                seen: set[int] = set()
                fresh = sum(estimate_nbytes(v, seen) for _, v in op.state_items())
                assert metrics.state_bytes[op.label] == fresh
                reported.append(fresh)
        finally:
            session.close()
        assert reported == sorted(reported) and reported[-1] > reported[0]


class TestEntryBytesMemo:
    """``entry_bytes`` keeps no memo: every call measures the entries as
    they are now, including entries that grew in place."""

    def test_in_place_growth_is_measured(self):
        store = StateStore()
        bundle = AggBundle([sum_("y", "sy")], 4)
        store.put("sketch", bundle)
        before = store.entry_bytes()["sketch"]
        bundle._ensure_groups([(1,), (2,)])
        assert store.entry_bytes()["sketch"] == bundle.estimated_bytes() > before

    def test_put_and_delete_invalidate(self):
        store = StateStore()
        store.put("a", np.zeros(8))
        assert store.entry_bytes() == {"a": 64}
        store.put("b", np.zeros(4, dtype=np.float64))
        assert store.entry_bytes() == {"a": 64, "b": 32}
        store.delete("a")
        assert store.entry_bytes() == {"b": 32}

    def test_clear_invalidates(self):
        store = StateStore()
        store.put("a", np.zeros(8))
        assert store.entry_bytes()
        store.clear()
        assert store.entry_bytes() == {}
