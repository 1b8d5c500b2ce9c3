"""Tests for the state-store layer: stores and their byte accounting."""

import numpy as np

from repro.core import OnlineConfig, OnlineQueryEngine
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

    def test_containers_recursive(self):
        assert estimate_nbytes({"a": 1.0}) > estimate_nbytes({})
        assert estimate_nbytes([1, 2, 3]) > estimate_nbytes([])
        assert estimate_nbytes({1, 2}) > estimate_nbytes(set())

    def test_nested_container_estimates_pinned(self):
        """Regression: dict estimates must account for the *keys* too (a
        tuple group key or long string key is real state), and set members
        get the same 16-byte slot overhead as dict slots. Pinned so the
        Figure 9(b)/10(c) state-size accounting cannot silently shift."""
        assert estimate_nbytes("a") == 50  # 49 + len
        assert estimate_nbytes({"a": 1.0}) == 64 + 16 + 50 + 8
        assert estimate_nbytes({1, 2}) == 64 + 2 * (16 + 8)
        assert estimate_nbytes(("k", 1)) == 56 + (8 + 50) + (8 + 8)
        assert estimate_nbytes([1.0, 2.0]) == 56 + 2 * (8 + 8)
        inner = {("k", 1): [1.0, 2.0]}
        assert estimate_nbytes(inner) == 64 + 16 + 130 + 88
        assert estimate_nbytes({"groups": inner}) == 64 + 16 + (49 + 6) + 298

    def test_dict_keys_are_not_free(self):
        short = {"k": 1.0}
        long = {"k" * 100: 1.0}
        assert estimate_nbytes(long) - estimate_nbytes(short) == 99


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
        rel = _encoded_cat()
        a, b = rel.slice(0, 20), rel.slice(20, 40)
        page = rel.encodings["cat"].page
        assert a.encodings["cat"].page is page  # slices alias the page
        together = estimate_nbytes([a, b])
        separate = estimate_nbytes([a]) + estimate_nbytes([b])
        # The list header is double-counted in `separate`; beyond that the
        # only difference must be the one deduplicated dictionary page.
        assert separate - together == 56 + page.estimated_bytes()

    def test_shared_page_counted_once_across_entries(self):
        rel = _encoded_cat()
        store = StateStore()
        store.put("nd", rel.slice(0, 20))
        store.put("pending", rel.slice(20, 40))
        page_bytes = rel.encodings["cat"].page.estimated_bytes()
        per_entry = store.entry_bytes()
        assert per_entry["nd"] - per_entry["pending"] == page_bytes
        assert store.estimated_bytes() == estimate_nbytes(
            [store.get("nd"), store.get("pending")]
        ) - 56 - 2 * 8

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
        assert store.estimated_bytes() == 32


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

    def test_operator_state_items_introspection(self):
        from repro.core.compiler import compile_online
        from repro.core.operators import UncertainFilterOp, iter_ops

        catalog = self.make_catalog()
        compiled = compile_online(self.nested_plan(), catalog, "t")
        ops = [
            op
            for unit in compiled.units
            if hasattr(unit, "root_op")
            for op in iter_ops(unit.root_op)
        ]
        filters = [op for op in ops if isinstance(op, UncertainFilterOp)]
        assert filters
        assert {k for k, _ in filters[0].state_items()} == {"nd", "sentinels"}


class TestEntryBytesMemo:
    """``entry_bytes`` memoizes on the mutation counter: the obs layer
    sizes every store twice per batch (per-entry gauges + Fig. 9(b)
    accounting), and without the memo each call re-walks every entry."""

    def test_repeat_calls_do_not_resample(self, monkeypatch):
        import repro.state.store as store_mod

        store = StateStore()
        store.put("a", np.zeros(16))
        store.put("b", {"k": 1.0})
        calls = {"n": 0}
        real = store_mod.estimate_nbytes

        def counting(value, seen=None):
            calls["n"] += 1
            return real(value, seen)

        monkeypatch.setattr(store_mod, "estimate_nbytes", counting)
        first = store.entry_bytes()
        sampled = calls["n"]
        assert sampled > 0
        assert store.entry_bytes() is first
        assert store.estimated_bytes() == sum(first.values())
        assert calls["n"] == sampled  # memo hit: zero extra sampling

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
