"""The sharded entry point: planner verdicts, row ownership, and serial
execution.

``ShardedQueryEngine`` runs every plan in this process on the serial
engine: its partials are the serial engine's bit for bit at any shard
count, it starts no process, and it reports the planner's verdict on
each plan. ``shard_ids`` assigns rows to shards by their key values.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import zlib

import numpy as np
import pytest

from repro.core import OnlineConfig, OnlineQueryEngine
from repro.core.values import UncertainValue
from repro.engine.shards import (
    ShardedQueryEngine,
    analyze_shardability,
    keys,
    shard_ids,
)
from repro.relational import ColumnType, Relation, Schema
from repro.storage import encode_relation
from repro.workloads import (
    CONVIVA_QUERIES,
    TPCH_QUERIES,
    generate_conviva,
    generate_tpch,
)

#: The expected planner verdict for every workload query: the 9 queries
#: whose aggregates/joins share streamed fact-column group keys shard;
#: the rest (scalar aggregates, dimension-minted group keys) do not.
EXPECTED_SHARD_KEYS = {
    "Q1": ("linestatus", "returnflag"),
    "Q3": ("orderdate", "orderkey", "shippriority"),
    "Q18": ("orderkey",),
    "C2": ("cdn",),
    "C3": ("state",),
    "C5": ("cdn",),
    "C9": ("isp",),
    "C11": ("cdn",),
    "C12": ("isp",),
}

ALL_QUERIES = [("tpch", name) for name in TPCH_QUERIES] + [
    ("conviva", name) for name in CONVIVA_QUERIES
]
SHARDABLE = [
    (source, name) for source, name in ALL_QUERIES if name in EXPECTED_SHARD_KEYS
]
TRIALS = 16
BATCHES = 8


@pytest.fixture(scope="module")
def catalogs(tpch_small, conviva_small):
    return {"tpch": tpch_small.catalog(), "conviva": conviva_small.catalog()}


@pytest.fixture(scope="module")
def half_scale():
    return {
        "tpch": generate_tpch(scale=0.5, seed=7).catalog(),
        "conviva": generate_conviva(scale=0.5, seed=7).catalog(),
    }


def spec_of(source, name):
    return (TPCH_QUERIES if source == "tpch" else CONVIVA_QUERIES)[name]


def counts(bm):
    """A batch's metrics without its timings."""
    return {k: v for k, v in bm.to_dict().items() if "seconds" not in k}


def assert_cells_identical(expected, actual, context):
    """Same row order, and per cell the same point, trials and range."""
    assert len(expected) == len(actual), context
    for re_, ra in zip(expected, actual):
        assert list(re_) == list(ra), f"{context}: columns differ"
        for col, ve in re_.items():
            va = ra[col]
            assert type(ve) is type(va), f"{context}: {col}"
            if isinstance(ve, UncertainValue):
                assert np.array_equal([ve.value], [va.value], equal_nan=True), (
                    f"{context}: {col} point {va.value!r} != {ve.value!r}"
                )
                assert np.array_equal(ve.trials, va.trials, equal_nan=True), (
                    f"{context}: {col} trials differ"
                )
                assert (ve.vrange.lo, ve.vrange.hi) == (va.vrange.lo, va.vrange.hi), (
                    f"{context}: {col} range differs"
                )
            else:
                assert ve == va or (ve != ve and va != va), (
                    f"{context}: {col} value {va!r} != {ve!r}"
                )


class TestPlanner:
    @pytest.mark.parametrize("source,name", ALL_QUERIES)
    def test_verdict(self, source, name, catalogs):
        spec = spec_of(source, name)
        plan = analyze_shardability(spec.plan, spec.streamed_table)
        if name in EXPECTED_SHARD_KEYS:
            assert plan.shardable, f"{name}: {plan.reason}"
            assert plan.shard_key == EXPECTED_SHARD_KEYS[name]
            assert plan.reason is None
            # Sink disjointness checks need at least one key column with
            # shard-key provenance in the result schema.
            assert plan.result_key_cols
        else:
            assert not plan.shardable
            assert plan.reason
            assert plan.shard_key == ()

    def test_static_only_plan_not_shardable(self, catalogs):
        from repro.relational.aggregates import count
        from repro.relational.algebra import Aggregate, Scan

        catalog = catalogs["tpch"]
        plan = Aggregate(
            Scan("part", catalog.get("part").schema),
            group_by=["brand"],
            aggs=[count("n")],
        )
        verdict = analyze_shardability(plan, "lineorder")
        assert not verdict.shardable
        assert "streamed" in verdict.reason


class TestDeterminism:
    """Sharded partials are the serial engine's, bit for bit."""

    @pytest.mark.parametrize("source,name", SHARDABLE)
    def test_two_shards(self, source, name, half_scale):
        spec = spec_of(source, name)
        plan, catalog = spec.plan, half_scale[source]
        serial = list(
            OnlineQueryEngine(
                catalog, spec.streamed_table, OnlineConfig(num_trials=TRIALS, seed=11)
            ).run(plan, BATCHES)
        )
        engine = ShardedQueryEngine(
            catalog,
            spec.streamed_table,
            OnlineConfig(num_trials=TRIALS, seed=11, shards=2),
        )
        sharded = []
        for partial in engine.run(plan, BATCHES):
            assert multiprocessing.active_children() == []
            sharded.append(partial)
        verdict = analyze_shardability(plan, spec.streamed_table)
        assert engine.shard_plan == verdict and verdict.shardable
        assert engine.shard_cpu_seconds == {}
        assert len(sharded) == len(serial) == BATCHES
        for s, p in zip(serial, sharded):
            context = f"{name} batch {s.batch_no}"
            assert (p.batch_no, p.is_final, p.fraction_processed) == (
                s.batch_no, s.is_final, s.fraction_processed
            ), context
            assert counts(p.metrics) == counts(s.metrics), context
            assert_cells_identical(s.rows, p.rows, context)

    @pytest.mark.parametrize("source,name", [("tpch", "Q1"), ("conviva", "C5")])
    def test_four_shards(self, source, name, catalogs):
        spec = spec_of(source, name)
        plan = spec.plan
        serial = run(OnlineQueryEngine, spec, plan, catalogs[source])
        engine, sharded = run_sharded(spec, plan, catalogs[source], shards=4)
        assert engine.shard_plan.shardable
        assert_partials_identical(serial, sharded, f"{name} shards=4")

    def test_one_shard_is_serial(self, catalogs):
        spec = spec_of("tpch", "Q1")
        plan = spec.plan
        serial = run(OnlineQueryEngine, spec, plan, catalogs["tpch"])
        _, sharded = run_sharded(spec, plan, catalogs["tpch"], shards=1)
        assert_partials_identical(serial, sharded, "Q1 shards=1")


# ``spec.plan`` builds a fresh plan, and operator labels carry its node
# ids: runs that compare metrics share one plan object.
def run(engine_cls, spec, plan, catalog, batches=BATCHES, **config):
    engine = engine_cls(
        catalog,
        spec.streamed_table,
        OnlineConfig(num_trials=TRIALS, seed=11, **config),
    )
    return list(engine.run(plan, batches))


def run_sharded(spec, plan, catalog, shards, batches=BATCHES):
    engine = ShardedQueryEngine(
        catalog,
        spec.streamed_table,
        OnlineConfig(num_trials=TRIALS, seed=11, shards=shards),
    )
    return engine, list(engine.run(plan, batches))


def assert_partials_identical(serial, sharded, context):
    assert len(sharded) == len(serial)
    for s, p in zip(serial, sharded):
        where = f"{context} batch {s.batch_no}"
        assert (p.batch_no, p.is_final, p.fraction_processed) == (
            s.batch_no, s.is_final, s.fraction_processed
        ), where
        assert counts(p.metrics) == counts(s.metrics), where
        assert_cells_identical(s.rows, p.rows, where)


class TestFallback:
    def test_non_shardable_runs_single_process(self, catalogs):
        spec = spec_of("tpch", "Q6")  # scalar aggregate: never shardable
        plan = spec.plan
        serial = run(OnlineQueryEngine, spec, plan, catalogs["tpch"])
        engine, fallback = run_sharded(spec, plan, catalogs["tpch"], shards=4)
        assert engine.shard_plan == analyze_shardability(plan, spec.streamed_table)
        assert not engine.shard_plan.shardable
        assert "scalar aggregate" in engine.shard_plan.reason
        assert multiprocessing.active_children() == []
        assert_partials_identical(serial, fallback, "Q6 fallback")


class TestObservability:
    def test_run_to_completion(self, catalogs):
        spec = spec_of("conviva", "C2")
        engine = ShardedQueryEngine(
            catalogs["conviva"],
            spec.streamed_table,
            OnlineConfig(num_trials=TRIALS, seed=11, shards=2),
        )
        plan = spec.plan
        final = engine.run_to_completion(plan, 3)
        assert final.is_final
        assert engine.shard_plan.shardable
        ref = OnlineQueryEngine(
            catalogs["conviva"],
            spec.streamed_table,
            OnlineConfig(num_trials=TRIALS, seed=11),
        ).run_to_completion(plan, 3)
        assert_cells_identical(ref.rows, final.rows, "C2 final")


class TestShardIds:
    def test_deterministic_and_group_stable(self, tpch_small):
        rel = tpch_small.catalog().get("lineorder")
        ids1 = shard_ids(rel, ("custkey",), 4)
        ids2 = shard_ids(rel, ("custkey",), 4)
        assert np.array_equal(ids1, ids2)
        assert ids1.min() >= 0 and ids1.max() < 4
        # All rows of one key value land on one shard.
        key_values = rel.columns["custkey"]
        for value in np.unique(key_values)[:20]:
            owners = np.unique(ids1[key_values == value])
            assert len(owners) == 1

    def test_spreads_shards(self, tpch_small):
        rel = tpch_small.catalog().get("lineorder")
        ids = shard_ids(rel, ("custkey",), 4)
        per_shard = np.bincount(ids, minlength=4)
        # splitmix64 mixing: no shard should be starved on real keys.
        assert per_shard.min() > 0.1 * len(rel) / 4

    def test_string_keys(self, conviva_small):
        rel = conviva_small.catalog().get("sessions")
        ids = shard_ids(rel, ("cdn", "isp"), 3)
        assert ids.min() >= 0 and ids.max() < 3
        assert len(np.unique(ids)) == 3


def _mixed_key_relation(n=3000):
    schema = Schema(
        [("s", ColumnType.STRING), ("i", ColumnType.INT),
         ("f", ColumnType.FLOAT), ("m", ColumnType.STRING)]
    )
    rng = np.random.default_rng(0)
    mixed = np.empty(n, dtype=object)
    pool = [1, 1.0, True, "1", None, "x", 2.5, float("nan")]
    for row, pick in enumerate(rng.integers(0, len(pool), n)):
        mixed[row] = pool[pick]
    return Relation(
        schema,
        {
            "s": np.array(["ab", "cd", "é", "", "long string"], dtype=object)[
                rng.integers(0, 5, n)
            ],
            "i": rng.integers(-5, 5, n),
            "f": rng.normal(size=n).round(1),
            "m": mixed,
        },
    )


def _rowwise_shard_ids(rel, key, count):
    """The definition, one Python int at a time: FNV-1a over the
    splitmix64-mixed bits (numbers) or text CRC32 (anything else)."""
    mask = 2**64 - 1

    def mix(v):
        v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & mask
        v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & mask
        return v ^ (v >> 31)

    out = []
    for row in range(len(rel)):
        h = 14695981039346656037
        for name in key:
            arr = rel.columns[name]
            if arr.dtype.kind in "iub":
                v = int(arr[row]) & mask
            elif arr.dtype.kind == "f":
                v = int(arr[row : row + 1].astype(np.float64).view(np.uint64)[0])
            else:
                v = zlib.crc32(str(arr[row]).encode("utf-8"))
            h = ((h ^ mix(v)) * 1099511628211) & mask
        out.append(h % count)
    return np.array(out)


class TestShardIdsHashValuesNotRows:
    """String keys hash each distinct value once (the dictionary page
    when the column carries one, a sweep otherwise) and gather; the ids
    are those of the row-wise definition, bit for bit."""

    KEYS = [("s",), ("i",), ("f",), ("m",), ("s", "i", "m"), ("f", "s")]

    @pytest.mark.parametrize("encoded", [False, True], ids=["plain", "encoded"])
    @pytest.mark.parametrize("key", KEYS, ids=["+".join(k) for k in KEYS])
    def test_matches_the_rowwise_definition(self, key, encoded):
        rel = _mixed_key_relation()
        if encoded:
            rel = encode_relation(rel, ["s", "m"])
            assert set(rel.encodings) == {"s", "m"}
        for count in (2, 3):
            assert np.array_equal(
                shard_ids(rel, key, count), _rowwise_shard_ids(rel, key, count)
            )

    def test_assignment_is_pinned(self):
        """The assignment every recorded sharded result was split by."""
        ids = shard_ids(_mixed_key_relation(), ("s", "i", "m"), 4)
        assert ids.dtype == np.int64
        assert hashlib.sha256(ids.tobytes()).hexdigest() == (
            "e6481de1388b088a0bc14b3a418129ed5d902eee6398ab127ade600b127f5976"
        )

    def test_distinct_values_are_hashed_once(self, monkeypatch, conviva_small):
        calls = []
        crc32 = zlib.crc32
        monkeypatch.setattr(
            keys.zlib, "crc32", lambda data: calls.append(data) or crc32(data)
        )
        rel = conviva_small.catalog().get("sessions")
        shard_ids(rel, ("cdn", "isp"), 2)
        distinct = len(set(rel.columns["cdn"])) + len(set(rel.columns["isp"]))
        assert len(calls) == distinct < len(rel) / 10
        calls.clear()
        plain = Relation(rel.schema, rel.columns)  # no dictionary carried
        assert np.array_equal(shard_ids(plain, ("cdn", "isp"), 2), shard_ids(rel, ("cdn", "isp"), 2))
        assert len(calls) == 2 * distinct
