"""Mini-batches pulled on demand (:class:`repro.batching.BatchSource`).

A run gathers batch ``i`` when it reaches it: the first estimate waits
for one gather, a run stopped after batch ``k`` gathers ``k``, and a
recovery replay re-gathers the same bits. Every pulled batch equals what
an eager gather of all batches up front produced.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.batching import BatchSource, Partitioner, StratifiedPartitioner
from repro.batching import partitioner as partitioner_mod
from repro.core import OnlineConfig, OnlineQueryEngine
from repro.relational import Catalog, col, count, scan, sum_
from repro.relational.relation import LazyTrials, Relation
from repro.storage import encode_relation, open_table, write_relation
from repro.workloads import TPCH_QUERIES
from tests.conftest import KX_SCHEMA, random_kx

FLAT = scan("t", KX_SCHEMA).select(col("x") > 10.0).aggregate(
    ["k"], [sum_("y", "sy"), count("n")]
)


def eager_batches(relation: Relation, indices, columns=None) -> list[Relation]:
    """Every batch gathered up front: the reference a pulled batch must
    equal (a contiguous batch is a slice, any other a ``take``)."""
    if columns is not None:
        relation = relation.project(columns)
    out = []
    for ix in indices:
        if len(ix) and int(ix[-1]) - int(ix[0]) == len(ix) - 1:
            batch = relation.slice(int(ix[0]), int(ix[-1]) + 1)
        else:
            batch = relation.take(ix)
        if not isinstance(batch._trials, LazyTrials):
            batch = batch.with_mult(batch.mult, LazyTrials(ix))
        out.append(batch)
    return out


def assert_same_bits(got: Relation, want: Relation) -> None:
    assert got.schema.names == want.schema.names
    for name in want.schema.names:
        g, w = got.columns[name], want.columns[name]
        assert g.dtype == w.dtype
        if w.dtype == object:
            assert g.tolist() == w.tolist()
        else:
            assert g.tobytes() == w.tobytes()
    assert got.mult.tobytes() == want.mult.tobytes()
    assert isinstance(got._trials, LazyTrials)
    assert got._trials.ids.tobytes() == want._trials.ids.tobytes()
    assert got._trials.source is None
    assert set(got.encodings) == set(want.encodings)
    for name, enc in want.encodings.items():
        mine = got.encodings[name]
        assert mine.page is enc.page
        assert mine.codes.tobytes() == enc.codes.tobytes()
        assert (mine.null_mask is None) == (enc.null_mask is None)
        if enc.null_mask is not None:
            assert mine.null_mask.tobytes() == enc.null_mask.tobytes()


def relation_digest(rel: Relation) -> str:
    h = hashlib.sha256()
    for name in rel.schema.names:
        h.update(name.encode())
        arr = rel.columns[name]
        h.update(repr(arr.tolist()).encode() if arr.dtype == object else arr.tobytes())
    h.update(rel.mult.tobytes())
    h.update(rel._trials.ids.tobytes())
    return h.hexdigest()


class TestPulledEqualsEager:
    @pytest.mark.parametrize("mode", ["shuffle", "blocks", "sequential"])
    @pytest.mark.parametrize("columns", [None, ["x", "k"]])
    def test_each_mode(self, mode, columns):
        rel = encode_relation(random_kx(300, seed=5))
        part = Partitioner(mode=mode, seed=11, block_rows=16)
        source = part.source(rel, 7, columns)
        assert isinstance(source, BatchSource) and len(source) == 7
        want = eager_batches(rel, part.partition_indices(len(rel), 7), columns)
        for i in range(len(source)):
            assert_same_bits(source[i], want[i])
        if mode == "sequential":
            assert np.shares_memory(source[0].columns["x"], rel.columns["x"])

    def test_stratified(self):
        rel = random_kx(400, seed=2, groups=5)
        part = StratifiedPartitioner("k", seed=3)
        source = part.source(rel, 6)
        want = eager_batches(rel, part.partition_relation_indices(rel, 6))
        for i in range(len(source)):
            assert_same_bits(source[i], want[i])

    @pytest.mark.parametrize("mode", ["shuffle", "sequential"])
    def test_disk_table_keeps_its_offsets(self, tmp_path, mode):
        rel = encode_relation(random_kx(250, seed=8))
        write_relation(str(tmp_path / "t"), rel, chunk_rows=64)
        disk = open_table(str(tmp_path / "t")).relation()
        part = Partitioner(mode=mode, seed=4)
        source = part.source(disk, 5, ["k", "x"])
        want = eager_batches(disk, part.partition_indices(len(disk), 5), ["k", "x"])
        for i in range(len(source)):
            assert_same_bits(source[i], want[i])
            # The ids are the disk table's row offsets.
            assert source[i]._trials.ids.tobytes() == (
                part.partition_indices(len(disk), 5)[i].astype(
                    source[i]._trials.ids.dtype
                ).tobytes()
            )

    def test_partition_is_the_source_as_a_list(self):
        rel = random_kx(120, seed=1)
        part = Partitioner(seed=6)
        listed = part.partition(rel, 4, ["k", "y"])
        source = part.source(rel, 4, ["k", "y"])
        assert len(listed) == 4
        for a, b in zip(listed, source):
            assert_same_bits(a, b)

    def test_each_access_gathers_afresh(self):
        source = Partitioner(seed=6).source(random_kx(60, seed=1), 3)
        first, again = source[1], source[1]
        assert first is not again
        assert_same_bits(first, again)


@pytest.fixture
def gathers(monkeypatch):
    """Every ``(batch digest, row-index digest)`` the run gathers, in order."""
    seen: list[tuple[str, str]] = []
    real = partitioner_mod._materialize_batch

    def counting(relation, ix):
        batch = real(relation, ix)
        seen.append((hashlib.sha256(ix.tobytes()).hexdigest(), relation_digest(batch)))
        return batch

    monkeypatch.setattr(partitioner_mod, "_materialize_batch", counting)
    return seen


def kx_catalog(n: int = 2000) -> Catalog:
    return Catalog({"t": random_kx(n, seed=3)})


class TestOnDemand:
    def test_first_partial_gathers_one_batch(self, gathers):
        engine = OnlineQueryEngine(kx_catalog(), "t", OnlineConfig(num_trials=10, seed=2))
        run = engine.run(FLAT, 20)
        first = next(run)
        assert first.batch_no == 1
        assert len(gathers) == 1
        run.close()

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_closing_after_k_batches_gathers_k(self, gathers, k):
        engine = OnlineQueryEngine(kx_catalog(), "t", OnlineConfig(num_trials=10, seed=2))
        run = engine.run(FLAT, 20)
        for _ in range(k):
            next(run)
        run.close()
        assert len(gathers) == k
        assert len({ix for ix, _ in gathers}) == k

    def test_hda_pulls_its_batches(self, gathers):
        from repro.baselines import HDAExecutor

        hda = HDAExecutor(kx_catalog(), "t", seed=2)
        run = hda.run(FLAT, 10)
        next(run)
        next(run)
        run.close()
        assert len(gathers) == 2


class TestReplayRegathers:
    def test_sentinel_replay_regathers_same_bits(self, gathers, tpch_small):
        spec = TPCH_QUERIES["Q17"]
        catalog = tpch_small.catalog()

        def run(faults):
            engine = OnlineQueryEngine(
                catalog, spec.streamed_table,
                OnlineConfig(num_trials=8, seed=4, faults=faults),
            )
            return engine, engine.run_to_completion(spec.plan, 8)

        _, clean = run(None)
        clean_gathers = list(gathers)
        assert len(clean_gathers) == 8
        gathers.clear()
        engine, faulted = run("sentinel@5")
        assert engine.metrics.num_recoveries >= 1
        # The replay re-gathered an already processed prefix ...
        assert len(gathers) > 8
        # ... and every gather of one batch is the bits the clean run saw.
        by_index = dict(clean_gathers)
        for ix, digest in gathers:
            assert by_index[ix] == digest
        assert faulted.to_relation().bag_equal(clean.to_relation(), 9)


class TestSanitizedSequential:
    """``sequential`` batches are zero-copy slices, now cut while the
    sanitizer's slice hook is installed."""

    def run(self, catalog, **config):
        engine = OnlineQueryEngine(
            catalog, "t",
            OnlineConfig(num_trials=6, seed=3, **config),
            partition_mode="sequential",
        )
        return engine, list(engine.run(FLAT, 5))

    def test_bit_identical_to_unsanitized(self):
        _, plain = self.run(kx_catalog(500))
        engine, sanitized = self.run(kx_catalog(500), sanitize=True)
        assert engine.metrics.sanitize_seconds > 0
        for a, b in zip(plain, sanitized):
            assert a.to_relation().bag_equal(b.to_relation(), 12)

    def test_seeded_write_into_a_pulled_slice_is_caught(self, monkeypatch):
        from repro.core.operators.base import DeltaBatch
        from repro.core.operators.scan import ScanOp
        from repro.errors import SanitizerViolationError

        def mutating(self, delta, ctx):
            next(iter(ctx.delta.columns.values()))[0] = 0
            return DeltaBatch(ctx.delta, self.empty(ctx))

        monkeypatch.setattr(ScanOp, "process", mutating)
        with pytest.raises(SanitizerViolationError) as excinfo:
            self.run(kx_catalog(500), sanitize=True)
        assert excinfo.value.rule_id == "SAN001"
        assert excinfo.value.owners == ["stream:batch-1"]
