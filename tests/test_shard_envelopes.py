"""Pickle round-trips of the engine's value types.

Relations (with encoding and lineage sidecars), disk-table chunk views
(memmap-backed buffers), :class:`UncertainValue` cells, batch metrics
and the run configuration must pickle without losing a bit, under any
pickle protocol.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import OnlineConfig
from repro.core.values import UncertainValue
from repro.metrics.stats import BatchMetrics
from repro.relational import ColumnType, Schema, relation_from_columns
from repro.relational.relation import Relation
from repro.storage import ingest_chunks
from repro.storage.columns import CODE_DTYPE
from repro.storage.lineage import LineageColumn


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def assert_relation_equal(a: Relation, b: Relation):
    assert a.schema.names == b.schema.names
    assert len(a) == len(b)
    for name in a.schema.names:
        ca, cb = a.columns[name], b.columns[name]
        assert ca.dtype == cb.dtype
        if ca.dtype.kind == "f":
            assert np.array_equal(ca, cb, equal_nan=True), name
        else:
            assert all(
                x == y or (x != x and y != y) for x, y in zip(ca, cb)
            ), name
    assert np.array_equal(a.mult, b.mult)
    if a.trial_mults is None:
        assert b.trial_mults is None
    else:
        assert np.array_equal(a.trial_mults, b.trial_mults)


class TestRelationRoundTrip:
    def test_plain(self, kx_relation):
        assert_relation_equal(kx_relation, roundtrip(kx_relation))

    def test_with_trials(self, kx_relation):
        trials = np.arange(len(kx_relation) * 3, dtype=np.float64).reshape(
            len(kx_relation), 3
        )
        tagged = kx_relation.with_mult(kx_relation.mult, trials)
        assert_relation_equal(tagged, roundtrip(tagged))

    def test_sidecars_survive(self, tmp_path):
        """A DiskTable chunk view (encoded strings + memmap numerics)
        pickles into a self-contained relation, sidecars intact."""
        schema = Schema(
            [("k", ColumnType.INT), ("s", ColumnType.STRING),
             ("x", ColumnType.FLOAT)]
        )
        src = relation_from_columns(
            schema,
            k=[1, 2, 3, 4], s=["a", "b", "a", "c"], x=[1.5, 2.5, 3.5, 4.5],
        )
        table = ingest_chunks(str(tmp_path / "t"), schema, [src, src])
        view = table.chunk(0)
        assert "s" in view.encodings  # precondition: sidecar attached
        back = roundtrip(view)
        assert_relation_equal(view, back)
        assert "s" in back.encodings
        enc_a, enc_b = view.encodings["s"], back.encodings["s"]
        assert np.array_equal(enc_a.codes, enc_b.codes)
        assert enc_a.page.tolist() == enc_b.page.tolist()
        # The unpickled sidecar dict must be private, not the shared
        # empty-dict singleton or an alias of the original.
        back.encodings["__probe__"] = None
        assert "__probe__" not in view.encodings
        assert "__probe__" not in Relation._from_parts(
            schema, dict(src.columns), src.mult, None
        ).encodings

    def test_lineage_sidecar(self, kx_relation):
        # An attached column is its gids; the sidecar names the block column.
        columns = dict(kx_relation.columns, k=np.array([0, 1] * 6, dtype=CODE_DTYPE))
        rel = Relation._from_parts(
            kx_relation.schema, columns, kx_relation.mult, None,
            lineage={"k": LineageColumn(7, "v")},
        )
        back = roundtrip(rel)
        assert back.lineage == {"k": LineageColumn(7, "v")}
        assert np.array_equal(back.columns["k"], columns["k"])
        assert back.columns["k"].dtype == CODE_DTYPE

    def test_whole_disk_table_relation(self, tmp_path):
        schema = Schema([("k", ColumnType.INT), ("x", ColumnType.FLOAT)])
        src = relation_from_columns(schema, k=[1, 2], x=[0.25, -0.5])
        table = ingest_chunks(str(tmp_path / "t2"), schema, [src])
        back = roundtrip(table.relation())
        assert_relation_equal(table.relation(), back)

    @settings(max_examples=40, deadline=None)
    @given(
        xs=st.lists(
            st.one_of(
                st.floats(allow_infinity=False), st.just(float("nan"))
            ),
            max_size=30,
        )
    )
    def test_float_columns_bitwise(self, xs):
        schema = Schema([("x", ColumnType.FLOAT)])
        rel = relation_from_columns(schema, x=np.array(xs, dtype=np.float64))
        back = roundtrip(rel)
        a, b = rel.columns["x"], back.columns["x"]
        # bit-level equality, not just value equality (NaN payloads, -0.0)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @settings(max_examples=40, deadline=None)
    @given(
        ss=st.lists(
            st.one_of(st.text(max_size=8), st.none()), max_size=30
        )
    )
    def test_object_columns_with_none(self, ss):
        schema = Schema([("s", ColumnType.STRING)])
        rel = relation_from_columns(schema, s=np.array(ss, dtype=object))
        back = roundtrip(rel)
        assert list(back.columns["s"]) == list(rel.columns["s"])

    def test_empty_relation(self):
        schema = Schema([("k", ColumnType.INT), ("x", ColumnType.FLOAT)])
        rel = relation_from_columns(schema, k=[], x=[])
        back = roundtrip(rel)
        assert len(back) == 0
        assert back.schema.names == ["k", "x"]


class TestResultRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        point=st.one_of(
            st.floats(allow_infinity=False), st.just(float("nan"))
        ),
        trials=st.lists(
            st.floats(allow_infinity=False, allow_nan=False), max_size=16
        ),
    )
    def test_uncertain_value(self, point, trials):
        uv = UncertainValue(point, np.array(trials, dtype=np.float64))
        back = roundtrip(uv)
        assert back.value == point or (
            back.value != back.value and point != point
        )
        assert np.array_equal(back.trials, uv.trials, equal_nan=True)

    def test_batch_metrics(self):
        bm = BatchMetrics(3)
        bm.new_tuples = 128
        bm.wall_seconds = 0.125
        bm.recovered = True
        back = roundtrip(bm)
        assert back.batch_no == 3
        assert back.new_tuples == 128
        assert back.wall_seconds == 0.125
        assert back.recovered


class TestEnvelopeRoundTrip:
    def test_fault_plan_in_config(self):
        cfg = OnlineConfig(faults="batch@3,sentinel@2", shards=2)
        back = roundtrip(cfg)
        assert back.faults == "batch@3,sentinel@2"
        assert back.shards == 2


@pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
def test_protocol_compat(kx_relation, protocol):
    """A relation does not depend on a specific pickle protocol."""
    data = pickle.dumps(kx_relation, protocol=protocol)
    assert_relation_equal(kx_relation, pickle.loads(data))
