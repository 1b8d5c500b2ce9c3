"""Tests for the unit loop: per-operator and per-unit instrumentation.

Also home of :func:`_assert_rows_identical`, the bit-identity helper other
suites import (points *and* bootstrap trials, order-insensitive).
"""

import numpy as np

from repro.core import OnlineConfig, OnlineQueryEngine
from repro.core.compiler import ExecutionUnit
from repro.core.values import UncertainValue
from repro.engine import run_units
from tests.conftest import KX_SCHEMA, random_kx
from repro.relational import Catalog, col, scan, sum_


class _Unit(ExecutionUnit):
    def __init__(self, label, produces=(), consumes=()):
        self.label = label
        self.produces = frozenset(produces)
        self.consumes = frozenset(consumes)

    def run(self, ctx):
        pass


def _canonical(rows, names):
    """Sort rows by their point values for order-insensitive comparison."""

    def point(v):
        return v.value if isinstance(v, UncertainValue) else v

    return sorted(rows, key=lambda r: tuple(repr(point(r[n])) for n in names))


def _assert_rows_identical(rows_a, rows_b, names, where):
    assert len(rows_a) == len(rows_b), where
    for ra, rb in zip(_canonical(rows_a, names), _canonical(rows_b, names)):
        for name in names:
            va, vb = ra[name], rb[name]
            if isinstance(va, UncertainValue):
                assert isinstance(vb, UncertainValue), where
                assert va.value == vb.value, f"{where}: {name}"
                assert np.array_equal(va.trials, vb.trials, equal_nan=True), (
                    f"{where}: {name} trials"
                )
            else:
                assert va == vb, f"{where}: {name}"


class TestOpSeconds:
    def test_per_operator_and_per_unit_timings_recorded(self):
        catalog = Catalog({"t": random_kx(400, seed=1, groups=4)})
        plan = scan("t", KX_SCHEMA).select(col("x") > 10.0).aggregate(
            ["k"], [sum_("y", "sy")]
        )
        engine = OnlineQueryEngine(
            catalog, "t", OnlineConfig(num_trials=10, seed=1)
        )
        engine.run_to_completion(plan, 4)
        for bm in engine.metrics.batches:
            labels = set(bm.op_seconds)
            assert any(label.startswith("scan:") for label in labels)
            assert any(label.startswith("aggregate:") for label in labels)
            assert any(label.startswith("pipeline:") for label in labels)
        totals = engine.metrics.total_op_seconds()
        assert all(seconds >= 0 for seconds in totals.values())


class _SleepUnit(_Unit):
    """A unit that just sleeps for a fixed time."""

    def __init__(self, label, produces, seconds):
        super().__init__(label, produces=produces)
        self.seconds = seconds

    def run(self, ctx):
        import time

        time.sleep(self.seconds)


def _fresh_ctx():
    from repro.core.blocks import RuntimeContext
    from repro.metrics import BatchMetrics

    rel = random_kx(10, seed=0, groups=2)
    ctx = RuntimeContext(Catalog({"t": rel}), "t", len(rel), OnlineConfig(num_trials=5))
    bm = BatchMetrics(1)
    ctx.begin_batch(1, rel, bm)
    return ctx, bm


class TestUnitSeconds:
    """wall_seconds is the controller's true batch elapsed; unit_seconds is
    the CPU-occupancy sum over units."""

    def test_serial_accumulates_unit_seconds(self):
        ctx, bm = _fresh_ctx()
        units = [_SleepUnit("a", {1}, 0.01), _SleepUnit("b", {2}, 0.01)]
        run_units(units, ctx)
        assert bm.unit_seconds >= 0.02
