"""Tests for the metrics registry and the convergence reporter."""

import math

import numpy as np
import pytest

from repro.obs import (
    NULL_REGISTRY,
    ConvergenceReporter,
    MetricsRegistry,
    Observability,
    metric_key,
)


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("state.total_bytes", {}) == "state.total_bytes"

    def test_labels_sorted(self):
        assert (
            metric_key("nd.rows", {"op": "select:3"}) == "nd.rows{op=select:3}"
        )
        assert metric_key("x", {"b": 2, "a": 1}) == "x{a=1,b=2}"


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        assert reg.snapshot()["c"] == 5.0

    def test_gauge_sets(self):
        reg = MetricsRegistry()
        reg.gauge("g", op="a").set(10)
        reg.gauge("g", op="a").set(3)
        reg.gauge("g", op="b").set(7)
        snap = reg.snapshot()
        assert snap["g{op=a}"] == 3.0
        assert snap["g{op=b}"] == 7.0

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("range.width")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert reg.snapshot()["range.width"] == {
            "count": 3, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0,
        }

    def test_histogram_ignores_nonfinite(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(math.inf)
        h.observe(math.nan)
        assert h.count == 0
        assert reg.snapshot()["h"] == {"count": 0, "sum": 0.0}

    def test_histogram_order_independent(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (5.0, 1.0, 3.0):
            a.histogram("h").observe(v)
        for v in (3.0, 5.0, 1.0):
            b.histogram("h").observe(v)
        assert a.snapshot() == b.snapshot()

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_scalar_snapshot_flattens_histograms(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1)
        reg.histogram("h").observe(2.0)
        reg.histogram("empty")  # no samples: omitted from the scalar view
        flat = reg.scalar_snapshot()
        assert flat == {
            "g": 1.0, "h.count": 1.0, "h.sum": 2.0, "h.min": 2.0, "h.max": 2.0,
        }

    def test_len(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.counter("a")
        reg.gauge("b")
        assert len(reg) == 2


class TestNullRegistry:
    def test_inert(self):
        assert NULL_REGISTRY.enabled is False
        NULL_REGISTRY.counter("x").inc()
        NULL_REGISTRY.gauge("x").set(1)
        NULL_REGISTRY.histogram("x").observe(1.0)
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.scalar_snapshot() == {}
        assert len(NULL_REGISTRY) == 0

    def test_shared_instrument(self):
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.gauge("b")


def make_partial(rows, batch_no=1, num_batches=4):
    from repro.core.result import PartialResult
    from repro.metrics import BatchMetrics
    from repro.relational import ColumnType, Schema

    schema = Schema([("k", ColumnType.INT), ("v", ColumnType.FLOAT)])
    return PartialResult(
        batch_no=batch_no,
        num_batches=num_batches,
        fraction_processed=batch_no / num_batches,
        schema=schema,
        rows=rows,
        metrics=BatchMetrics(batch_no),
    )


def uv(value, trials):
    from repro.core.values import UncertainValue

    return UncertainValue(value, np.asarray(trials, dtype=float))


class TestConvergenceReporter:
    def test_emits_events_and_lines(self):
        obs, sink = Observability.in_memory()
        lines_out = []
        reporter = ConvergenceReporter(obs=obs, emit_line=lines_out.append)
        partial = make_partial([{"k": 1, "v": uv(10.0, [9.0, 11.0])}])
        rendered = reporter.update(partial)
        obs.flush()
        assert len(rendered) == 1
        assert "v = 10" in rendered[0]
        assert any("convergence @ batch 1/4" in line for line in lines_out)
        [event] = [e for e in sink.events if e["kind"] == "convergence"]
        assert event["name"] == "v"
        assert event["batch"] == 1
        assert event["args"]["estimate"] == 10.0
        assert event["args"]["ci_lo"] <= 10.0 <= event["args"]["ci_hi"]

    def test_history_accumulates_per_series(self):
        reporter = ConvergenceReporter()
        for batch in (1, 2, 3):
            reporter.update(
                make_partial([{"k": 1, "v": uv(10.0, [9.0, 11.0])}], batch)
            )
        [points] = reporter.history.values()
        assert [p[0] for p in points] == [1, 2, 3]
        assert len(reporter.final_summary()) == 1
        assert "over 3 batches" in reporter.final_summary()[0]

    def test_max_groups_truncation(self):
        lines_out = []
        reporter = ConvergenceReporter(emit_line=lines_out.append, max_groups=2)
        rows = [{"k": i, "v": uv(float(i), [1.0, 2.0])} for i in range(5)]
        rendered = reporter.update(make_partial(rows))
        assert len(rendered) == 2
        assert any("3 more series" in line for line in lines_out)

    def test_plain_rows_no_output(self):
        lines_out = []
        reporter = ConvergenceReporter(emit_line=lines_out.append)
        assert reporter.update(make_partial([{"k": 1, "v": 2.0}])) == []
        assert lines_out == []

    def test_works_without_obs(self):
        # NULL_OBS default: console reporting still works, no events.
        reporter = ConvergenceReporter()
        rendered = reporter.update(
            make_partial([{"k": 1, "v": uv(10.0, [9.0, 11.0])}])
        )
        assert len(rendered) == 1
