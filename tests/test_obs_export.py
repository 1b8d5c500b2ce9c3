"""Live telemetry export (``repro.obs.export``) and its CLI surfaces:
Prometheus text rendering + parsing, the textfile exporter and the run
command's ``--metrics-textfile``, and the pinned ``report --json``
artifact."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.obs import NULL_TRACER, MetricsRegistry, Observability, read_events
from repro.obs.export import (
    TextfileExporter,
    parse_prometheus_text,
    prom_name,
    prometheus_text,
)
from repro.obs.report import (
    REPORT_FIELDS,
    REPORT_SCHEMA_VERSION,
    TraceSummary,
    validate_report,
)


def make_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.gauge("nd.rows", op="select:1").set(42)
    reg.gauge("nd.rows", op="join:2").set(7)
    reg.counter("op.rows_in", op="select:1").inc(1000)
    reg.counter("recovery.failures").inc(2)
    reg.histogram("batch.seconds").observe(0.5)
    reg.histogram("batch.seconds").observe(1.5)
    reg.gauge("shard.0.cpu_seconds").set(0.25)
    return reg


class TestLazyImport:
    def test_engine_import_leaves_exporters_unloaded(self):
        """The engine imports ``repro.obs`` on every run; the exporter
        loads only when a name is used."""
        code = (
            "import sys, repro.core\n"
            "loaded = [m for m in ('repro.obs.export',) if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        subprocess.run(
            [sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src}
        )

    def test_lazy_names_resolve(self):
        import repro.obs
        import repro.obs.export

        assert repro.obs.TextfileExporter is repro.obs.export.TextfileExporter
        assert set(repro.obs.__all__) <= set(dir(repro.obs)) | set(repro.obs._LAZY)
        with pytest.raises(AttributeError):
            repro.obs.no_such_name


class TestPrometheusText:
    def test_names_prefixed_and_sanitized(self):
        assert prom_name("nd.rows") == "iolap_nd_rows"
        assert prom_name("state.bytes{x}") == "iolap_state_bytes_x_"

    def test_round_trip(self):
        text = prometheus_text(make_registry())
        parsed = parse_prometheus_text(text)
        assert parsed['iolap_nd_rows{op="select:1"}'] == 42.0
        assert parsed['iolap_nd_rows{op="join:2"}'] == 7.0
        assert parsed['iolap_op_rows_in_total{op="select:1"}'] == 1000.0
        assert parsed["iolap_recovery_failures_total"] == 2.0
        assert parsed["iolap_shard_0_cpu_seconds"] == 0.25

    def test_histogram_expansion(self):
        parsed = parse_prometheus_text(prometheus_text(make_registry()))
        assert parsed["iolap_batch_seconds_count"] == 2.0
        assert parsed["iolap_batch_seconds_sum"] == 2.0
        assert parsed["iolap_batch_seconds_min"] == 0.5
        assert parsed["iolap_batch_seconds_max"] == 1.5

    def test_type_comments_and_counter_suffix(self):
        text = prometheus_text(make_registry())
        assert "# TYPE iolap_nd_rows gauge" in text
        assert "# TYPE iolap_recovery_failures_total counter" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.gauge("state.bytes", entry='we"ird\\x').set(1)
        text = prometheus_text(reg)
        assert r'entry="we\"ird\\x"' in text
        parse_prometheus_text(text)  # must stay parseable

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""
        assert parse_prometheus_text("") == {}

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_prometheus_text("iolap_ok 1\nwhat even is this?!")

    def test_deterministic_output(self):
        assert prometheus_text(make_registry()) == prometheus_text(
            make_registry()
        )


class TestTextfileExporter:
    def test_atomic_write_and_rewrite(self, tmp_path):
        reg = make_registry()
        path = str(tmp_path / "iolap.prom")
        exporter = TextfileExporter(path, reg)
        exporter.write()
        assert parse_prometheus_text(open(path).read())["iolap_nd_rows"
                                                        '{op="select:1"}'] == 42.0
        reg.gauge("nd.rows", op="select:1").set(50)
        exporter.write()
        assert exporter.writes == 2
        parsed = parse_prometheus_text(open(path).read())
        assert parsed['iolap_nd_rows{op="select:1"}'] == 50.0
        assert not [p for p in os.listdir(tmp_path) if ".tmp." in p]


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_cli(argv: list[str]) -> None:
    """One run command in a fresh process, as a textfile collector sees
    it (the kernel cache counters it exports are process-global)."""
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        check=True, env={**os.environ, "PYTHONPATH": SRC},
    )


class TestCliMetrics:
    """The run command's ``--metrics-textfile``."""

    ARGS = ["--workload", "tpch", "--query", "Q1", "--scale", "0.05",
            "--batches", "4", "--trials", "8", "-q"]

    def test_textfile_export(self, tmp_path):
        path = str(tmp_path / "iolap.prom")
        assert main([*self.ARGS, "--metrics-textfile", path]) == 0
        parsed = parse_prometheus_text(open(path).read())
        assert any(k.startswith("iolap_op_rows_in_total") for k in parsed)
        assert any(k.startswith("iolap_state_") for k in parsed)

    def test_textfile_has_no_costmodel_series(self, tmp_path):
        path = str(tmp_path / "iolap.prom")
        assert main([*self.ARGS, "--metrics-textfile", path,
                     "--batches", "7"]) == 0
        parsed = parse_prometheus_text(open(path).read())
        assert any(k.startswith("iolap_op_rows_in_total") for k in parsed)
        assert any(k.startswith("iolap_state_") for k in parsed)
        assert not any(k.startswith("iolap_costmodel_") for k in parsed)

    def test_op_labels_are_stable_across_runs(self, tmp_path):
        """Each run is its own process: the exported ``op`` labels must
        not carry memory addresses."""
        import re

        label_sets = []
        for run in range(2):
            path = str(tmp_path / f"run{run}.prom")
            _run_cli([*self.ARGS, "--batches", "2", "--metrics-textfile", path])
            parsed = parse_prometheus_text(open(path).read())
            label_sets.append({
                m.group(1) for k in parsed for m in [re.search(r'op="([^"]*)"', k)] if m
            })
        assert label_sets[0] == label_sets[1]
        assert any(label.startswith("filter:") for label in label_sets[0])

    @pytest.mark.parametrize("engine", ["hda", "batch"])
    def test_requires_iolap_engine(self, engine, tmp_path, capsys):
        path = tmp_path / "iolap.prom"
        assert main([*self.ARGS, "--engine", engine,
                     "--metrics-textfile", str(path)]) == 2
        assert "--metrics-textfile requires --engine iolap" in capsys.readouterr().err
        assert not path.exists()

    def test_unwritable_textfile_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing-dir" / "iolap.prom"
        assert main([*self.ARGS, "--metrics-textfile", str(path)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_tracing_leaves_the_exposition_unchanged(self, tmp_path):
        """A traced run writes both files, and its exposition is the one
        an untraced run writes."""
        traced, plain = tmp_path / "traced.prom", tmp_path / "plain.prom"
        trace = tmp_path / "run.jsonl"
        _run_cli([*self.ARGS, "--metrics-textfile", str(traced),
                  "--trace-out", str(trace)])
        _run_cli([*self.ARGS, "--metrics-textfile", str(plain)])
        assert any(e["kind"] == "span" for e in read_events(str(trace)))
        assert traced.read_text() == plain.read_text()


def _trace_file(tmp_path) -> str:
    path = str(tmp_path / "run.jsonl")
    assert main(["--workload", "tpch", "--query", "Q1", "--scale", "0.05",
                 "--batches", "4", "--trials", "8", "--trace-out", path,
                 "-q"]) == 0
    return path


class TestReportJson:
    def test_cli_emits_pinned_schema(self, tmp_path, capsys):
        path = _trace_file(tmp_path)
        capsys.readouterr()
        assert main(["report", path, "--json", "-q"]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_report(doc)
        assert doc["schema_version"] == REPORT_SCHEMA_VERSION
        assert doc["num_batches"] == 4
        assert doc["run_seconds"] > 0
        rollup_names = {row["name"] for row in doc["span_rollup"]}
        assert {"run", "batch", "unit"} <= rollup_names
        assert doc["state_series"]
        assert doc["recovery"] == []

    def test_summary_to_dict_matches_text_report(self, tmp_path):
        path = _trace_file(tmp_path)
        summary = TraceSummary.from_file(path)
        doc = summary.to_dict()
        assert doc["num_events"] == len(summary.events)
        assert doc["by_kind"] == summary.by_kind

    def test_validator_rejects_unknown_field(self, tmp_path):
        doc = TraceSummary.from_file(_trace_file(tmp_path)).to_dict()
        doc["surprise"] = 1
        with pytest.raises(ValueError, match="unknown field"):
            validate_report(doc)

    def test_validator_rejects_missing_field(self, tmp_path):
        doc = TraceSummary.from_file(_trace_file(tmp_path)).to_dict()
        del doc["span_rollup"]
        with pytest.raises(ValueError, match="missing field"):
            validate_report(doc)

    def test_validator_rejects_wrong_version(self):
        doc = TraceSummary([]).to_dict()
        doc["schema_version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            validate_report(doc)

    def test_empty_trace_still_valid(self):
        doc = TraceSummary([]).to_dict()
        validate_report(doc)
        assert set(doc) == set(REPORT_FIELDS)

    def test_v3_dropped_the_tier_summary(self):
        # v2 carried a "rollup" group-tier summary; v3 removed it with the
        # tier, so a v2 document no longer validates.
        assert REPORT_SCHEMA_VERSION == 3
        doc = TraceSummary([]).to_dict()
        assert "rollup" not in doc
        doc.update(schema_version=2, rollup={})
        with pytest.raises(ValueError, match="schema version"):
            validate_report(doc)


class TestObservabilitySession:
    def test_tracer_follows_sinks(self):
        """No sink, no tracer: ``Observability()`` keeps a live registry
        under ``NULL_TRACER``; a session with a sink traces."""
        obs = Observability()
        assert obs.enabled
        assert obs.tracer is NULL_TRACER
        assert obs.metrics.enabled
        obs.metrics.counter("x").inc()
        obs.emit_metrics(1)  # nothing to receive the samples
        obs.close()
        traced, sink = Observability.in_memory()
        assert traced.tracer.enabled
        traced.metrics.counter("x").inc()
        traced.emit_metrics(1)
        traced.close()
        assert [(e["kind"], e["name"]) for e in sink.events] == [("counter", "x")]
