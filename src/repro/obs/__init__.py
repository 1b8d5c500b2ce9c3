"""``repro.obs`` — structured tracing and metrics for the online engine.

The subsystem has four pieces, all zero-cost when disabled (the engine's
default is the inert :data:`NULL_OBS`):

* :class:`Tracer` — nested spans over the whole execution path
  (run → batch → execution unit → operator ``process`` →
  bootstrap / range-check / recovery-replay) on one event timeline;
* the event bus and sinks — JSON-lines event log (``--trace-out``),
  in-memory sink for tests, and a Chrome trace-event exporter whose
  output loads in Perfetto (``iolap trace --format chrome``);
* :class:`MetricsRegistry` — counters/gauges/histograms for the paper's
  signals (|U_i| ND-set sizes, variation-range widths, per-entry state
  bytes, recovery depth, per-operator row throughput), sampled into the
  trace and, with ``--metrics-textfile``, rewritten as Prometheus text
  after every batch;
* :class:`ConvergenceReporter` and ``iolap report`` — the live
  estimate ± CI view and the post-hoc trace summary.

See DESIGN.md §9 for the span taxonomy and the event schema.

The engine imports this package on every run, so only the pieces a run
needs load eagerly; the exporter, report and Chrome writer load on
first access to one of their names.
"""

from importlib import import_module

from repro.obs.convergence import ConvergenceReporter
from repro.obs.events import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    read_events,
    validate_event,
    validate_events,
)
from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    metric_key,
)
from repro.obs.session import NULL_OBS, Observability
from repro.obs.sinks import EventBus, EventSink, JsonlSink, MemorySink
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

#: Names served lazily by :func:`__getattr__`, by defining submodule.
_LAZY = {
    "to_chrome": "chrome",
    "write_chrome": "chrome",
    "TextfileExporter": "export",
    "parse_prometheus_text": "export",
    "prometheus_text": "export",
    "REPORT_SCHEMA_VERSION": "report",
    "TraceSummary": "report",
    "render_report": "report",
    "validate_report": "report",
}


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"repro.obs.{module}"), name)
    globals()[name] = value
    return value


__all__ = [
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "NULL_OBS",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "REPORT_SCHEMA_VERSION",
    "ConvergenceReporter",
    "Counter",
    "EventBus",
    "EventSink",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "Observability",
    "Span",
    "TextfileExporter",
    "TraceSummary",
    "Tracer",
    "metric_key",
    "parse_prometheus_text",
    "prometheus_text",
    "read_events",
    "render_report",
    "to_chrome",
    "validate_event",
    "validate_events",
    "validate_report",
    "write_chrome",
]
