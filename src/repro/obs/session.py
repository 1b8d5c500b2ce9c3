"""The observability session: one tracer + one metrics registry + sinks.

An :class:`Observability` object is handed to the engine
(``OnlineQueryEngine(..., obs=...)``) and threaded through the runtime
context, so every layer — controller, unit loop, operators, state
stores, the sanitizer — reports into the same timeline. The
default is :data:`NULL_OBS`, whose tracer and registry are the inert
null implementations: instrumentation then costs a guard or a no-op
method call and allocates nothing.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

from repro.obs.registry import NULL_REGISTRY, MetricsRegistry, NullRegistry
from repro.obs.sinks import EventBus, EventSink, JsonlSink, MemorySink
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer


class Observability:
    """Bundles the tracing and metrics state of one engine execution."""

    enabled = True

    def __init__(
        self,
        sinks: Iterable[EventSink] = (),
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.bus = EventBus(sinks)
        self.tracer: Tracer = Tracer(self.bus, clock)
        self.metrics: MetricsRegistry = MetricsRegistry()

    @classmethod
    def in_memory(cls) -> tuple["Observability", MemorySink]:
        """An observability session buffering events in memory (tests)."""
        sink = MemorySink()
        return cls(sinks=[sink]), sink

    @classmethod
    def to_jsonl(cls, path: str) -> "Observability":
        """An observability session streaming events to a JSONL file."""
        return cls(sinks=[JsonlSink.open(path)])

    def emit_metrics(self, batch: int | None = None) -> None:
        """Sample every registry series into counter events (one batch's
        worth of the Fig. 7–10 trajectories)."""
        tracer = self.tracer
        for key, value in self.metrics.scalar_snapshot().items():
            tracer.counter(key, value, batch=batch)

    def flush(self) -> None:
        self.tracer.flush()

    def close(self) -> None:
        self.tracer.flush()
        self.bus.close()

    def __enter__(self) -> "Observability":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class MetricsObservability:
    """A metrics-only session: live registry, inert tracer, no events.

    ``iolap metrics`` exports the registry's signals (``nd.rows``,
    per-op row counters, state gauges) with no trace sink attached. This
    session makes exactly that slice live: ``enabled`` is True so
    operators record their gauges, but the tracer stays
    :data:`NULL_TRACER` (no span allocation) and ``emit_metrics`` is a
    no-op (no per-batch registry -> event sampling), keeping the
    overhead to the registry writes alone.
    """

    enabled = True

    def __init__(self) -> None:
        self.bus = EventBus()
        self.tracer: NullTracer = NULL_TRACER
        self.metrics: MetricsRegistry = MetricsRegistry()

    def emit_metrics(self, batch: int | None = None) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class _NullObservability:
    """Disabled observability: the zero-cost default."""

    enabled = False

    def __init__(self) -> None:
        self.bus = EventBus()
        self.tracer: NullTracer = NULL_TRACER
        self.metrics: NullRegistry = NULL_REGISTRY

    def emit_metrics(self, batch: int | None = None) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


NULL_OBS = _NullObservability()
