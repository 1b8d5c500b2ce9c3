"""The observability session: one tracer + one metrics registry + sinks.

An :class:`Observability` object is handed to the engine
(``OnlineQueryEngine(..., obs=...)``) and threaded through the runtime
context, so every layer — controller, unit loop, operators, state
stores, the sanitizer — reports into the same timeline. A session
without sinks keeps a live registry but no tracer: no sink would
receive the events, so spans are never built (``iolap
--metrics-textfile`` without ``--trace-out``). The default is
:data:`NULL_OBS`, whose tracer and registry are the inert null
implementations: instrumentation then costs a guard or a no-op method
call and allocates nothing.
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
        sinks = list(sinks)
        self.bus = EventBus(sinks)
        self.tracer: Tracer | NullTracer = (
            Tracer(self.bus, clock) if sinks else NULL_TRACER
        )
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
        if not tracer.enabled:
            return
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
