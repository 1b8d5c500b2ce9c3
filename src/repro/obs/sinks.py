"""Event sinks and the bus that fans events out to them.

Sinks are intentionally dumb: they receive already-formed schema-valid
event dicts (see :mod:`repro.obs.events`) in the order the tracer
recorded them — and persist or
buffer them. The bus owns sink lifecycle (flush/close).
"""

from __future__ import annotations

import json
from typing import IO, Iterable


class EventSink:
    """Receives finished event records, one at a time."""

    def emit(self, event: dict) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Make everything emitted so far durable/visible."""

    def close(self) -> None:
        """Release resources; the sink receives no further events."""


class MemorySink(EventSink):
    """Buffers events in a list — the test and report-building sink."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)


class JsonlSink(EventSink):
    """Appends one JSON object per line to a file (``--trace-out``).

    ``allow_nan=False`` keeps the output strict JSON: the tracer already
    coerces non-finite floats to null, and anything that slips through
    should fail loudly here rather than produce an unparseable artifact.
    """

    def __init__(self, fh: IO[str], owns: bool = True):
        self._fh = fh
        self._owns = owns

    @classmethod
    def open(cls, path: str) -> "JsonlSink":
        return cls(open(path, "w"), owns=True)

    def emit(self, event: dict) -> None:
        self._fh.write(json.dumps(event, allow_nan=False, separators=(",", ":")))
        self._fh.write("\n")

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self.flush()
        if self._owns:
            self._fh.close()


class EventBus:
    """Fans each event out to every attached sink."""

    def __init__(self, sinks: Iterable[EventSink] = ()):
        self.sinks: list[EventSink] = list(sinks)

    def emit(self, event: dict) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def flush(self) -> None:
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
        self.sinks = []
