"""Chrome trace-event export (``iolap trace --format chrome``).

Converts an event-log trace (the JSONL schema of :mod:`repro.obs.events`)
into the Chrome trace-event JSON format, loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``:

* each logical track (the tracer writes ``main``) becomes a named thread
  of one process;
* spans become complete events (``ph: "X"``); Perfetto reconstructs the
  run → batch → unit → operator nesting from per-track time
  containment, which the tracer guarantees by construction;
* counter samples become counter events (``ph: "C"``) and render as the
  Fig. 7–10 style per-batch trajectories (state bytes, |U_i|, …);
* warnings and convergence records become instant events (``ph: "i"``).
"""

from __future__ import annotations

import json
from typing import IO, Iterable

#: Process id used for all events (single-process engine).
_PID = 1


def to_chrome(events: Iterable[dict]) -> dict:
    """Build a Chrome trace-event document from schema-valid events."""
    trace_events: list[dict] = []
    tids: dict[str, int] = {}

    def tid_for(track: str) -> int:
        tid = tids.get(track)
        if tid is None:
            # Tracks get stable ids by first use.
            tid = tids[track] = len(tids)
            trace_events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": _PID,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return tid

    for event in events:
        kind = event["kind"]
        tid = tid_for(event["track"])
        ts_us = event["ts"] * 1e6
        args = dict(event.get("args") or {})
        if "batch" in event:
            args["batch"] = event["batch"]
        base = {
            "name": event["name"],
            "cat": event["cat"],
            "pid": _PID,
            "tid": tid,
            "ts": ts_us,
        }
        if kind == "span":
            trace_events.append(
                {**base, "ph": "X", "dur": event["dur"] * 1e6, "args": args}
            )
        elif kind == "counter":
            trace_events.append(
                {**base, "ph": "C", "args": {"value": event["value"]}}
            )
        else:  # instant / warning / convergence
            trace_events.append({**base, "ph": "i", "s": "t", "args": args})

    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome(events: Iterable[dict], fh: IO[str]) -> int:
    """Write the Chrome trace JSON; returns the trace-event count."""
    document = to_chrome(events)
    json.dump(document, fh, allow_nan=False)
    return len(document["traceEvents"])
