"""The structured event schema of the tracing subsystem.

Every record the tracer emits — through any sink — is one flat JSON
object. The schema is deliberately small and *pinned*: the field set per
event kind is frozen by a golden test, and :data:`EVENT_SCHEMA_VERSION`
must be bumped whenever it changes, so downstream consumers (the
``iolap report`` summarizer, the Chrome exporter, the CI smoke job) can
rely on artifacts from older runs staying parseable.

Common fields (all kinds)
    ``v``      schema version (int, == :data:`EVENT_SCHEMA_VERSION`)
    ``kind``   one of :data:`EVENT_KINDS`
    ``name``   event name (span name, metric key, warning code)
    ``cat``    category (span taxonomy bucket: ``run``/``exec``/``bootstrap``/
               ``integrity``/``recovery``/``metric``/``warning``/``convergence``)
    ``track``  logical track the event belongs to (the tracer writes ``main``);
               the Chrome exporter maps tracks to threads
    ``ts``     seconds since the tracer's epoch (float, >= 0)

Kind-specific fields
    ``span``         ``dur`` (float seconds, >= 0)
    ``counter``      ``value`` (number)
    ``instant`` / ``warning`` / ``convergence``  no extra required fields

Optional fields (any kind)
    ``batch``  mini-batch number (int)
    ``args``   free-form JSON object with event details
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Iterator

#: Bump whenever a required field is added/removed/retyped (golden-tested).
EVENT_SCHEMA_VERSION = 1

#: The closed set of event kinds.
EVENT_KINDS = frozenset({"span", "instant", "counter", "warning", "convergence"})

#: Required fields shared by every kind, with their accepted types.
COMMON_FIELDS: dict[str, tuple[type, ...]] = {
    "v": (int,),
    "kind": (str,),
    "name": (str,),
    "cat": (str,),
    "track": (str,),
    "ts": (int, float),
}

#: Extra required fields per kind.
KIND_FIELDS: dict[str, dict[str, tuple[type, ...]]] = {
    "span": {"dur": (int, float)},
    "instant": {},
    "counter": {"value": (int, float)},
    "warning": {},
    "convergence": {},
}

#: Optional fields any kind may carry.
OPTIONAL_FIELDS: dict[str, tuple[type, ...]] = {
    "batch": (int,),
    "args": (dict,),
}


def validate_event(record: object) -> None:
    """Check one event record against the schema; raise ``ValueError``.

    Unknown top-level fields are rejected so the schema stays pinned:
    adding a field requires updating this module (and the golden test)
    deliberately.
    """
    if not isinstance(record, dict):
        raise ValueError(f"event must be a JSON object, got {type(record).__name__}")
    for name, types in COMMON_FIELDS.items():
        _require(record, name, types)
    if record["v"] != EVENT_SCHEMA_VERSION:
        raise ValueError(
            f"event schema version {record['v']!r} != {EVENT_SCHEMA_VERSION}"
        )
    kind = record["kind"]
    if kind not in EVENT_KINDS:
        raise ValueError(f"unknown event kind {kind!r}")
    specific = KIND_FIELDS[kind]
    for name, types in specific.items():
        _require(record, name, types)
    allowed = set(COMMON_FIELDS) | set(specific) | set(OPTIONAL_FIELDS)
    unknown = set(record) - allowed
    if unknown:
        raise ValueError(
            f"{kind} event has unknown field(s) {sorted(unknown)}; the event "
            "schema is pinned — extend repro.obs.events (and bump "
            "EVENT_SCHEMA_VERSION) to add fields"
        )
    for name, types in OPTIONAL_FIELDS.items():
        if name in record and not isinstance(record[name], types):
            raise ValueError(
                f"event field {name!r} has type {type(record[name]).__name__}"
            )
    if record["ts"] < 0:
        raise ValueError("event ts must be >= 0")
    if kind == "span" and record["dur"] < 0:
        raise ValueError("span dur must be >= 0")
    if kind == "counter" and not math.isfinite(record["value"]):
        raise ValueError("counter value must be finite")


def _require(record: dict, name: str, types: tuple[type, ...]) -> None:
    if name not in record:
        raise ValueError(f"event is missing required field {name!r}")
    value = record[name]
    # bool is an int subclass; never a valid numeric field value here.
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(
            f"event field {name!r} has type {type(value).__name__}, "
            f"expected {'/'.join(t.__name__ for t in types)}"
        )


def jsonable(value: Any) -> Any:
    """Coerce an event arg to something ``json.dump`` accepts losslessly.

    Non-finite floats become ``None`` (strict JSON has no NaN/Inf);
    unknown objects fall back to ``repr``.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    # numpy scalars expose item(); anything else degrades to repr.
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return jsonable(item())
        except (TypeError, ValueError):
            pass
    return repr(value)


def read_events(path: str, validate: bool = True) -> Iterator[dict]:
    """Stream event records from a JSON-lines trace file."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from None
            if validate:
                try:
                    validate_event(record)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
            yield record


def validate_events(events: Iterable[dict]) -> int:
    """Validate every record; returns the count (for smoke checks)."""
    n = 0
    for record in events:
        validate_event(record)
        n += 1
    return n
