"""Pinned JSON schema of the ``--metrics-out`` artifact.

The benchmark harness (and the CI smoke job) archives ``RunMetrics``
dumps and compares them across revisions, so the field set is *frozen*
here: :func:`validate_run_metrics` rejects both missing and unknown
fields. Adding a metric therefore requires touching this module — and
bumping :data:`RUN_METRICS_SCHEMA_VERSION` — deliberately, instead of
silently changing the artifact shape.

Only the current version validates; an artifact of any other version is
rejected rather than checked against an older field set.
"""

from __future__ import annotations

from typing import Any

#: Bump whenever a field is added/removed/retyped in either dict below.
RUN_METRICS_SCHEMA_VERSION = 5

_NUMBER = (int, float)

#: Field name -> accepted types, for one ``BatchMetrics.to_dict()``.
BATCH_METRICS_FIELDS: dict[str, tuple[type, ...]] = {
    "batch_no": (int,),
    "wall_seconds": _NUMBER,
    "unit_seconds": _NUMBER,
    "new_tuples": (int,),
    "recomputed_tuples": (int,),
    "shipped_bytes": (int,),
    "state_bytes": (dict,),
    "total_state_bytes": (int,),
    "op_seconds": (dict,),
    "recovered": (bool,),
    "recovery_seconds": _NUMBER,
    "rollup_groups": (int,),
    "nd_groups": (int,),
}

#: Field name -> accepted types, for one ``RunMetrics.to_dict()``.
RUN_METRICS_FIELDS: dict[str, tuple[type, ...]] = {
    "schema_version": (int,),
    "num_batches": (int,),
    "total_seconds": _NUMBER,
    "total_unit_seconds": _NUMBER,
    "total_recomputed": (int,),
    "total_shipped_bytes": (int,),
    "num_recoveries": (int,),
    "pruning_disabled": (bool,),
    "analysis_seconds": _NUMBER,
    "sanitize_seconds": _NUMBER,
    "op_seconds": (dict,),
    "batches": (list,),
}


def _check_fields(
    data: Any, fields: dict[str, tuple[type, ...]], what: str
) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = set(fields) - set(data)
    if missing:
        raise ValueError(f"{what} is missing field(s) {sorted(missing)}")
    unknown = set(data) - set(fields)
    if unknown:
        raise ValueError(
            f"{what} has unknown field(s) {sorted(unknown)}; the metrics "
            "schema is pinned — extend repro.metrics.schema (and bump "
            "RUN_METRICS_SCHEMA_VERSION) to add fields"
        )
    for name, types in fields.items():
        value = data[name]
        if isinstance(value, bool) and bool not in types:
            raise ValueError(f"{what} field {name!r} must not be a bool")
        if not isinstance(value, types):
            raise ValueError(
                f"{what} field {name!r} has type {type(value).__name__}"
            )


def validate_batch_metrics(data: Any) -> None:
    """Validate one serialized ``BatchMetrics``; raise ``ValueError``."""
    _check_fields(data, BATCH_METRICS_FIELDS, "batch metrics")
    for label, nbytes in data["state_bytes"].items():
        if not isinstance(label, str) or isinstance(nbytes, bool) or not isinstance(nbytes, int):
            raise ValueError(f"state_bytes entry {label!r} must map str -> int")
    for label, seconds in data["op_seconds"].items():
        if not isinstance(label, str) or not isinstance(seconds, _NUMBER):
            raise ValueError(f"op_seconds entry {label!r} must map str -> number")


def validate_run_metrics(data: Any) -> None:
    """Validate a full ``RunMetrics.to_dict()`` artifact (recursively)."""
    if not isinstance(data, dict):
        raise ValueError("run metrics must be a JSON object")
    version = data.get("schema_version")
    if version != RUN_METRICS_SCHEMA_VERSION:
        raise ValueError(
            f"run metrics schema version {version!r} is not "
            f"{RUN_METRICS_SCHEMA_VERSION}"
        )
    _check_fields(data, RUN_METRICS_FIELDS, "run metrics")
    if data["num_batches"] != len(data["batches"]):
        raise ValueError(
            f"num_batches={data['num_batches']} but {len(data['batches'])} "
            "batch records"
        )
    for i, batch in enumerate(data["batches"]):
        try:
            validate_batch_metrics(batch)
        except ValueError as exc:
            raise ValueError(f"batches[{i}]: {exc}") from None
