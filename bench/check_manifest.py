"""Validate ``BENCHMARK.json`` against the driver's manifest contract.

``bench.run`` calls :func:`load` before any workload; standalone,
``python3 bench/check_manifest.py`` prints the problems and exits non-zero
if there are any. :func:`check_emitted` is the other direction: what a run
printed must be exactly what the manifest declares for that mode.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

MANIFEST = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
_MAX_BYTES = 64 * 1024
_MAX_BOUND = 0.25
#: The driver makes 4 + 22 x workloads runs inside this many seconds.
_TIME_CAP_S = 3420


class ManifestError(Exception):
    """``BENCHMARK.json`` (or a run's output) breaks the contract."""


def _entries(problems: list, manifest: dict, section: str, keys: set, lo: int, hi: int):
    entries = manifest.get(section)
    if not isinstance(entries, list) or not lo <= len(entries) <= hi:
        problems.append(f"{section}: want a list of {lo} to {hi} entries")
        return []
    good = [e for e in entries if isinstance(e, dict) and set(e) == keys]
    if len(good) != len(entries):
        problems.append(f"{section}: every entry has exactly the keys {sorted(keys)}")
    return good


def problems_in(manifest: object, raw_bytes: int, workload_names: set[str]) -> list[str]:
    if not isinstance(manifest, dict) or set(manifest) != _KEYS:
        return [f"top level: want exactly the keys {sorted(_KEYS)}"]
    problems: list[str] = []
    if raw_bytes > _MAX_BYTES:
        problems.append(f"file is {raw_bytes} bytes, limit {_MAX_BYTES}")

    paths = manifest["paths"]
    if paths != ["bench"]:
        problems.append("paths: the benchmark lives in ['bench'] and nowhere else")

    command = manifest["command"]
    if (
        not isinstance(command, list)
        or not 1 <= len(command) <= 32
        or not all(isinstance(c, str) and 0 < len(c) <= 200 for c in command)
    ):
        problems.append("command: a list of 1 to 32 strings of at most 200 characters")
    else:
        for arg in command:
            if arg.startswith("/") or ".." in arg.split("/"):
                problems.append(f"command: {arg!r} is absolute or leaves the repo")
            elif "/" in arg and arg.split("/")[0] not in paths:
                problems.append(f"command: {arg!r} names a file outside paths")

    seconds = manifest["run_seconds"]
    if type(seconds) is not int or not 1 <= seconds <= 60:
        problems.append("run_seconds: a whole number from 1 to 60")
        seconds = 0

    workloads = _entries(problems, manifest, "workloads", {"name", "why"}, 2, 8)
    for w in workloads:
        why = w["why"]
        if not isinstance(why, str) or not why.strip() or len(why) > 200 or "\n" in why:
            problems.append(f"workloads: {w['name']!r} needs a one-line why of <= 200 chars")
    if {w["name"] for w in workloads} != workload_names:
        problems.append(f"workloads: names must be exactly {sorted(workload_names)}")
    if (4 + 22 * len(workloads)) * seconds >= _TIME_CAP_S:
        problems.append(
            f"run_seconds: {4 + 22 * len(workloads)} runs of {seconds} s "
            f"cannot end within {_TIME_CAP_S} s"
        )

    end_to_end = _entries(
        problems, manifest, "end_to_end", {"name", "unit", "better", "bound"}, 1, 16
    )
    per_layer = _entries(problems, manifest, "per_layer", {"name", "unit", "better"}, 1, 128)
    for m in end_to_end:
        bound = m["bound"]
        if type(bound) not in (int, float) or not 0 < bound <= _MAX_BOUND:
            problems.append(f"end_to_end: {m['name']!r} bound must be in (0, {_MAX_BOUND}]")
    for m in end_to_end + per_layer:
        if not isinstance(m["unit"], str) or not _UNIT.fullmatch(m["unit"]):
            problems.append(f"metric {m['name']!r}: bad unit {m['unit']!r}")
        if m["better"] not in ("lower", "higher"):
            problems.append(f"metric {m['name']!r}: better is 'lower' or 'higher'")
    setup = [m for m in end_to_end if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end: needs setup_s with unit 's' and better 'lower'")

    names = [e["name"] for e in workloads + end_to_end + per_layer]
    for name in names:
        if not isinstance(name, str) or not _NAME.fullmatch(name):
            problems.append(f"name {name!r}: letter or digit first, then <= 63 of _ . - too")
    repeated = {n for n in names if names.count(n) > 1}
    if repeated:
        problems.append(f"names used more than once: {sorted(repeated)}")
    return problems


def load(workload_names: set[str]) -> dict:
    """The validated manifest; raises :class:`ManifestError` listing every problem."""
    try:
        raw = MANIFEST.read_bytes()
        manifest = json.loads(raw)
    except (OSError, ValueError) as exc:
        raise ManifestError(f"{MANIFEST}: {exc}") from exc
    problems = problems_in(manifest, len(raw), workload_names)
    if problems:
        raise ManifestError(f"{MANIFEST}:\n  " + "\n  ".join(problems))
    return manifest


def check_emitted(manifest: dict, trace: bool, emitted: set[str]) -> None:
    """A run prints every metric its mode declares, by name, and no other."""
    declared = {m["name"] for m in manifest["per_layer" if trace else "end_to_end"]}
    if emitted != declared:
        raise ManifestError(
            f"run and manifest disagree: undeclared {sorted(emitted - declared)}, "
            f"omitted {sorted(declared - emitted)}"
        )


if __name__ == "__main__":
    sys.path.insert(0, str(MANIFEST.parent))
    from bench.workloads import WORKLOADS

    try:
        load(set(WORKLOADS))
    except ManifestError as exc:
        sys.exit(str(exc))
    print(f"{MANIFEST.name}: ok")
