"""Live telemetry export: Prometheus text format and the textfile exporter.

The exporter publishes the metrics registry's signals (|U_i| ``nd.rows``,
variation-range widths, state bytes per entry, recovery depth,
per-operator rows in and out) in the Prometheus text exposition format:

* :func:`prometheus_text` renders a registry snapshot (dots in metric
  names become underscores under an ``iolap_`` prefix; counters get the
  conventional ``_total`` suffix; histogram summaries expand to
  ``_count``/``_sum``/``_min``/``_max`` series);
* :class:`TextfileExporter` atomically rewrites a ``.prom`` file after
  every batch (``iolap --metrics-textfile``); node-exporter's textfile
  collector is the standard way to scrape a batch job;
* :func:`parse_prometheus_text` is the inverse used by tests and the CI
  smoke job to validate published artifacts.
"""

from __future__ import annotations

import os
import re

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def prom_name(name: str) -> str:
    """Registry metric name -> Prometheus metric name (``iolap_`` prefix)."""
    return "iolap_" + _NAME_SANITIZE.sub("_", name.replace(".", "_"))


def _escape_label(value: object) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r'\"')
        .replace("\n", r"\n")
    )


def _label_text(labels: dict[str, object]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(labels[k])}"' for k in sorted(labels)
    )
    return "{" + inner + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render every registry series in Prometheus text format."""
    families: dict[str, tuple[str, list[str]]] = {}

    def emit(family: str, kind: str, labels: dict[str, object],
             value: float) -> None:
        entry = families.get(family)
        if entry is None:
            entry = families[family] = (kind, [])
        entry[1].append(f"{family}{_label_text(labels)} {_format(value)}")

    for _key, name, labels, inst in registry.series():
        base = prom_name(name)
        if isinstance(inst, Counter):
            emit(base + "_total", "counter", labels, inst.value)
        elif isinstance(inst, Histogram):
            emit(base + "_count", "gauge", labels, float(inst.count))
            emit(base + "_sum", "gauge", labels, inst.sum)
            if inst.count:
                emit(base + "_min", "gauge", labels, inst.min)
                emit(base + "_max", "gauge", labels, inst.max)
        elif isinstance(inst, Gauge):
            emit(base, "gauge", labels, inst.value)
    lines: list[str] = []
    for family in sorted(families):
        kind, samples = families[family]
        lines.append(f"# TYPE {family} {kind}")
        lines.extend(samples)
    return "\n".join(lines) + ("\n" if lines else "")


def _format(value: float) -> str:
    if value != value:
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?\s+(?P<value>\S+)$"
)


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Parse exposition text back into ``{name{labels}: value}``.

    The validation inverse of :func:`prometheus_text` (tests and the CI
    smoke job); raises ``ValueError`` on any malformed non-comment line.
    """
    out: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        key = match.group("name") + (match.group("labels") or "")
        out[key] = float(match.group("value"))
    return out


class TextfileExporter:
    """Atomic ``.prom`` file writer (node-exporter textfile idiom)."""

    def __init__(self, path: str, registry: MetricsRegistry):
        self.path = path
        self.registry = registry
        self.writes = 0

    def write(self) -> None:
        tmp = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(prometheus_text(self.registry))
        os.replace(tmp, self.path)
        self.writes += 1
