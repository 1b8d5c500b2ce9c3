"""The metrics registry: counters, gauges and histograms with labels.

Captures the paper-specific signals the per-batch ``BatchMetrics``
counters cannot express: |U_i| non-deterministic set sizes per predicate,
variation-range widths, per-entry state-store footprints (cached ND rows
vs. resolved/pruned state), recovery replay depth, and per-operator row
throughput. The engine snapshots the registry after every batch into
``counter`` trace events, so the series land in the same timeline as the
spans.

Concurrency model: one thread writes and reads the registry, the one
that drives the run, so it takes no lock.

The default registry is :data:`NULL_REGISTRY`: disabled, returning one
shared inert instrument, so instrumented code paths cost a method call
and nothing else when observability is off.
"""

from __future__ import annotations

import math


def metric_key(name: str, labels: dict[str, object]) -> str:
    """Canonical series key: ``name{k1=v1,k2=v2}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A point-in-time level (set each batch, e.g. |U_i| or state bytes)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """A running summary (count/sum/min/max) of observed values.

    Summaries rather than reservoirs: order-independent, so merged runs
    report identical values regardless of timing.
    """

    __slots__ = ("count", "sum", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            return
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Get-or-create instrument registry keyed by name + labels."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}
        #: Series key -> (metric name, labels); the structured view the
        #: exporters need (the key string alone cannot be split back
        #: safely once label values contain ``,`` or ``=``).
        self._meta: dict[str, tuple[str, dict[str, object]]] = {}

    def _get(self, cls: type, name: str, labels: dict[str, object]) -> object:
        key = metric_key(name, labels)
        inst = self._instruments.get(key)
        if inst is None:
            inst = self._instruments[key] = cls()
            self._meta[key] = (name, dict(labels))
        if not isinstance(inst, cls):
            raise TypeError(
                f"metric {key!r} already registered as {type(inst).__name__}"
            )
        return inst

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)  # type: ignore[return-value]

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._get(Histogram, name, labels)  # type: ignore[return-value]

    def series(self) -> list[tuple[str, str, dict[str, object], object]]:
        """All series as ``(key, name, labels, instrument)``, key-sorted.

        The structured feed of the Prometheus exporter;
        instruments are live objects — read their current values, do not
        mutate them.
        """
        out = []
        for key, inst in sorted(self._instruments.items()):
            name, labels = self._meta[key]
            out.append((key, name, labels, inst))
        return out

    def snapshot(self) -> dict[str, object]:
        """All series, sorted by key; histograms as summary dicts."""
        out: dict[str, object] = {}
        for key, inst in sorted(self._instruments.items()):
            if isinstance(inst, Histogram):
                out[key] = inst.summary()
            else:
                out[key] = inst.value  # type: ignore[union-attr]
        return out

    def scalar_snapshot(self) -> dict[str, float]:
        """Flat numeric view (histograms flattened to .count/.sum/.min/.max)
        — the per-batch counter-event feed."""
        out: dict[str, float] = {}
        for key, inst in sorted(self._instruments.items()):
            if isinstance(inst, Histogram):
                if inst.count:
                    out[f"{key}.count"] = float(inst.count)
                    out[f"{key}.sum"] = inst.sum
                    out[f"{key}.min"] = inst.min
                    out[f"{key}.max"] = inst.max
            else:
                out[key] = float(inst.value)  # type: ignore[union-attr]
        return out

    def __len__(self) -> int:
        return len(self._instruments)


class _NullInstrument:
    """Shared inert counter/gauge/histogram."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The default registry: disabled and allocation-free."""

    enabled = False

    def counter(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def series(self) -> list[tuple[str, str, dict[str, object], object]]:
        return []

    def snapshot(self) -> dict[str, object]:
        return {}

    def scalar_snapshot(self) -> dict[str, float]:
        return {}

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullRegistry()
