"""Kernel cache counters, surfaced through the obs metrics registry.

The counters answer the "where does the time go" question for the
vectorized hot paths: how often the per-relation key codec was rebuilt
versus reused, and whether the static join's dimension index was
actually cached across batches. The
controller samples :func:`snapshot` into gauges once per batch, so
``iolap report`` shows them next to the operator timings.

Counters are process-global (the caches they describe are too) and
monotonic; :func:`reset` exists for tests and benchmark harnesses.
"""

from __future__ import annotations


class KernelStats:
    """Hit/miss counters for the kernel-layer caches."""

    _FIELDS = (
        "codec_hits",
        "codec_misses",
        "codec_encoded_cols",
        "side_index_hits",
        "side_index_misses",
    )

    def __init__(self) -> None:
        self._counts = {name: 0 for name in self._FIELDS}

    def inc(self, name: str, by: int = 1) -> None:
        self._counts[name] += by

    def snapshot(self) -> dict[str, int]:
        return dict(self._counts)

    def reset(self) -> None:
        for name in self._counts:
            self._counts[name] = 0


#: Process-global counters; the kernel caches below feed these.
STATS = KernelStats()
