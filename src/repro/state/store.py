"""The per-operator state store and its byte accounting."""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.relational.relation import Relation
from repro.storage.columns import sidecar_nbytes


def estimate_nbytes(value: object, seen: set[int] | None = None) -> int:
    """Rough in-memory footprint of one state entry, in bytes.

    Engine objects that know their own footprint (sentinel stores,
    aggregate sketches, side indexes) expose ``estimated_bytes`` and are
    deferred to; arrays count their buffer; flags and numbers get a flat
    8 and anything else 64. The conventions are the ones the operators
    used before the store layer existed, so the Figure 9(b)/10(c)
    accounting keeps its scale.

    A relation counts its logical bytes plus its encoded-column sidecars.
    A dictionary page backs every slice of its table, so ``seen`` (ids of
    pages already measured) counts each page once:
    :meth:`StateStore.entry_bytes` threads one set through all entries of
    a store, so a page shared by the "nd" and "pending" relations counts
    once.
    """
    if value is None:
        return 0
    if isinstance(value, Relation):
        # Logical bytes (the pinned Figure 9(b) convention) plus the
        # physical sidecar buffers, page-deduplicated.
        return value.estimated_bytes() + sidecar_nbytes(value, seen)
    own = getattr(value, "estimated_bytes", None)
    if callable(own):
        return int(own())
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            return 64 * value.size
        return int(value.nbytes)
    if isinstance(value, (bool, int, float, np.integer, np.floating)):
        return 8
    return 64


class StateStore:
    """One operator's named between-batch state entries.

    Entries are keyed by short names (``"nd"``, ``"sentinels"``,
    ``"sketch"``, …). Values are arbitrary engine objects; the store
    never interprets them beyond size accounting.

    Store *identity* is part of the engine's dataflow contract: each
    operator owns exactly one store instance; two execution units holding
    one instance is the single-writer violation the typechecker's TC311
    reports.
    """

    def __init__(self) -> None:
        self._entries: dict[str, object] = {}
        #: Lifetime count of mutating calls (``put``/``delete``), surfaced
        #: as the ``state.writes`` gauge by the observability layer.
        self.writes = 0

    def get(self, key: str, default: object = None) -> Any:
        return self._entries.get(key, default)

    def put(self, key: str, value: object) -> None:
        self.writes += 1
        self._entries[key] = value

    def delete(self, key: str) -> None:
        self.writes += 1
        self._entries.pop(key, None)

    def items(self) -> Iterator[tuple[str, object]]:
        return iter(list(self._entries.items()))

    def clear(self) -> None:
        self._entries.clear()

    def entry_bytes(self) -> dict[str, int]:
        """Each entry's bytes, measured now: entries such as a sketch grow
        in place, without a ``put``."""
        # One seen-set across entries: a dictionary page shared by two
        # entries (e.g. slices of the same encoded table) counts toward
        # the first entry that reaches it, once per store.
        seen: set[int] = set()
        return {k: estimate_nbytes(v, seen) for k, v in self._entries.items()}

    def __contains__(self, key: str) -> bool:
        return key in self._entries
