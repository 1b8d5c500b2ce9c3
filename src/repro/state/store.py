"""The per-operator state store and its byte accounting."""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.relational.relation import Relation
from repro.storage.columns import DictPage, EncodedColumn, sidecar_nbytes


def estimate_nbytes(value: object, seen: set[int] | None = None) -> int:
    """Rough in-memory footprint of one state entry, in bytes.

    Engine objects that know their own footprint (relations, sentinel
    stores, aggregate sketches) expose ``estimated_bytes``
    and are deferred to; containers are measured recursively; everything
    else gets a small flat estimate. The absolute numbers follow the
    same conventions the operators used before the store layer existed,
    so the Figure 9(b)/10(c) accounting is unchanged.

    Storage-plane objects (encoded columns, dictionary pages) are shared
    structure: a page backs every slice of its table,
    so naive recursion would double-count it per slice. ``seen`` (ids of
    pages/pools already measured) deduplicates across one traversal —
    :meth:`StateStore.entry_bytes` threads a single set through
    all entries of a store, so a dictionary shared by the "nd" and
    "pending" relations counts once.
    """
    if value is None:
        return 0
    if seen is None:
        seen = set()
    if isinstance(value, Relation):
        # Logical bytes (the pinned Figure 9(b) convention) plus the
        # physical sidecar buffers, page-deduplicated.
        return value.estimated_bytes() + sidecar_nbytes(value, seen)
    if isinstance(value, EncodedColumn):
        return value.estimated_bytes(seen)
    if isinstance(value, DictPage):
        if id(value) in seen:
            return 0
        seen.add(id(value))
        return value.estimated_bytes()
    own = getattr(value, "estimated_bytes", None)
    if callable(own):
        return int(own())
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            return 64 * value.size
        return int(value.nbytes)
    if isinstance(value, bool):
        return 8
    if isinstance(value, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(value, str):
        return 49 + len(value)
    if isinstance(value, (set, frozenset)):
        return 64 + sum(16 + estimate_nbytes(v, seen) for v in value)
    if isinstance(value, dict):
        # Keys are measured like any other value (a tuple group key or a
        # long string key is real state); 16 covers the hash-table slot.
        return 64 + sum(
            16 + estimate_nbytes(k, seen) + estimate_nbytes(v, seen)
            for k, v in value.items()
        )
    if isinstance(value, (list, tuple)):
        return 56 + sum(8 + estimate_nbytes(v, seen) for v in value)
    return 64


class SelfSizingSet(set):
    """A set of immutable keys that maintains its own byte footprint.

    The observability layer re-measures every state entry once per batch;
    for the aggregate sink's key sets (``published_keys``,
    ``certain_groups``) the generic recursive walk is O(elements) per
    measurement even though elements are immutable and add-only in the
    steady state. This subclass pays the per-element estimate once, at
    insertion, and serves ``estimated_bytes`` in O(1) — bit-identical to
    the generic ``64 + Σ (16 + estimate_nbytes(element))`` convention.

    Elements must be hashable (hence effectively immutable), so a stored
    estimate can never go stale.
    """

    __slots__ = ("_nbytes",)

    def __init__(self, items: "Iterator[object] | tuple" = ()) -> None:
        super().__init__()
        self._nbytes = 64
        self.update(items)

    def add(self, item: object) -> None:
        if item not in self:
            set.add(self, item)
            self._nbytes += 16 + estimate_nbytes(item)

    def update(self, *iterables: object) -> None:  # type: ignore[override]
        for iterable in iterables:
            # Only the items not yet in the set cost a Python step.
            for item in set(iterable).difference(self):  # type: ignore[call-overload]
                self.add(item)

    def discard(self, item: object) -> None:
        if item in self:
            set.discard(self, item)
            self._nbytes -= 16 + estimate_nbytes(item)

    def remove(self, item: object) -> None:
        if item not in self:
            raise KeyError(item)
        self.discard(item)

    def pop(self) -> object:
        item = set.pop(self)
        self._nbytes -= 16 + estimate_nbytes(item)
        return item

    def clear(self) -> None:
        set.clear(self)
        self._nbytes = 64

    def estimated_bytes(self) -> int:
        return self._nbytes


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
        #: ``entry_bytes`` memo, keyed by the mutation counter: the
        #: observability layer sizes every store once per batch for the
        #: per-entry gauges *and* once for the Figure 9(b) accounting —
        #: without the memo each batch walks every relation/sidecar
        #: twice. Any ``put``/``delete`` bumps ``writes`` and thereby
        #: invalidates; ``clear`` bypasses them and drops the memo
        #: explicitly.
        self._bytes_memo: tuple[int, dict[str, int]] | None = None

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
        self._bytes_memo = None

    def entry_bytes(self) -> dict[str, int]:
        memo = self._bytes_memo
        if memo is not None and memo[0] == self.writes:
            return memo[1]
        # One seen-set across entries: a dictionary page shared by two
        # entries (e.g. slices of the same encoded table) counts toward
        # the first entry that reaches it, once per store.
        seen: set[int] = set()
        sizes = {k: estimate_nbytes(v, seen) for k, v in self._entries.items()}
        self._bytes_memo = (self.writes, sizes)
        return sizes

    def estimated_bytes(self) -> int:
        return sum(self.entry_bytes().values())

    def __contains__(self, key: str) -> bool:
        return key in self._entries
