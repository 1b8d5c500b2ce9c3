"""The state-store contract and its in-memory implementation."""

from __future__ import annotations

import copy
from typing import Any, Iterator

import numpy as np

from repro.relational.relation import Relation
from repro.storage.columns import DictPage, EncodedColumn, sidecar_nbytes
from repro.storage.lineage import LineageColumn


def estimate_nbytes(value: object, seen: set[int] | None = None) -> int:
    """Rough in-memory footprint of one state entry, in bytes.

    Engine objects that know their own footprint (relations, sentinel
    stores, aggregate sketches) expose ``estimated_bytes``
    and are deferred to; containers are measured recursively; everything
    else gets a small flat estimate. The absolute numbers follow the
    same conventions the operators used before the store layer existed,
    so the Figure 9(b)/10(c) accounting is unchanged.

    Storage-plane objects (encoded columns, lineage sidecars, dictionary
    pages) are shared structure: a page backs every slice of its table,
    so naive recursion would double-count it per slice. ``seen`` (ids of
    pages/pools already measured) deduplicates across one traversal —
    :meth:`InMemoryStateStore.entry_bytes` threads a single set through
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
    if isinstance(value, (EncodedColumn, LineageColumn)):
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

    def __deepcopy__(self, memo: dict) -> "SelfSizingSet":
        # Elements are immutable by contract, so a snapshot shares them;
        # only the container itself is fresh.
        clone = self.__class__()
        memo[id(self)] = clone
        set.update(clone, self)
        clone._nbytes = self._nbytes
        return clone

    def estimated_bytes(self) -> int:
        return self._nbytes


class StateStore:
    """Contract for one operator's named between-batch state entries.

    Entries are keyed by short names (``"nd"``, ``"sentinels"``,
    ``"sketch"``, …). Values are arbitrary engine objects; the store
    never interprets them beyond size accounting and snapshotting.

    ``static=True`` marks an entry as immutable configuration that rides
    along for accounting (e.g. a broadcast dimension side): it is counted
    in :meth:`estimated_bytes` but checkpointed by reference instead of
    deep copy.
    """

    #: Lifetime count of mutating calls (``put``/``delete``), surfaced as
    #: the ``state.writes`` gauge by the observability layer.
    writes: int = 0

    def get(self, key: str, default: object = None) -> Any:
        raise NotImplementedError

    def put(self, key: str, value: object, static: bool = False) -> None:
        raise NotImplementedError

    def delete(self, key: str) -> None:
        raise NotImplementedError

    def keys(self) -> Iterator[str]:
        raise NotImplementedError

    def items(self) -> Iterator[tuple[str, object]]:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def entry_bytes(self) -> dict[str, int]:
        raise NotImplementedError

    def estimated_bytes(self) -> int:
        return sum(self.entry_bytes().values())

    def checkpoint(self) -> object:
        """An opaque snapshot restorable any number of times."""
        raise NotImplementedError

    def restore(self, snapshot: object) -> None:
        raise NotImplementedError

    def __contains__(self, key: str) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())


class InMemoryStateStore(StateStore):
    """Dict-backed store: the default (and currently only) backend.

    Store *identity* is part of the engine's dataflow contract: each
    operator owns exactly one store instance (adopted into the registry
    under the operator's label); two execution units holding one
    instance is the single-writer violation the typechecker's TC311
    reports.
    """

    def __init__(self) -> None:
        self._entries: dict[str, object] = {}
        self._static: set[str] = set()
        self.writes = 0
        #: ``entry_bytes`` memo, keyed by the mutation counter: the
        #: observability layer sizes every store once per batch for the
        #: per-entry gauges *and* once for the Figure 9(b) accounting —
        #: without the memo each batch walks every relation/sidecar
        #: twice. Any ``put``/``delete`` bumps ``writes`` and thereby
        #: invalidates; ``restore``/``clear`` bypass ``put`` and drop the
        #: memo explicitly.
        self._bytes_memo: tuple[int, dict[str, int]] | None = None

    def get(self, key: str, default: object = None) -> Any:
        return self._entries.get(key, default)

    def put(self, key: str, value: object, static: bool = False) -> None:
        self.writes += 1
        self._entries[key] = value
        if static:
            self._static.add(key)
        else:
            self._static.discard(key)

    def delete(self, key: str) -> None:
        self.writes += 1
        self._entries.pop(key, None)
        self._static.discard(key)

    def keys(self) -> Iterator[str]:
        return iter(list(self._entries))

    def items(self) -> Iterator[tuple[str, object]]:
        return iter(list(self._entries.items()))

    def clear(self) -> None:
        self._entries.clear()
        self._static.clear()
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

    def checkpoint(self) -> object:
        # One deepcopy memo across entries: objects shared between
        # entries stay shared in the snapshot, preserving both the
        # aliasing semantics and the deduplicated byte accounting.
        memo: dict[int, object] = {}
        entries = {
            k: (v if k in self._static else copy.deepcopy(v, memo))
            for k, v in self._entries.items()
        }
        return {"entries": entries, "static": set(self._static)}

    def restore(self, snapshot: object) -> None:
        assert isinstance(snapshot, dict)
        static = snapshot["static"]
        memo: dict[int, object] = {}
        self._entries = {
            k: (v if k in static else copy.deepcopy(v, memo))
            for k, v in snapshot["entries"].items()
        }
        self._static = set(static)
        # Restoring replaces entries without going through put(); the
        # writes counter alone cannot witness the change.
        self._bytes_memo = None
