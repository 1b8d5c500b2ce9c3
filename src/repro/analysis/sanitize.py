"""The engine's one runtime debug mode (``--sanitize``).

Mini-batches and on-disk chunks are *views*: ``Relation.slice`` aliases
the backing buffers and ``DiskTable`` memmaps its chunk files. The
engine's contract is that no operator writes into them in place. No
static rule checks it, since a write can reach a buffer through any
alias, and a plain run does not check it. Behind
``OnlineConfig(sanitize=True)`` this module enforces the contract at
runtime, and the §4.2 state discipline with it; it is the only checker
of both:

* **Freeze on hand-off** — every buffer handed to an operator's
  ``process`` gets ``ndarray.flags.writeable = False`` for the duration
  of the call (prior flags restored on return); every ``Relation.slice``
  view and its base buffers, and every memmapped ``DiskTable`` chunk
  view, are frozen permanently for the batch (aliased memory is
  read-only by protocol). An in-place write then raises numpy's
  read-only ``ValueError``, which :meth:`translate_write_error` converts
  into a :class:`~repro.errors.SanitizerViolationError` naming both the
  writing operator and the buffer's original owner (``SAN001``, or
  ``SAN002`` when the buffer chains to an ``np.memmap``).
* **Ownership protocol** — view provenance is tracked per batch as
  ``id(base buffer) -> owner``: the stream delta, a disk chunk, a sliced
  relation, or the first operator to emit the buffer. An output whose
  base is already owned is a pass-through and claims nothing.
* **State discipline** — after every ``process`` call the operator's
  live :meth:`state_items` keys must equal its class's declared
  ``StateRule.entries`` (``SAN004``), so between-batch state cannot
  appear or vanish outside the declaration.

Sanitizing is observational: a sanitized run produces bit-identical
results to a plain one. This module deliberately imports
nothing from ``repro.core`` — it duck-types operators, relations, and
contexts, so the engine only pays an import (and a per-call ``None``
check) when sanitizing is actually on. The hook installation in
:meth:`BufferSanitizer.activate` lazily imports the relation/storage
modules to register the slice and chunk-view hooks.
"""

from __future__ import annotations

import time
from typing import Any, Iterator

import numpy as np

from repro.errors import SanitizerViolationError

#: Rule catalog (ids -> one-line description). Mirrored in DESIGN.md; the
#: test suite asserts every rule here is triggered by some fixture.
SANITIZE_RULES: dict[str, str] = {
    "SAN001": "in-place write to a frozen aliased batch buffer",
    "SAN002": "in-place write to a read-only memmapped DiskTable chunk",
    "SAN004": "operator state entries differ from its declared StateRule",
}

#: Substrings of numpy's errors for writes into non-writeable arrays.
_READONLY_MARKERS = ("read-only", "writeable", "WRITEABLE")


def _buffers_of(obj: Any) -> Iterator[np.ndarray]:
    """Duck-typed sweep of every ndarray a dataflow message carries.

    Understands ``DeltaBatch`` (certain/volatile), ``Relation``
    (columns, attached gid columns included; mult; the trial matrix or
    the row ids of undrawn trials; encoding sidecars), lists, tuples, and
    bare arrays;
    silently skips anything else.
    """
    if obj is None:
        return
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _buffers_of(item)
        return
    for attr in ("certain", "volatile"):
        sub = getattr(obj, attr, None)
        if sub is not None and sub is not obj:
            yield from _buffers_of(sub)
    cols = getattr(obj, "columns", None)
    if isinstance(cols, dict):
        for arr in cols.values():
            if isinstance(arr, np.ndarray):
                yield arr
    trials = getattr(obj, "_trials", None)
    for arr in (getattr(obj, "mult", None), getattr(trials, "ids", trials)):
        if isinstance(arr, np.ndarray):
            yield arr
    encodings = getattr(obj, "encodings", None)
    if isinstance(encodings, dict):
        for enc in encodings.values():
            for attr in ("codes", "null_mask"):
                arr = getattr(enc, attr, None)
                if isinstance(arr, np.ndarray):
                    yield arr


def _base(arr: np.ndarray) -> np.ndarray:
    """The root of the ``.base`` chain — the buffer aliases share."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _memmap_of(arr: np.ndarray) -> np.memmap | None:
    while isinstance(arr, np.ndarray):
        if isinstance(arr, np.memmap):
            return arr
        if not isinstance(arr.base, np.ndarray):
            return None
        arr = arr.base
    return None


def _op_label(op: Any) -> str:
    return str(getattr(op, "label", type(op).__name__))


class _Frame:
    """One in-flight ``process`` call."""

    __slots__ = ("label", "restores")

    def __init__(self, label: str) -> None:
        self.label = label
        self.restores: list[tuple[np.ndarray, bool]] = []


class BufferSanitizer:
    """Per-run runtime sanitizer; one instance lives on the context.

    All mutating methods are cheap (flag flips and dict updates);
    ``seconds`` accumulates their wall time so the
    controller can report the overhead honestly as
    ``RunMetrics.sanitize_seconds``.
    """

    def __init__(self) -> None:
        self._batch_no: int | None = None
        #: id(base) -> owner label, per batch (cleared to dodge id reuse).
        self._owners: dict[int, str] = {}
        #: In-flight ``process`` calls, innermost last.
        self._stack: list[_Frame] = []
        #: Strong refs keeping claimed/frozen bases alive for the batch,
        #: so the id()-keyed maps cannot alias a recycled address.
        self._pins: list[np.ndarray] = []
        self.seconds: float = 0.0
        self.emit: Any = None

    # -- batch lifecycle ----------------------------------------------------

    def begin_batch(self, batch_no: int, delta: Any = None) -> None:
        """Reset per-batch state; freeze the stream delta permanently."""
        started = time.perf_counter()
        if self._batch_no != batch_no:
            self._batch_no = batch_no
            self._owners.clear()
            self._pins.clear()
        # Re-entry for the same batch (the recovery replay re-runs the
        # batch that failed) keeps the map but still owns the delta.
        owner = f"stream:batch-{batch_no}"
        for arr in _buffers_of(delta):
            arr.flags.writeable = False
            self._own(_base(arr), owner)
        self.seconds += time.perf_counter() - started

    def own_drawn(self, trials: np.ndarray) -> None:
        """Freeze a trial matrix as it is drawn; the stream owns it.

        Trials are drawn inside whichever operator first reads them, and
        two pipelines may draw the same rows (a pure function of the row
        id) — neither claims the buffer, so emitting it is a pass-through
        and an in-place write names the stream as owner.
        """
        started = time.perf_counter()
        trials.flags.writeable = False
        self._own(trials, f"stream:batch-{self._batch_no}")
        self.seconds += time.perf_counter() - started

    # -- per-operator hand-off ---------------------------------------------

    def before_process(self, op: Any, delta: Any, ctx: Any = None) -> None:
        """Freeze the operator's input buffers; push the writer label."""
        started = time.perf_counter()
        frame = _Frame(_op_label(op))
        for arr in _buffers_of(delta):
            frame.restores.append((arr, bool(arr.flags.writeable)))
            arr.flags.writeable = False
        self._stack.append(frame)
        self.seconds += time.perf_counter() - started

    def release(self, op: Any) -> None:
        """Restore input writeability recorded by :meth:`before_process`."""
        started = time.perf_counter()
        if self._stack:
            frame = self._stack.pop()
            for arr, prior in reversed(frame.restores):
                try:
                    arr.flags.writeable = prior
                except ValueError:
                    pass  # base was frozen meanwhile; stays read-only
        self.seconds += time.perf_counter() - started

    def note_output(self, op: Any, out: Any) -> None:
        """Claim ownership of every *new* base buffer the operator emitted."""
        started = time.perf_counter()
        label = _op_label(op)
        for arr in _buffers_of(out):
            # An already-owned base is a pass-through of stream/disk/sliced
            # memory and keeps its owner.
            self._own(_base(arr), label)
        self.seconds += time.perf_counter() - started

    def check_state(self, op: Any) -> None:
        """SAN004: the operator's live state entries equal its declared
        ``StateRule.entries``."""
        started = time.perf_counter()
        declared = set(type(op).state_rule.entries)
        live = {key for key, _ in op.state_items()}
        self.seconds += time.perf_counter() - started
        if live != declared:
            writer = _op_label(op)
            raise self._violation(
                "SAN004",
                writer,
                [writer],
                f"operator {writer!r} holds state entries {sorted(live)} but "
                f"its StateRule declares {sorted(declared)}; between-batch "
                "state may only live in declared named entries",
            )

    def translate_write_error(
        self, op: Any, delta: Any, ctx: Any, err: BaseException
    ) -> SanitizerViolationError | None:
        """Convert numpy's read-only ``ValueError`` into a SAN violation.

        Returns ``None`` for unrelated errors so the driver re-raises
        them untouched.
        """
        text = str(err)
        if not any(marker in text for marker in _READONLY_MARKERS):
            return None
        writer = _op_label(op)
        owners: list[str] = []
        memmap_file: str | None = None
        # Pipeline leaves read the streamed delta off the context (their
        # unit input is None), so sweep both for the owning buffer.
        candidates = [delta, getattr(ctx, "_delta", None)]
        for arr in _buffers_of(candidates):
            base = _base(arr)
            owner = self._owners.get(id(base))
            if owner is not None and owner not in owners:
                owners.append(owner)
            if memmap_file is None:
                mm = _memmap_of(arr)
                if mm is not None:
                    memmap_file = str(getattr(mm, "filename", "?"))
        if memmap_file is not None:
            return self._violation(
                "SAN002",
                writer,
                owners or [f"disk:{memmap_file}"],
                f"operator {writer!r} wrote in place into a read-only "
                f"memmapped chunk of {memmap_file!r}",
            )
        return self._violation(
            "SAN001",
            writer,
            owners or ["unknown"],
            f"operator {writer!r} wrote in place into a frozen aliased "
            f"buffer owned by {owners or ['unknown']}",
        )

    # -- aliasing hooks (Relation.slice / DiskTable chunk views) ------------

    def activate(self) -> None:
        """Install the slice/chunk-view provenance hooks for this run."""
        from repro.relational import relation
        from repro.storage import chunks

        relation.set_slice_hook(self._on_slice)
        chunks.set_chunk_view_hook(self._on_chunk_view)

    def deactivate(self) -> None:
        from repro.relational import relation
        from repro.storage import chunks

        relation.set_slice_hook(None)
        chunks.set_chunk_view_hook(None)

    def _on_slice(self, base_rel: Any, view_rel: Any) -> None:
        started = time.perf_counter()
        owner = self._current_label()
        for arr in _buffers_of(base_rel):
            arr.flags.writeable = False
            self._own(_base(arr), owner)
        for arr in _buffers_of(view_rel):
            arr.flags.writeable = False
        self.seconds += time.perf_counter() - started

    def _on_chunk_view(self, table: Any, view_rel: Any) -> None:
        started = time.perf_counter()
        owner = f"disk:{getattr(table, 'path', '?')}"
        for arr in _buffers_of(view_rel):
            try:
                arr.flags.writeable = False
            except ValueError:
                pass  # memmap views of mode="r" files are born read-only
            self._own(_base(arr), owner)
        self.seconds += time.perf_counter() - started

    # -- internals ----------------------------------------------------------

    def _own(self, base: np.ndarray, owner: str) -> None:
        base_id = id(base)
        if base_id not in self._owners:
            self._owners[base_id] = owner
            self._pins.append(base)

    def _current_label(self) -> str:
        if self._stack:
            return self._stack[-1].label
        if self._batch_no is not None:
            return f"stream:batch-{self._batch_no}"
        return "unknown"

    def _violation(
        self, rule_id: str, writer: str, owners: list[str], message: str
    ) -> SanitizerViolationError:
        full = f"{rule_id}: {message} ({SANITIZE_RULES[rule_id]})"
        if self.emit is not None:
            self.emit("sanitizer.violation", rule=rule_id, writer=writer)
        return SanitizerViolationError(rule_id, writer, owners, full)
