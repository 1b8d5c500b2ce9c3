"""Operator base class, dataflow message, and the pipeline driver.

Online operators follow a formal lifecycle, driven from the outside:

* ``process(delta, ctx)`` — once per batch: consumes the child outputs
  (``delta`` is ``None`` for leaves, a :class:`DeltaBatch` for unary
  operators, and a list of them for n-ary operators) and returns this
  operator's :class:`DeltaBatch`;
* ``state_items()`` — introspection over the named state entries;
* ``reset()`` — on failure recovery: every store back to its seed.

Operators never call into their children: :func:`drive_pipeline` walks
the operator tree bottom-up, feeding each operator its inputs and
recording per-operator wall time into ``BatchMetrics.op_seconds``. This
keeps operator logic, state management, and scheduling in separate
layers (the unit loop sequences pipelines; the driver sequences
operators within one pipeline).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar, Iterator

import numpy as np

from repro.core.blocks import RuntimeContext
from repro.relational.expressions import Expression
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.state import StateStore


@dataclass
class DeltaBatch:
    """Per-batch dataflow message between online operators.

    * ``certain`` — rows emitted *permanently* this batch. Their
      multiplicity can only be confirmed, never revoked (modulo failure
      recovery), so downstream aggregates fold them into sketches and
      forget them.
    * ``volatile`` — the full current contribution of non-deterministic
      rows, recomputed every batch. Downstream operators recompute
      whatever depends on them, which is exactly the recomputation
      iOLAP's optimizations keep small.
    """

    certain: Relation
    volatile: Relation

    @property
    def total_rows(self) -> int:
        return len(self.certain) + len(self.volatile)


@dataclass(frozen=True)
class TagRule:
    """Declarative Appendix-A tag behaviour of one operator class.

    The ``repro.analysis`` plan typechecker consumes these specs to check
    that the compiler placed each operator exactly where its uncertainty
    tags (``u#``/``uA``) allow:

    * ``consumes_uncertain`` — whether the operator's own expressions may
      read uncertain attributes of its input: ``"forbidden"`` (a purely
      deterministic variant exists and must be used instead),
      ``"required"`` (the operator only makes sense over uncertain
      attributes), or ``"allowed"`` (pass-through either way);
    * ``introduces_nd`` — the operator can move tuples into a
      non-deterministic set (``u# = T`` decisions it must re-examine);
    * ``resets_tags`` — output tags are the operator's own (an AGGREGATE
      publishes a lineage block; input tags do not flow through).
    """

    consumes_uncertain: str = "allowed"
    introduces_nd: bool = False
    resets_tags: bool = False


@dataclass(frozen=True)
class StateRule:
    """Declarative §4.2 state contract of one operator class.

    ``entries`` is the exact set of named :class:`~repro.state.StateStore`
    entries the operator owns between batches (seeded by ``_init_state``);
    ``nd_entry`` names the non-deterministic cache among them, if any.
    The typechecker checks the entries against the store, and the
    ``--sanitize`` debug mode re-checks them after every ``process`` call
    (SAN004), so stray between-batch state cannot hide in instance
    attributes.
    """

    entries: frozenset[str] = frozenset()
    nd_entry: str | None = None

    def __post_init__(self) -> None:
        if self.nd_entry is not None and self.nd_entry not in self.entries:
            raise ValueError(
                f"nd_entry {self.nd_entry!r} missing from entries {set(self.entries)!r}"
            )


def empty_relation(schema: Schema, uncertain_cols: set[str], num_trials: int) -> Relation:
    """Empty relation whose uncertain columns use object dtype (refs)."""
    cols = {}
    for c in schema:
        dtype = np.dtype(object) if c.name in uncertain_cols else c.ctype.dtype
        cols[c.name] = np.empty(0, dtype=dtype)
    return Relation._from_parts(
        schema, cols, np.empty(0), np.empty((0, num_trials), dtype=np.float64)
    )


class SpineOp:
    """Base class of online operators in a stream pipeline."""

    #: Declarative analyzer specs; every concrete operator class overrides
    #: these (checked statically by ``repro.analysis.typecheck`` and
    #: dynamically by the ``--sanitize`` debug mode).
    tag_rule: ClassVar[TagRule] = TagRule()
    state_rule: ClassVar[StateRule] = StateRule()

    def __init__(
        self,
        label: str,
        schema: Schema,
        uncertain_cols: set[str],
        children: tuple["SpineOp", ...] = (),
    ):
        self.label = label
        self.schema = schema
        self.uncertain_cols = set(uncertain_cols)
        self.children: tuple[SpineOp, ...] = tuple(children)
        #: Named between-batch state, owned by this operator alone.
        self.state = StateStore()

    # -- lifecycle ---------------------------------------------------------------

    def process(self, delta: object, ctx: RuntimeContext) -> DeltaBatch:
        """Consume the child outputs for one batch.

        ``delta`` is ``None`` for leaf operators, a :class:`DeltaBatch`
        for unary operators, and a ``list[DeltaBatch]`` (child order)
        for n-ary operators.
        """
        raise NotImplementedError

    def state_items(self) -> list[tuple[str, object]]:
        """Current named state entries of this operator (not children)."""
        return list(self.state.items())

    # -- state / metrics ---------------------------------------------------------

    def _init_state(self) -> None:
        """Seed the store's entries; called at construction and reset."""

    def reset(self) -> None:
        """Return the subtree to its just-constructed state: every store
        cleared and re-seeded. Failure recovery calls this before it
        replays the processed batches."""
        self.state.clear()
        self._init_state()
        for child in self.children:
            child.reset()

    def record_state(self, ctx: RuntimeContext) -> None:
        """Report the subtree's state footprint into the batch metrics."""
        nbytes = self.state.estimated_bytes()
        if nbytes:
            ctx.metrics.add_state(self.label, nbytes)
        if ctx.obs.enabled:
            self._record_state_metrics(ctx)
        for child in self.children:
            child.record_state(ctx)

    def _record_state_metrics(self, ctx: RuntimeContext) -> None:
        """Per-entry state gauges: bytes per named store entry, split into
        the pruned (ND cache) vs resolved shares of the §4.2 contract."""
        reg = ctx.obs.metrics
        nd_entry = self.state_rule.nd_entry
        nd_bytes = resolved_bytes = 0
        for name, nbytes in self.state.entry_bytes().items():
            reg.gauge("state.entry.bytes", op=self.label, entry=name).set(nbytes)
            if name == nd_entry:
                nd_bytes += nbytes
            else:
                resolved_bytes += nbytes
        reg.gauge("state.nd_bytes", op=self.label).set(nd_bytes)
        reg.gauge("state.resolved_bytes", op=self.label).set(resolved_bytes)
        reg.gauge("state.writes", op=self.label).set(self.state.writes)

    # -- conveniences ------------------------------------------------------------

    def run(self, ctx: RuntimeContext) -> DeltaBatch:
        """Drive the subtree rooted here for one batch (post-order)."""
        return drive_pipeline(self, ctx)

    def empty(self, ctx: RuntimeContext) -> Relation:
        return empty_relation(self.schema, self.uncertain_cols, ctx.num_trials)


def drive_pipeline(root: SpineOp, ctx: RuntimeContext) -> DeltaBatch:
    """Evaluate an operator tree bottom-up for one batch.

    Each operator's ``process`` is timed individually (children are
    evaluated outside the parent's clock), so ``op_seconds`` reports
    true self time per operator.
    """
    inputs = [drive_pipeline(child, ctx) for child in root.children]
    if not inputs:
        delta: object = None
    elif len(inputs) == 1:
        delta = inputs[0]
    else:
        delta = inputs
    sanitizer = ctx.sanitizer
    if sanitizer is None:
        out = _timed_process(root, delta, ctx)
    else:
        sanitizer.before_process(root, delta, ctx)
        try:
            out = _timed_process(root, delta, ctx)
        except ValueError as err:
            violation = sanitizer.translate_write_error(root, delta, ctx, err)
            if violation is None:
                raise
            raise violation from err
        finally:
            sanitizer.release(root)
        sanitizer.note_output(root, out)
        sanitizer.check_state(root)
    return out


def _timed_process(root: SpineOp, delta: object, ctx: RuntimeContext) -> DeltaBatch:
    """One timed ``process`` call: an ``op`` span when the tracer is on,
    row counters when the session is on."""
    obs = ctx.obs
    span = obs.tracer.span(
        "op", cat="op", batch=ctx.batch_no,
        op=root.label, kind=type(root).__name__,
    ) if obs.tracer.enabled else None
    started = time.perf_counter()
    try:
        out = root.process(delta, ctx)
    except BaseException as exc:
        if span is not None:
            span.__exit__(type(exc), exc, exc.__traceback__)
        raise
    ctx.metrics.add_op_seconds(root.label, time.perf_counter() - started)
    if obs.enabled:
        rows_in = _delta_rows(delta)
        reg = obs.metrics
        reg.counter("op.rows_in", op=root.label).inc(rows_in)
        reg.counter("op.rows_out", op=root.label).inc(out.total_rows)
        if span is not None:
            span.set(rows_in=rows_in, rows_out=out.total_rows)
            span.__exit__(None, None, None)
    return out


def _delta_rows(delta: object) -> int:
    """Total input rows of a ``process`` call (any arity)."""
    if delta is None:
        return 0
    if isinstance(delta, DeltaBatch):
        return delta.total_rows
    return sum(d.total_rows for d in delta)


def iter_ops(root: SpineOp) -> Iterator[SpineOp]:
    """All operators of a pipeline, root first."""
    yield root
    for child in root.children:
        yield from iter_ops(child)


# -- helpers shared across operator modules ---------------------------------------


def filter_det(rel: Relation, predicate: Expression) -> Relation:
    """Apply a fully deterministic predicate."""
    if len(rel) == 0:
        return rel
    mask = np.asarray(predicate.evaluate(rel), dtype=bool)
    return rel.filter(mask)


def mask_contribution(
    rel: Relation,
    masks: tuple[np.ndarray, np.ndarray],
    rows: np.ndarray | None = None,
) -> Relation:
    """Volatile contribution of ND rows: zero out failed decisions.

    ``masks`` are the current point and per-trial decisions of ``rel``'s
    rows at positions ``rows`` (all rows for None); rows failing every
    decision drop out. One ``take``, then one multiply per weight."""
    point, trials = masks
    keep = point | trials.any(axis=1)
    out = rel.take(np.flatnonzero(keep) if rows is None else rows[keep])
    trial_mults = out.trial_mults
    trial_mults = (out.mult[:, None] if trial_mults is None else trial_mults) * trials[keep]
    return out.with_mult(out.mult * point[keep], trial_mults)


class NDStore:
    """The non-deterministic set ``U_i`` of one operator, append-only.

    ``rows`` holds every row appended since the last compaction, in
    arrival order, and ``live`` the increasing positions of those still
    undecided. Each batch appends the new undecided rows and replaces
    ``live``; nothing is written in place. The rows compact (one
    ``take``) only once dead rows outnumber live ones. ``gids``
    optionally rides along per row (the uncertain join keeps each row's
    side-group gid there).
    """

    __slots__ = ("rows", "live", "gids")

    def __init__(
        self, rows: Relation, live: np.ndarray | None = None, gids: np.ndarray | None = None
    ):
        self.rows = rows
        self.live = np.arange(len(rows)) if live is None else live
        self.gids = gids

    def __len__(self) -> int:
        return len(self.live)

    def live_rows(self, columns: list[str] | None = None) -> Relation:
        """The undecided rows, in order; only ``columns`` (and no trial
        weights) if given."""
        rows = self.rows
        if columns is not None:
            rows = rows.with_mult(rows.mult, None).project(columns)
        return rows if len(self.live) == len(rows) else rows.take(self.live)

    def live_gids(self) -> np.ndarray:
        return self.gids[self.live]

    def advanced(
        self, keep: np.ndarray, new: Relation, new_gids: np.ndarray | None = None
    ) -> "NDStore":
        """The store after one batch: live rows where ``keep`` holds, then
        ``new`` appended (its trial weights drawn here, once)."""
        live = self.live[keep]
        rows, gids = self.rows, self.gids
        if len(rows) - len(live) > len(live):
            rows, gids = rows.take(live), None if gids is None else gids[live]
            live = np.arange(len(live))
        if len(new):
            live = np.concatenate([live, np.arange(len(rows), len(rows) + len(new))])
            rows = rows.concat(new.with_drawn_trials())
            if gids is not None:
                gids = np.concatenate([gids, new_gids])
        return NDStore(rows, live, gids)

    def estimated_bytes(self) -> int:
        """Bytes of the live rows (the pruned state the paper counts)."""
        n = len(self.rows)
        if not n:
            return 0
        total = self.rows.estimated_bytes() + sum(
            lin.estimated_bytes() for lin in self.rows.lineage.values()
        )
        return total * len(self.live) // n
