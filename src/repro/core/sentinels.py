"""Sentinels: operator-level integrity guards for pruned decisions.

When an online operator resolves a tuple near-deterministically (Section
5.1's set ``C_i``), that tuple leaves the operator's state forever: it is
either folded into downstream sketches (stable TRUE) or dropped (stable
FALSE). Theorem 1 then rests on the resolved decision never flipping.

The variation-range estimate can be wrong, so each operator records a
*sentinel* per resolved decision: the deterministic comparison value and
the expected outcome, keyed by the uncertain entity the decision compared
against (the lineage cells of its uncertain side). Only the *tightest*
sentinel per direction needs keeping — if the closest resolved value
still classifies the same way, every farther one does too. Each batch the
operator re-evaluates its sentinels against the current point estimates
(one gather and one comparison per conjunct); a flip, or an entity that
vanished, raises :class:`~repro.errors.RangeIntegrityError` naming the
entity (block, group key and column of each cell), the direction and the
det value, and the controller resets the operators to their pre-run
state and replays conservatively.

This is the loosest sound check: it fails exactly when a pruned tuple's
contribution to the current partial result would have changed, rather
than whenever a range drifts.

Everything is kept in arrays indexed by *slot* (one per entity, in
first-recorded order). An entity is the tuple of its cells' codes, and a
cell is a lineage gid (:mod:`repro.storage.lineage`) coded with one
gather, so recording touches each row a constant number of times: no
per-row tuple, dict probe or Python call. An entity holds only uncertain
cells, so the uncertain side of a sentinel's comparison reads uncertain
columns only (a stream comparison mixing in a certain column is refused
at compile time, TC107).
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import RuntimeContext
from repro.core.classify import compare
from repro.errors import RangeIntegrityError
from repro.relational.expressions import Comparison, Expression
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema

_ORDERED = ("<", "<=", ">", ">=")


def _room(arr: np.ndarray, size: int, fill: object) -> np.ndarray:
    """``arr`` if it has ``size`` rows, else a copy with at least double
    the rows, the new ones set to ``fill``."""
    have = arr.shape[0]
    if size <= have:
        return arr
    grown = np.full((max(size, 2 * have),) + arr.shape[1:], fill, dtype=arr.dtype)
    grown[:have] = arr
    return grown


class _Cells:
    """Dense codes of one uncertain column's cells, in first-recorded order.

    The cells are gids into the block column ``lineage`` names;
    ``gids[code]`` is the cell of each code and ``code_of_gid`` maps a gid
    straight to its code (``-1``: not seen yet), so a recorded row costs
    one gather.
    """

    __slots__ = ("lineage", "gids", "code_of_gid")

    def __init__(self) -> None:
        self.lineage = None
        self.gids = np.zeros(0, dtype=np.intp)
        self.code_of_gid = np.zeros(0, dtype=np.intp)

    def codes(self, rel: Relation, name: str, idx: np.ndarray) -> np.ndarray:
        """Code of column ``name``'s cell at each row of ``idx``."""
        self.lineage = rel.lineage[name]
        gids = rel.columns[name][idx]
        table = self.code_of_gid = _room(self.code_of_gid, int(gids.max()) + 1, -1)
        codes = table[gids]
        missed = np.flatnonzero(codes < 0)
        if len(missed):
            # First-seen gids in row order, so codes follow first record.
            new, first = np.unique(gids[missed], return_index=True)
            new = new[np.argsort(first, kind="stable")]
            table[new] = np.arange(len(self.gids), len(self.gids) + len(new))
            self.gids = np.concatenate([self.gids, new])
            codes = table[gids]
        return codes

    def describe(self, code: int, ctx: RuntimeContext) -> str:
        """``(block, group key, column)`` of the cell ``code``."""
        lin, gid = self.lineage, int(self.gids[code])
        output = ctx.blocks.get(lin.block_id)
        keys = output.index.keys if output is not None else ()
        key = f"key {keys[gid]!r}" if gid < len(keys) else f"gid {gid}"
        return f"(block {lin.block_id}, {key}, column {lin.column!r})"


class _ConjunctSentinels:
    """Sentinels of one uncertain conjunct, one slot per entity.

    ``entities[slot]`` holds the entity's cell code per uncertain column
    (whose cells, gathered per column, are also the row its uncertain
    side is re-evaluated on). Per slot and direction (column 0: resolved
    FALSE, 1: TRUE), ``tight`` is the binding det value and ``has``
    whether any decision was recorded.
    """

    def __init__(self, op: str, ncols: int):
        self.op = op
        self.cells = [_Cells() for _ in range(ncols)]
        #: Entity (code tuple) -> slot; conjuncts over one column use the
        #: code as the slot and leave this empty.
        self.slot_of: dict[tuple, int] = {}
        self.n = 0
        self.entities = np.zeros((0, ncols), dtype=np.intp)
        self.tight = np.zeros((0, 2))
        self.has = np.zeros((0, 2), dtype=bool)

    # -- recording ---------------------------------------------------------------

    def slots(self, rel: Relation, cols: list[str], idx: np.ndarray) -> np.ndarray:
        """Slot of each row of ``idx``, allocating unseen entities."""
        per_col = [cells.codes(rel, name, idx) for cells, name in zip(self.cells, cols)]
        if len(per_col) == 1:
            slots = per_col[0]
            top = len(self.cells[0].gids)
        else:
            keys = zip(*(c.tolist() for c in per_col))
            slots = np.fromiter(map(self._slot, keys), np.intp, len(idx))
            top = len(self.slot_of)
        if top > self.n:
            self.entities = _room(self.entities, top, 0)
            self.tight = _room(self.tight, top, 0.0)
            self.has = _room(self.has, top, False)
            if len(per_col) == 1:
                self.entities[self.n:top, 0] = np.arange(self.n, top)
            self.n = top
        return slots

    def _slot(self, key: tuple) -> int:
        slot = self.slot_of.get(key)
        if slot is None:
            slot = self.slot_of[key] = len(self.slot_of)
            self.entities = _room(self.entities, slot + 1, 0)
            self.entities[slot] = key
        return slot

    def fold(self, expected: bool, slots: np.ndarray, values: np.ndarray) -> None:
        """Fold one batch's decisions of one direction into the tightest
        values.

        The result equals pushing the rows one at a time in row order: an
        empty entry takes its first value (NaN included), a NaN entry never
        moves, and an ordered entry moves only to a strictly tighter value
        (NaN never is); an equality entry follows the latest value.
        """
        d = int(expected)
        n = self.n
        has = self.has[:n, d]
        if self.op in _ORDERED:
            tighter = np.fmin if (self.op in (">", ">=")) == expected else np.fmax
            folded = np.full(n, np.nan)
            tighter.at(folded, slots, values)  # fmin/fmax skip NaN
            start = np.where(has, self.tight[:n, d], folded)
            if np.isnan(values).any():
                # An empty entry whose first value is NaN stays NaN.
                uniq, first = np.unique(slots, return_index=True)
                start[uniq[np.isnan(values[first]) & ~has[uniq]]] = np.nan
            stuck = np.isnan(start)
            new = np.where(stuck, start, tighter(start, folded))
            hit = np.zeros(n, dtype=bool)
            hit[slots] = True
            moved = np.where(has, (new != start) & ~stuck, hit)
        else:
            new, moved = self._latest(has, self.tight[:n, d], slots, values)
        at = np.flatnonzero(moved)
        self.tight[at, d] = new[at]
        has[at] = True

    def _latest(
        self, has: np.ndarray, old: np.ndarray, slots: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Equality entries, per slot: the last value, and whether any value
        differs from the one before it (the entry's old value first; NaN
        differs from everything, an empty entry always moves)."""
        order = np.argsort(slots, kind="stable")
        v, s = values[order], slots[order]
        lead = np.ones(len(v), dtype=bool)
        lead[1:] = s[1:] != s[:-1]
        prev = np.empty_like(v)
        prev[1:] = v[:-1]
        prev[lead] = old[s[lead]]
        differs = ~(v == prev) | (lead & ~has[s])
        starts = np.flatnonzero(lead)
        new = np.empty(len(old))
        moved = np.zeros(len(old), dtype=bool)
        new[s[starts]] = v[np.append(starts[1:], len(v)) - 1]
        moved[s[starts]] = np.logical_or.reduceat(differs, starts)
        return new, moved

    # -- reading -----------------------------------------------------------------------

    def describe(self, slot: int, ctx: RuntimeContext) -> str:
        return " & ".join(
            cells.describe(code, ctx)
            for cells, code in zip(self.cells, self.entities[slot].tolist())
        )

    def gather(self, j: int, ctx: RuntimeContext) -> tuple[np.ndarray, np.ndarray]:
        """Current ``(points, absent mask)`` of every slot's ``j``-th cell."""
        cells = self.cells[j]
        at = cells.gids[self.entities[: self.n, j]]
        output = ctx.blocks.get(cells.lineage.block_id)
        absent = np.ones(len(at), dtype=bool) if output is None else output.absent(at)
        if absent.all():
            return np.full(len(at), np.nan), absent
        return output.ucol(cells.lineage.column).point[np.where(absent, 0, at)], absent


def _traced(ctx: RuntimeContext, store, check) -> None:
    """Run ``check()`` under a ``range-check`` span (a failure also logs a
    warning) — unless a recovery replay is in flight."""
    if ctx.monitor.replaying:
        return
    tracer = ctx.obs.tracer
    if not tracer.enabled:
        check()
        return
    with tracer.span("range-check", cat="range", batch=ctx.batch_no, sentinels=len(store)):
        try:
            check()
        except RangeIntegrityError as failure:
            tracer.warning(
                "range-integrity-failure", batch=ctx.batch_no, message=str(failure)
            )
            raise


class SentinelStore:
    """All sentinels of one online operator."""

    def __init__(self, conjuncts: list[Comparison], uncertain_cols: set[str]):
        self.conjuncts = conjuncts
        self.uncertain_cols = uncertain_cols
        # Compile: which side is deterministic; which uncertain columns
        # each conjunct touches (entity identity); the comparison read
        # with the det side on the left.
        self._sides: list[tuple[Expression | None, Expression | None, list[str]]] = []
        self._ops: list[str] = []
        for cmp_ in conjuncts:
            left_u = bool(cmp_.left.attrs() & uncertain_cols)
            right_u = bool(cmp_.right.attrs() & uncertain_cols)
            cols = sorted(cmp_.attrs() & uncertain_cols)
            if left_u and right_u:
                self._sides.append((None, None, cols))
            elif right_u:
                self._sides.append((cmp_.left, cmp_.right, cols))
            else:
                self._sides.append((cmp_.right, cmp_.left, cols))
            det = self._sides[-1][0]
            self._ops.append(cmp_.op if det is None or det is cmp_.left else _flip(cmp_.op))
        #: Per conjunct, the schema of the entity points the check gathers.
        self._point_schemas = [
            Schema([(name, ColumnType.FLOAT) for name in cols]) for _, _, cols in self._sides
        ]
        self.reset()

    def __len__(self) -> int:
        return sum(int(c.has[: c.n].sum()) for c in self._per_conjunct)

    # -- recording ---------------------------------------------------------------

    def record(
        self,
        conjunct_idx: int,
        rel,
        row_indices: np.ndarray,
        expected: np.ndarray,
    ) -> None:
        """Record sentinels for rows just resolved by conjunct ``conjunct_idx``.

        ``row_indices`` are positions in ``rel``; ``expected`` the resolved
        boolean per row. The rows fold with array min/max, equal to pushing
        them one by one (see :meth:`_ConjunctSentinels.fold`).
        """
        idx = np.asarray(row_indices, dtype=np.intp)
        if not len(idx):
            return
        det_expr, _unc_expr, cols = self._sides[conjunct_idx]
        store = self._per_conjunct[conjunct_idx]
        if det_expr is None:
            det = np.zeros(len(idx))
        else:
            det = np.asarray(det_expr.evaluate(rel), dtype=np.float64)[idx]
        slots = store.slots(rel, cols, idx)
        exp = np.asarray(expected, dtype=bool)
        if exp.all() or not exp.any():
            store.fold(bool(exp[0]), slots, det)
            return
        for flag, mask in ((True, exp), (False, ~exp)):
            store.fold(flag, slots[mask], det[mask])

    # -- checking -------------------------------------------------------------------

    def check(self, ctx: RuntimeContext) -> None:
        """Re-evaluate all tightest sentinels against current estimates.

        Skipped during a recovery replay: the operators were reset, so
        there is no sentinel to check, the replayed prefix prunes nothing,
        and a raise here would escape the controller's recovery handler.
        """
        _traced(ctx, self, lambda: self._check(ctx))

    def _check(self, ctx: RuntimeContext) -> None:
        for idx, store in enumerate(self._per_conjunct):
            if not store.n:
                continue
            violated, vanished = self._violations(idx, store, ctx)
            hit = np.flatnonzero(violated.any(axis=1))
            if not len(hit):
                continue
            # The first entity, its resolved-TRUE sentinel before FALSE.
            slot = int(hit[0])
            expected = bool(violated[slot, 1])
            entity = store.describe(slot, ctx)
            if vanished[slot]:
                reason = f"entity {entity} resolved {expected} vanished"
            else:
                # If the tightest decision still holds, every looser one does.
                tight = float(store.tight[slot, int(expected)])
                reason = (
                    f"resolved decision flipped for entity {entity}: "
                    f"{self.conjuncts[idx]!r} expected {expected} for det value {tight!r}"
                )
            ctx.monitor.record_failure()
            raise RangeIntegrityError(f"sentinel violation at batch {ctx.batch_no}: {reason}")

    def _violations(
        self, idx: int, store: _ConjunctSentinels, ctx: RuntimeContext
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per slot and direction (as in ``tight``), whether its tightest
        sentinel no longer holds, and per slot whether its entity vanished:
        entity points gathered by gid, the uncertain side evaluated once,
        compared against the tightest det values."""
        det_expr, _unc_expr, cols = self._sides[idx]
        cmp_ = self.conjuncts[idx]
        n = store.n
        points: dict[str, np.ndarray] = {}
        vanished = np.zeros(n, dtype=bool)
        for j, name in enumerate(cols):
            points[name], absent = store.gather(j, ctx)
            vanished |= absent
        rows = Relation._from_parts(self._point_schemas[idx], points, np.ones(n))
        with np.errstate(all="ignore"):
            # None marks the det side: the tightest recorded value, below.
            left, right = (
                None if side is det_expr
                else np.asarray(side.evaluate(rows), dtype=np.float64)
                for side in (cmp_.left, cmp_.right)
            )
        violated = np.zeros((n, 2), dtype=bool)
        for expected in (False, True):
            tight = store.tight[:n, int(expected)]
            decided = compare(
                cmp_.op,
                tight if left is None else left,
                tight if right is None else right,
            )
            violated[:, int(expected)] = store.has[:n, int(expected)] & (
                vanished | (decided != expected)
            )
        return violated, vanished

    def reset(self) -> None:
        self._per_conjunct = [
            _ConjunctSentinels(op, len(cols))
            for op, (_, _, cols) in zip(self._ops, self._sides)
        ]

    def estimated_bytes(self) -> int:
        return sum(
            96 * store.n + 40 * int(store.has[: store.n].sum())
            for store in self._per_conjunct
        )


class MembershipSentinels:
    """Sentinels for resolved join-side membership decisions.

    The uncertain join emits or drops stream tuples permanently once a
    side group's membership is stable. The sentinel per group is simply
    the expected membership; a flip of the group's current point
    membership invalidates those emissions.

    Entries are slots in first-recorded order, keyed by the group's gid
    in the side view's :class:`~repro.core.blocks.GroupIndex` (one per
    run, never rewound): ``gids`` and ``member`` per slot, and
    ``slot_of_gid`` so a batch of decisions costs one gather. The check
    gathers every slot's current membership by gid in one pass.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: The group index the gids below refer to (it names a flipped key).
        self._index = None
        self.gids = np.zeros(0, dtype=np.intp)
        self.member = np.zeros(0, dtype=bool)
        self._slot_of_gid = np.zeros(0, dtype=np.intp)

    def record_gids(self, index, gids: np.ndarray, member: np.ndarray) -> None:
        """Record the decisions of distinct groups ``gids`` of ``index``
        (the first record of a group wins)."""
        if not len(gids):
            return
        self._index = index
        table = self._slot_of_gid = _room(self._slot_of_gid, len(index), -1)
        fresh = table[gids] < 0
        if not fresh.any():
            return
        table[gids[fresh]] = np.arange(len(self.gids), len(self.gids) + int(fresh.sum()))
        self.gids = np.concatenate([self.gids, gids[fresh]])
        self.member = np.concatenate([self.member, member[fresh]])

    def check(self, ctx: RuntimeContext, view) -> None:
        _traced(ctx, self, lambda: self._check(ctx, view))

    def _check(self, ctx: RuntimeContext, view) -> None:
        member_now = np.zeros(len(self.gids), dtype=bool)
        if view is not None and len(self.gids):
            present = ~view.absent(self.gids)
            member_now[present] = view.member_point[self.gids[present]]
        flipped = np.flatnonzero(member_now != self.member)
        if not len(flipped):
            return
        ctx.monitor.record_failure()
        first = flipped[0]
        more = f" (+{len(flipped) - 1} more)" if len(flipped) > 1 else ""
        raise RangeIntegrityError(
            f"membership of group {self._index.keys[self.gids[first]]!r} flipped "
            f"(expected {bool(self.member[first])}) at batch {ctx.batch_no}{more}"
        )

    def __len__(self) -> int:
        return len(self.gids)

    def estimated_bytes(self) -> int:
        return 56 * len(self.gids)


def _flip(op: str) -> str:
    return {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
