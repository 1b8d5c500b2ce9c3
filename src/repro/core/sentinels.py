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
(one array pass over the block output; a staircase is walked row-wise
only for an entity that flipped); a flip raises
:class:`~repro.errors.RangeIntegrityError` and the controller replays
conservatively.

This is the loosest sound check: it fails exactly when a pruned tuple's
contribution to the current partial result would have changed, rather
than whenever a range drifts.

Recovery depth: each (entity, direction) keeps its monotone *tightening
history* — the batch at which each successively tighter binding value was
resolved. On a violation the store computes the earliest batch whose
recorded decision flips under the current estimates; every strictly
earlier decision still holds, so ``RangeIntegrityError.recover_from_batch``
is that batch minus one and the controller only replays the suffix. The
history suffices: a flipped decision that was folded away (looser than
the staircase step active when it was recorded) implies the tighter step
recorded at or before its batch flips too, so the minimum over the
staircase is the true earliest flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable

import numpy as np

from repro.core.blocks import RuntimeContext
from repro.core.values import LineageRef, UncertainValue
from repro.errors import RangeIntegrityError
from repro.relational.expressions import Comparison, Expression
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema

#: Identity of the uncertain side of one resolved decision: the raw
#: lineage cells it compared against (hashable).
Entity = tuple


#: One (entity, direction) tightening history: ``[(batch_no, det), ...]``
#: in batch order, each entry strictly tighter than the previous.
History = list


@dataclass
class _ConjunctSentinels:
    """Sentinels of one uncertain conjunct, one slot per entity (whose
    cells, zipped with the conjunct's uncertain columns, are also the row
    its uncertain side is re-evaluated on)."""

    #: entity -> slot, in first-recorded order
    entities: dict[Entity, int] = field(default_factory=dict)
    #: per slot: tightening history of det values resolved TRUE / FALSE
    true_hist: list[History] = field(default_factory=list)
    false_hist: list[History] = field(default_factory=list)
    #: Check-time cache per uncertain column position: ``(group index,
    #: gid per slot)``, extended as entities are appended.
    mirrors: dict[int, tuple] = field(default_factory=dict, compare=False)

    def __deepcopy__(self, memo: dict) -> "_ConjunctSentinels":
        # Entities and history entries are immutable; the containers are not.
        return _ConjunctSentinels(
            dict(self.entities),
            [list(h) for h in self.true_hist],
            [list(h) for h in self.false_hist],
            {j: (index, list(gids)) for j, (index, gids) in self.mirrors.items()},
        )

    def history(self, entity: Entity, expected: bool) -> History:
        slot = self.entities.get(entity)
        if slot is None:
            slot = self.entities[entity] = len(self.true_hist)
            self.true_hist.append([])
            self.false_hist.append([])
        return (self.true_hist if expected else self.false_hist)[slot]


def _gather_points(
    store: "_ConjunctSentinels", j: int, ctx: RuntimeContext
) -> tuple[np.ndarray, np.ndarray] | None:
    """Current ``(points, absent mask)`` of every entity's ``j``-th cell,
    or ``None`` unless all of them reference one published block column."""
    first = next(iter(store.entities))[j]
    output = ctx.blocks.get(first.block_id) if isinstance(first, LineageRef) else None
    if output is None:
        return None
    index, gids = store.mirrors.get(j, (None, None))
    if index is not output.index:
        index, gids = store.mirrors[j] = (output.index, [])
    for entity in islice(store.entities, len(gids), None):
        cell = entity[j]
        if not (
            isinstance(cell, LineageRef)
            and cell.block_id == first.block_id
            and cell.column == first.column
        ):
            del store.mirrors[j]
            return None
        gids.append(index.gid_of.get(cell.key, -1))
    at = np.asarray(gids, dtype=np.intp)
    absent = output.absent(at)
    if absent.all():
        return np.full(len(at), np.nan), absent
    return output.ucol(first.column).point[np.where(absent, 0, at)], absent


def _tighter(op: str, expected: bool, old: float, new: float) -> float:
    """The binding (hardest to keep satisfied) of two resolved det values."""
    if op in (">", ">="):
        # det > unc resolved TRUE: smallest det value is binding;
        # resolved FALSE (det <= unc): largest det value is binding.
        return min(old, new) if expected else max(old, new)
    if op in ("<", "<="):
        return max(old, new) if expected else min(old, new)
    return new  # ==/!=: keep the most recent


def _push(op: str, expected: bool, hist: History, batch_no: int, value: float) -> None:
    """Fold ``value`` into a tightening history, stamping the batch."""
    if not hist:
        hist.append((batch_no, value))
        return
    last_batch, last_value = hist[-1]
    tight = _tighter(op, expected, last_value, value)
    if tight == last_value:
        return
    if op in ("==", "!="):
        # Equality sentinels guard only the most recent decision; the
        # superseded history cannot flip independently of it.
        hist[:] = [(batch_no, tight)]
    elif last_batch == batch_no:
        hist[-1] = (batch_no, tight)
    else:
        hist.append((batch_no, tight))


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
        self._per_conjunct = [_ConjunctSentinels() for _ in conjuncts]
        # Compile: which side is deterministic; which uncertain columns
        # each conjunct touches (entity identity).
        self._sides: list[tuple[Expression | None, Expression | None, list[str]]] = []
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

    def __len__(self) -> int:
        return sum(
            sum(map(bool, c.true_hist)) + sum(map(bool, c.false_hist))
            for c in self._per_conjunct
        )

    # -- recording ---------------------------------------------------------------

    def record(
        self,
        conjunct_idx: int,
        rel,
        row_indices: np.ndarray,
        expected: np.ndarray,
        vectorize: bool = False,
        batch_no: int = 0,
    ) -> None:
        """Record sentinels for rows just resolved by conjunct ``conjunct_idx``.

        ``row_indices`` are positions in ``rel``; ``expected`` the resolved
        boolean per row; ``batch_no`` stamps the tightening history (used
        to compute the recovery depth on a later flip). With
        ``vectorize=True``, ordered comparisons fold the batch per entity
        with array min/max before touching the dicts (bit-identical:
        min/max folds commute, and entity equality is by value either
        way).
        """
        det_expr, unc_expr, cols = self._sides[conjunct_idx]
        store = self._per_conjunct[conjunct_idx]
        cmp_ = self.conjuncts[conjunct_idx]
        op = cmp_.op if det_expr is cmp_.left or det_expr is None else _flip(cmp_.op)
        det_values = (
            np.asarray(det_expr.evaluate(rel), dtype=np.float64)
            if det_expr is not None
            else None
        )
        if (
            vectorize
            and det_values is not None
            and op in ("<", "<=", ">", ">=")
            and len(row_indices)
            # Python's min/max are order-sensitive under NaN; keep the
            # sequential reference fold there.
            and not np.isnan(det_values[row_indices]).any()
        ):
            self._record_batched(
                store, op, rel, row_indices, expected, cols, det_values, batch_no
            )
            return
        columns = [rel.columns[c] for c in cols]
        for i, exp in zip(row_indices, expected):
            entity = tuple(column[i] for column in columns)
            d = float(det_values[i]) if det_values is not None else 0.0
            _push(op, bool(exp), store.history(entity, bool(exp)), batch_no, d)

    def _record_batched(
        self,
        store: _ConjunctSentinels,
        op: str,
        rel,
        row_indices: np.ndarray,
        expected: np.ndarray,
        cols: list[str],
        det_values: np.ndarray,
        batch_no: int,
    ) -> None:
        """Fold one batch per (entity, direction) before the dict merge."""
        idx = np.asarray(row_indices, dtype=np.intp)
        m = len(idx)
        exp = np.asarray(expected, dtype=bool)
        cell_cols = [np.asarray(rel.columns[c], dtype=object)[idx] for c in cols]
        # Entity codes by cell identity. Equal-but-distinct cells land in
        # different codes; the dict merge below re-unifies them by value,
        # and min/max folds commute, so the result is unchanged. A column
        # with a structured lineage sidecar yields the codes straight from
        # its gids (intermediate code order is immaterial — the final
        # iteration below is by first appearance either way).
        codes = np.zeros(m, dtype=np.intp)
        for c, arr in zip(cols, cell_cols):
            lin = rel.lineage.get(c)
            if lin is not None and len(lin) == len(rel.mult):
                _, inv = np.unique(lin.gids[idx], return_inverse=True)
            else:
                ids = np.frompyfunc(id, 1, 1)(arr).astype(np.int64)
                _, inv = np.unique(ids, return_inverse=True)
            inv = inv.reshape(m).astype(np.intp, copy=False)
            radix = int(inv.max()) + 1
            _, codes = np.unique(codes * radix + inv, return_inverse=True)
            codes = codes.reshape(m).astype(np.intp, copy=False)
        num = int(codes.max()) + 1
        d = det_values[idx]
        for flag in (True, False):
            mask = exp if flag else ~exp
            if not mask.any():
                continue
            sub_codes = codes[mask]
            sub_rows = np.flatnonzero(mask)
            use_min = (op in (">", ">=")) == flag
            fold = np.full(num, np.inf if use_min else -np.inf)
            (np.minimum if use_min else np.maximum).at(fold, sub_codes, d[mask])
            first = np.full(num, m, dtype=np.intp)
            np.minimum.at(first, sub_codes, sub_rows)
            present = np.unique(sub_codes)
            for code in present[np.argsort(first[present], kind="stable")]:
                row = first[code]
                entity = tuple(col[row] for col in cell_cols)
                _push(
                    op, flag, store.history(entity, flag), batch_no,
                    float(fold[code]),
                )

    # -- checking -------------------------------------------------------------------

    def check(self, ctx: RuntimeContext) -> None:
        """Re-evaluate all tightest sentinels against current estimates.

        Skipped during a recovery replay: restored sentinels are known to
        hold at the restore point, the replayed suffix prunes nothing, and
        a raise here would escape the controller's recovery handler.
        """
        _traced(ctx, self, lambda: self._check(ctx))

    def _check(self, ctx: RuntimeContext) -> None:
        #: (recover_from_batch, reason) per violated (entity, direction);
        #: collected exhaustively so one raise carries the deepest
        #: (minimum) recovery point of the whole store.
        violations: list[tuple[int, str]] = []
        for idx, store in enumerate(self._per_conjunct):
            if not store.entities:
                continue
            entities: Iterable[Entity] = store.entities
            suspects = self._suspects(idx, store, ctx) if ctx.config.vectorize else None
            if suspects is not None:
                flagged = set(suspects.tolist())
                entities = [e for e, slot in entities.items() if slot in flagged] if flagged else ()
            for entity in entities:
                self._check_entity(idx, entity, ctx, violations)
        if violations:
            raise self._violation(ctx, violations)

    def _check_entity(
        self, idx: int, entity: Entity, ctx: RuntimeContext, violations: list
    ) -> None:
        """Row-wise check of one entity's two staircases (the reference,
        and what names the violation once the array pass found one)."""
        det_expr, _unc_expr, cols = self._sides[idx]
        cmp_, store = self.conjuncts[idx], self._per_conjunct[idx]
        slot = store.entities[entity]
        resolved = self._resolve_row(dict(zip(cols, entity)), ctx)
        for expected, hist in (
            (True, store.true_hist[slot]),
            (False, store.false_hist[slot]),
        ):
            if not hist:
                continue
            if resolved is None:
                violations.append((
                    max(hist[0][0] - 1, 0),
                    f"entity vanished (first resolved at batch "
                    f"{hist[0][0]})",
                ))
                continue
            # The tightest (latest) entry flips first: if it still
            # holds, every looser entry of the staircase does too.
            tight = hist[-1][1]
            if self._evaluate(cmp_, det_expr, tight, resolved) == expected:
                continue
            flipped = [
                batch
                for batch, det in hist
                if self._evaluate(cmp_, det_expr, det, resolved) != expected
            ]
            first = min(flipped)
            violations.append((
                max(first - 1, 0),
                f"resolved decision flipped: {cmp_!r} expected "
                f"{expected} for det value {tight!r} (earliest flip "
                f"resolved at batch {first})",
            ))

    def _suspects(
        self, idx: int, store: _ConjunctSentinels, ctx: RuntimeContext
    ) -> np.ndarray | None:
        """Slots whose tightest sentinel no longer holds, from one array
        pass: entity points gathered by gid, the uncertain side evaluated
        once, compared against the tightest det values. Only a filter
        (:meth:`_check_entity` words each violation): it may flag
        spuriously, never miss; ``None`` = check every entity (one is not a
        plain reference into a published block)."""
        det_expr, _unc_expr, cols = self._sides[idx]
        cmp_ = self.conjuncts[idx]
        n = len(store.entities)
        points: dict[str, np.ndarray] = {}
        vanished = np.zeros(n, dtype=bool)
        for j, name in enumerate(cols):
            gathered = _gather_points(store, j, ctx)
            if gathered is None:
                return None
            points[name], absent = gathered
            vanished |= absent
        rows = Relation._from_parts(
            Schema([(name, ColumnType.FLOAT) for name in cols]), points, np.ones(n)
        )
        with np.errstate(all="ignore"):
            # None marks the det side: the tightest recorded value, below.
            left, right = (
                None if side is det_expr
                else np.asarray(side.evaluate(rows), dtype=np.float64)
                for side in (cmp_.left, cmp_.right)
            )
        suspect = np.zeros(n, dtype=bool)
        for expected, hists in ((True, store.true_hist), (False, store.false_hist)):
            has = np.fromiter(map(bool, hists), dtype=bool, count=n)
            tight = np.fromiter(
                (h[-1][1] if h else 0.0 for h in hists), dtype=np.float64, count=n
            )
            decided = _compare(
                cmp_.op,
                tight if left is None else left,
                tight if right is None else right,
            )
            suspect |= has & (vanished | (decided != expected))
        return np.flatnonzero(suspect)

    def _resolve_row(
        self, refs: dict[str, object], ctx: RuntimeContext
    ) -> dict[str, object] | None:
        out: dict[str, object] = {}
        for col_name, cell in refs.items():
            value = ctx.resolve(cell) if isinstance(cell, LineageRef) else cell
            if value is None:
                return None
            out[col_name] = value
        return out

    def _evaluate(
        self,
        cmp_: Comparison,
        det_expr: Expression | None,
        det_value: float,
        resolved: dict[str, object],
    ) -> bool:
        if det_expr is None:
            # Both sides uncertain: re-evaluate both on the ref row.
            left = point_of_safe(cmp_.left.evaluate_row(resolved))
            right = point_of_safe(cmp_.right.evaluate_row(resolved))
            return bool(_compare(cmp_.op, left, right))
        unc = point_of_safe(
            (cmp_.right if det_expr is cmp_.left else cmp_.left).evaluate_row(resolved)
        )
        if det_expr is cmp_.left:
            return bool(_compare(cmp_.op, det_value, unc))
        return bool(_compare(cmp_.op, unc, det_value))

    def _violation(
        self, ctx: RuntimeContext, violations: list[tuple[int, str]]
    ) -> RangeIntegrityError:
        ctx.monitor.record_failure()
        recover_from = min(batch for batch, _ in violations)
        reason = violations[0][1]
        if len(violations) > 1:
            reason += f" (+{len(violations) - 1} more)"
        return RangeIntegrityError(
            f"sentinel violation at batch {ctx.batch_no}: {reason}; "
            f"state is consistent through batch {recover_from}",
            recover_from_batch=recover_from,
        )

    def reset(self) -> None:
        self._per_conjunct = [_ConjunctSentinels() for _ in self.conjuncts]

    def estimated_bytes(self) -> int:
        total = 0
        for store in self._per_conjunct:
            for hists in (store.true_hist, store.false_hist):
                for hist in hists:
                    if hist:
                        total += 40 + 24 * len(hist)
            total += 96 * len(store.entities)
        return total


class MembershipSentinels:
    """Sentinels for resolved join-side membership decisions.

    The uncertain join emits or drops stream tuples permanently once a
    side group's membership is stable. The sentinel per group is simply
    the expected membership; a flip of the group's current point
    membership invalidates those emissions.
    """

    def __init__(self) -> None:
        self.expected: dict[tuple, bool] = {}
        #: key -> batch at which the membership was first resolved; drives
        #: ``recover_from_batch`` when the decision later flips.
        self.resolved_at: dict[tuple, int] = {}

    def record(self, key: tuple, member: bool, batch_no: int = 0) -> None:
        if key not in self.expected:
            self.expected[key] = member
            self.resolved_at[key] = batch_no

    def check(self, ctx: RuntimeContext, view) -> None:
        _traced(ctx, self, lambda: self._check(ctx, view))

    def _check(self, ctx: RuntimeContext, view) -> None:
        if ctx.config.vectorize and view is not None:
            flipped = self._flipped(view)
        else:
            flipped = [
                key
                for key, expected in self.expected.items()
                if (
                    view is not None
                    and (group := view.get(key)) is not None
                    and group.member_point
                ) != expected
            ]
        if not flipped:
            return
        ctx.monitor.record_failure()
        recover_from = min(
            max(self.resolved_at.get(key, 0) - 1, 0) for key in flipped
        )
        key = min(flipped, key=lambda k: self.resolved_at.get(k, 0))
        more = f" (+{len(flipped) - 1} more)" if len(flipped) > 1 else ""
        raise RangeIntegrityError(
            f"membership of group {key!r} flipped (expected "
            f"{self.expected[key]}) at batch {ctx.batch_no}{more}; "
            f"state is consistent through batch {recover_from}",
            recover_from_batch=recover_from,
        )

    def _flipped(self, view) -> list[tuple]:
        """Keys whose current point membership differs from the recorded
        one — one gather over the view's arrays."""
        keys = list(self.expected)
        gids = view.probe(keys)
        member_now = gids >= 0
        member_now[member_now] = view.member_point[gids[member_now]]
        expected = np.fromiter(self.expected.values(), dtype=bool, count=len(keys))
        return [keys[i] for i in np.flatnonzero(member_now != expected)]

    def reset(self) -> None:
        self.expected.clear()
        self.resolved_at.clear()

    def __len__(self) -> int:
        return len(self.expected)

    def estimated_bytes(self) -> int:
        return 56 * len(self.expected)


def point_of_safe(value: object) -> float:
    if isinstance(value, UncertainValue):
        return value.value
    return float(value)  # type: ignore[arg-type]


def _compare(op: str, a: float, b: float) -> bool:
    with np.errstate(invalid="ignore"):
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == "==":
            return a == b
        return a != b


def _flip(op: str) -> str:
    return {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
