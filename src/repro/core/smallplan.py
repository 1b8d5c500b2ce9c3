"""Small plan segments over lineage-block outputs, evaluated column-wise.

Everything in a query that does not touch the streamed fact table
row-by-row — HAVING clauses, scalar comparisons between aggregates,
aggregates of aggregates, IN-subquery membership views — operates on the
small outputs of lineage blocks. iOLAP recomputes these segments every
batch (they are tiny), but does so *uncertainty-aware*:

* every row carries its membership classification (stable-in, stable-out,
  or unknown) derived from variation ranges, so stream-side consumers can
  prune near-deterministic tuples (Section 5.2);
* every row carries per-bootstrap-trial existence, and aggregate values
  carry per-trial values, so the piggybacked bootstrap stays faithful
  through arbitrarily nested blocks;
* aggregate segments publish their own block outputs (with monitored
  variation ranges), making nesting compositional.

A segment's rows are a :class:`Frame` (columns over a gid selection of
block outputs, plus per-row membership arrays); each node maps frames to
a frame with a few array operations — selects classify with the ND
stores' :func:`~repro.core.classify.classify_bounds`, arithmetic is
:func:`~repro.kernels.resolve.evaluate` — and rows are built only where
the root segment delivers the query result (:func:`rows_of`, the one row
builder, which also delivers a bare block root and a row sink's gids).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.blocks import (
    MEMBER_FALSE,
    MEMBER_TRUE,
    MEMBER_UNKNOWN,
    BlockOutput,
    RuntimeContext,
    UColumn,
)
from repro.core.classify import SideValues, classify_bounds, compare
from repro.core.values import UncertainValue, VariationRange
from repro.errors import SchemaError, UnsupportedQueryError
from repro.kernels import resolve as kresolve
from repro.kernels.codec import factorize_arrays
from repro.relational.aggregates import AggregateFunction, AggSpec
from repro.relational.expressions import Col, Comparison, Expression
from repro.relational.relation import Relation


class UCol(NamedTuple):
    """An uncertain frame column: rows ``at`` of a :class:`UColumn` (a
    block's, by gid, or one a projection computed), gathered when read."""

    src: UColumn
    at: np.ndarray

    def take(self, rows: np.ndarray) -> "UCol":
        return UCol(self.src, self.at[rows])

    def gather(self) -> UColumn:
        return UColumn(*(a[self.at] for a in self.src))

    def node(self, trials: bool) -> kresolve.Node:
        s, at = self.src, self.at
        picked = s.trials[at] if trials else None
        return kresolve.Node(s.lo[at], s.hi[at], s.point[at], picked, None)

    def values(self) -> list[UncertainValue]:
        """The cells as :class:`UncertainValue` objects."""
        s, at = self.src, self.at
        ranges = map(VariationRange, s.lo[at].tolist(), s.hi[at].tolist())
        return list(map(UncertainValue, s.point[at].tolist(), s.trials[at], ranges))


def rows_of(cols: dict[str, "np.ndarray | UCol | list"]) -> list[dict[str, object]]:
    """Rows of equal-length columns as ``column -> value`` dicts (an
    uncertain column's cells as :class:`UncertainValue`)."""
    cells = [
        col.values() if isinstance(col, UCol)
        else col.tolist() if isinstance(col, np.ndarray)
        else col
        for col in cols.values()
    ]
    names = list(cols)
    return [dict(zip(names, row)) for row in zip(*cells)]


class Frame:
    """The rows of a small segment, column-wise.

    ``cols`` maps each column to a plain array or a :class:`UCol`; per
    row, ``certain`` / ``status`` / ``point`` are the membership fields of
    :class:`~repro.core.blocks.BlockOutput` and ``exist (n, T)`` the
    per-trial existence (None: every row exists in every trial).
    """

    __slots__ = ("cols", "certain", "status", "point", "exist")

    def __init__(self, cols: dict[str, np.ndarray | UCol], certain, status, point, exist=None):
        self.cols, self.certain, self.status = cols, certain, status
        self.point, self.exist = point, exist

    def __len__(self) -> int:
        return len(self.status)

    @property
    def uncertain(self) -> set[str]:
        return {name for name, col in self.cols.items() if isinstance(col, UCol)}

    def column(self, name: str) -> np.ndarray:
        """Plain column ``name`` (what ``Expression.evaluate`` reads)."""
        col = self.cols.get(name)
        if col is None or isinstance(col, UCol):
            raise SchemaError(f"no plain column {name!r}; have {list(self.cols)}")
        return col

    def evaluate(self, expr: Expression, trials: bool = True) -> kresolve.Node:
        """Arithmetic over this frame's columns, uncertain ones included."""

        def leaf(name: str) -> kresolve.Node:
            col = self.cols.get(name)
            if isinstance(col, UCol):
                return col.node(trials)
            col = self.column(name)
            return kresolve.Node(col, col, col, None, None)

        try:
            return kresolve.evaluate(expr, leaf, self, self.uncertain)
        except kresolve.UnsupportedKernel as exc:
            raise UnsupportedQueryError(f"{expr!r} over uncertain columns: {exc}") from None

    def side(self, expr: Expression, trials: bool) -> SideValues:
        """One comparison side, as the classifier reads it."""
        none = np.zeros(len(self), bool)
        if expr.attrs() & self.uncertain:
            node = self.evaluate(expr, trials)
            return SideValues(node.lo, node.hi, node.point, node.trials, none)
        values = np.asarray(expr.evaluate(self), dtype=np.float64)
        return SideValues(values, values, values, None, none)

    def take(self, rows: np.ndarray) -> "Frame":
        cols = {c: v.take(rows) if isinstance(v, UCol) else v[rows] for c, v in self.cols.items()}
        exist = None if self.exist is None else self.exist[rows]
        return Frame(cols, self.certain[rows], self.status[rows], self.point[rows], exist)

    def members(self) -> "Frame":
        """The rows not stably filtered out: all a join or aggregate reads."""
        live = self.status != MEMBER_FALSE
        return self if live.all() else self.take(np.flatnonzero(live))

    def rows(self) -> list[dict[str, object]]:
        """Every row as a ``column -> value`` dict."""
        return rows_of(self.cols)


def _block_columns(
    output: BlockOutput, gids: np.ndarray
) -> dict[str, list | np.ndarray | UCol]:
    """Columns of the groups ``gids`` of ``output``: key cells read from
    the index for those gids only (as lists), value columns gathered."""
    keys = list(map(output.index.keys.__getitem__, gids.tolist()))
    cols: dict[str, list | np.ndarray | UCol] = {
        name: [key[at] for key in keys] for at, name in enumerate(output.key_cols)
    }
    for name in output.value_cols:
        if name not in cols and (col := output.column(name)) is not None:
            cols[name] = UCol(col, gids) if isinstance(col, UColumn) else col[gids]
    return cols


def _block_frame(output: BlockOutput, gids: np.ndarray) -> Frame:
    """Groups ``gids`` of ``output`` as rows; as at any leaf, an unsettled
    group is an UNKNOWN member."""
    cols = {
        name: np.array(col) if isinstance(col, list) else col
        for name, col in _block_columns(output, gids).items()
    }
    certain = output.certain[gids]
    exist = None
    if not certain.all():
        exist = output.exist[gids]
        exist[certain] = True
    status = np.where(certain, MEMBER_TRUE, MEMBER_UNKNOWN).astype(np.int8)
    return Frame(cols, certain, status, output.member_point[gids], exist)


def _factorize(arrays: list[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """First-appearance key codes of ``n`` rows, and each key's first row."""
    try:
        return factorize_arrays(arrays, n)
    except TypeError as exc:
        raise UnsupportedQueryError("group/join key with unhashable values") from exc


def _group_sums(codes: np.ndarray, num_groups: int, values: np.ndarray) -> np.ndarray:
    """Per-group sums of the rows of ``values``, accumulated in row order."""
    out = np.zeros((num_groups,) + values.shape[1:])
    np.add.at(out, codes, values)
    return out


class SmallNode:
    """Base class of small-segment plan nodes."""

    def frame(self, ctx: RuntimeContext) -> Frame:
        raise NotImplementedError


def iter_small_nodes(root: SmallNode):
    """All nodes of a small segment, root first."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        for attr in ("child", "left", "right"):
            if getattr(node, attr, None) is not None:
                stack.append(getattr(node, attr))


class SmallBlockLeaf(SmallNode):
    """Reads the current output of a lineage block."""

    def __init__(self, block_id: int):
        self.block_id = block_id

    def frame(self, ctx: RuntimeContext) -> Frame:
        output = ctx.blocks.get(self.block_id)
        if output is None:
            return Frame({}, np.zeros(0, bool), np.zeros(0, np.int8), np.zeros(0, bool))
        return _block_frame(output, output.order)


class SmallStaticLeaf(SmallNode):
    """Reads a fully static relation (a dimension table)."""

    def __init__(self, relation: Relation):
        self.relation = relation

    def frame(self, ctx: RuntimeContext) -> Frame:
        n = len(self.relation)
        true = np.ones(n, bool)
        return Frame(dict(self.relation.columns), true, np.full(n, MEMBER_TRUE, np.int8), true)


class SmallSelect(SmallNode):
    """σ over small rows, with range-based membership classification.

    Stable-false rows are *retained* with ``MEMBER_FALSE`` so that
    stream-side consumers (semi-joins) can distinguish "stably filtered
    out" from "group not yet seen"; every other consumer skips them. A
    conjunct over uncertain columns is a comparison (the compiler rejects
    anything else), whose per-trial decisions are computed only for the
    rows it leaves UNKNOWN.
    """

    def __init__(self, child: SmallNode, conjuncts: list[Expression]):
        self.child = child
        self.conjuncts = conjuncts

    def frame(self, ctx: RuntimeContext) -> Frame:
        f = self.child.frame(ctx)
        n, t = len(f), ctx.num_trials
        if not n:
            return f
        live = f.status != MEMBER_FALSE
        false, unknown = np.zeros(n, bool), np.zeros(n, bool)
        point = f.point.copy()
        trials = None  # AND of the UNKNOWN conjuncts' per-trial decisions
        uncertain = f.uncertain
        for pred in self.conjuncts:
            if isinstance(pred, Comparison) and pred.attrs() & uncertain:
                status, decided = classify_bounds(
                    pred.op, f.side(pred.left, False), f.side(pred.right, False)
                )
                rows = np.flatnonzero(live & (status == MEMBER_UNKNOWN))
                if len(rows):
                    sub = f.take(rows)
                    left = sub.side(pred.left, True).trial_matrix(t)
                    right = sub.side(pred.right, True).trial_matrix(t)
                    trials = np.ones((n, t), bool) if trials is None else trials
                    trials[rows] &= compare(pred.op, left, right)
            else:
                decided = np.asarray(pred.evaluate(f), dtype=bool)
                status = np.where(decided, MEMBER_TRUE, MEMBER_FALSE)
            false |= status == MEMBER_FALSE
            unknown |= status == MEMBER_UNKNOWN
            point &= decided
        # A row turned stably false keeps its other fields; a live row some
        # conjunct leaves UNKNOWN becomes an unsettled member.
        unsettled = live & ~false & unknown
        status = f.status.copy()
        status[live & false] = MEMBER_FALSE
        status[unsettled] = MEMBER_UNKNOWN
        exist = f.exist
        if unsettled.any():
            exist = np.ones((n, t), bool) if exist is None else exist.copy()
            exist[unsettled] &= trials[unsettled]
        point = np.where(live, point & ~false, f.point)
        return Frame(f.cols, f.certain & ~unsettled, status, point, exist)


class SmallProject(SmallNode):
    """π over small rows; uncertain-value arithmetic propagates trials
    and ranges through the projection expressions."""

    def __init__(self, child: SmallNode, outputs: list[tuple[str, Expression]]):
        self.child = child
        self.outputs = outputs

    def frame(self, ctx: RuntimeContext) -> Frame:
        f = self.child.frame(ctx)
        cols: dict[str, np.ndarray | UCol] = {}
        for name, expr in self.outputs:
            if isinstance(expr, Col):
                cols[name] = f.cols[expr.name]
            elif expr.attrs() & f.uncertain:
                node = f.evaluate(expr)
                computed = UColumn(node.point, node.trials, node.lo, node.hi)
                cols[name] = UCol(computed, np.arange(len(f)))
            else:
                cols[name] = np.asarray(expr.evaluate(f))
        return Frame(cols, f.certain, f.status, f.point, f.exist)


class SmallRename(SmallNode):
    def __init__(self, child: SmallNode, mapping: dict[str, str]):
        self.child = child
        self.mapping = mapping

    def frame(self, ctx: RuntimeContext) -> Frame:
        f = self.child.frame(ctx)
        cols = {self.mapping.get(c, c): v for c, v in f.cols.items()}
        return Frame(cols, f.certain, f.status, f.point, f.exist)


class SmallDistinct(SmallNode):
    """Duplicate elimination; memberships of duplicates OR together."""

    def __init__(self, child: SmallNode, columns: list[str]):
        self.child = child
        self.columns = columns

    def frame(self, ctx: RuntimeContext) -> Frame:
        f = self.child.frame(ctx)
        keys = [f.column(c) for c in self.columns]
        codes, first = _factorize(keys, len(f))
        g = len(first)

        def any_of(mask: np.ndarray) -> np.ndarray:
            return np.bincount(codes, weights=mask, minlength=g) > 0

        status = np.where(
            any_of(f.status == MEMBER_TRUE),
            MEMBER_TRUE,
            np.where(any_of(f.status == MEMBER_UNKNOWN), MEMBER_UNKNOWN, MEMBER_FALSE),
        ).astype(np.int8)
        exist = None
        if f.exist is not None:
            exist = np.zeros((g, f.exist.shape[1]), bool)
            np.logical_or.at(exist, codes, f.exist)
        return Frame(
            {c: v[first] for c, v in zip(self.columns, keys)},
            any_of(f.certain & (f.status == MEMBER_TRUE)), status, any_of(f.point), exist,
        )


class SmallJoin(SmallNode):
    """Equi/cross join between two small inputs; memberships AND together."""

    def __init__(self, left: SmallNode, right: SmallNode, keys: list[tuple[str, str]]):
        self.left = left
        self.right = right
        self.keys = keys

    def frame(self, ctx: RuntimeContext) -> Frame:
        left = self.left.frame(ctx).members()
        right = self.right.frame(ctx).members()
        nl, nr = len(left), len(right)
        if self.keys:
            keys = []
            for lk, rk in self.keys:
                a, b = left.column(lk), right.column(rk)
                if a.dtype.kind != b.dtype.kind:
                    a, b = a.astype(object), b.astype(object)
                keys.append(np.concatenate([a, b]))
            codes = _factorize(keys, nl + nr)[0]
            # Per left row, its right matches in right order.
            order = np.argsort(codes[nl:], kind="stable")
            matched = codes[nl:][order]
            start = np.searchsorted(matched, codes[:nl], "left")
            count = np.searchsorted(matched, codes[:nl], "right") - start
            li = np.repeat(np.arange(nl), count)
            ri = order[np.repeat(start - np.cumsum(count) + count, count) + np.arange(len(li))]
        else:
            li, ri = np.repeat(np.arange(nl), nr), np.tile(np.arange(nr), nl)
        lt, rt = left.take(li), right.take(ri)
        drop = {rk for _, rk in self.keys}
        cols = {**lt.cols, **{c: v for c, v in rt.cols.items() if c not in drop}}
        unknown = (lt.status == MEMBER_UNKNOWN) | (rt.status == MEMBER_UNKNOWN)
        exist = (
            lt.exist if rt.exist is None else rt.exist if lt.exist is None else lt.exist & rt.exist
        )
        return Frame(
            cols, lt.certain & rt.certain,
            np.where(unknown, MEMBER_UNKNOWN, MEMBER_TRUE).astype(np.int8),
            lt.point & rt.point, exist,
        )


class SmallAggregate(SmallNode):
    """γ over small rows — the per-trial recompute path.

    The actual result aggregates rows by their current point membership;
    trial ``j`` aggregates rows existing in trial ``j`` using trial-``j``
    argument values. Publishes a block output (with monitored variation
    ranges), so further nesting and stream-side pruning compose.
    """

    def __init__(self, child: SmallNode, group_by: list[str], specs: list[AggSpec], block_id: int):
        self.child = child
        self.group_by = group_by
        self.specs = specs
        self.block_id = block_id

    def frame(self, ctx: RuntimeContext) -> Frame:
        f = self.child.frame(ctx).members()
        n, t = len(f), ctx.num_trials
        ctx.metrics.recomputed_tuples += n
        if self.group_by:
            keys = [f.column(c) for c in self.group_by]
            codes, first = _factorize(keys, n)
            group_keys = list(zip(*(k[first].tolist() for k in keys)))
        else:
            # A scalar aggregate always yields one row, even over an empty
            # input (COUNT -> 0, AVG -> NaN), matching the batch evaluator.
            codes, group_keys = np.zeros(n, dtype=np.intp), [()]
        g = len(group_keys)
        # Column 0 weighs a row by its point membership, column 1 + j by
        # its existence in trial j: one pass yields estimate and trials.
        weights = np.empty((n, 1 + t))
        weights[:, 0] = f.point
        weights[:, 1:] = True if f.exist is None else f.exist
        totals = _group_sums(codes, g, weights)
        estimates = []
        for spec in self.specs:
            values, plain = _argument(f, spec, t)
            out = _aggregate(spec.func, values, weights, codes, g, totals, plain)
            estimates.append((out[:, 0].copy(), out[:, 1:].copy()))
        bounds = ctx.monitor.observe_columns(estimates)
        columns: dict[str, UColumn | np.ndarray] = {
            spec.name: UColumn(points, trials, lo, hi)
            for spec, (points, trials), (lo, hi) in zip(self.specs, estimates, bounds)
        }
        certain = np.bincount(codes, weights=f.certain & (f.status == MEMBER_TRUE), minlength=g) > 0
        index = ctx.indexes[self.block_id]
        gids = index.add(group_keys)
        ctx.blocks[self.block_id] = BlockOutput.published(
            self.block_id, self.group_by, [s.name for s in self.specs], index, gids,
            certain, np.full(g, MEMBER_TRUE, np.int8), np.ones(g, bool),
            (totals[:, 1:] > 0) | certain[:, None], columns, t,
        )
        out = _block_frame(ctx.blocks[self.block_id], gids)
        out.point = totals[:, 0] > 0
        return out


def _argument(f: Frame, spec: AggSpec, num_trials: int) -> tuple[np.ndarray, bool]:
    """An aggregate's ``(n, 1 + T)`` argument values — the estimate's, then
    each trial's — and whether they are plain (equal in every column)."""
    n = len(f)
    if spec.arg is None:
        return np.ones((n, 1 + num_trials)), True
    if spec.arg.attrs() & f.uncertain:
        node = f.evaluate(spec.arg)
        values = np.empty((n, 1 + num_trials))
        values[:, 0], values[:, 1:] = node.point, node.trials
        return values, False
    plain = np.asarray(spec.arg.evaluate(f), dtype=np.float64)
    return np.repeat(plain[:, None], 1 + num_trials, axis=1), True


def _aggregate(
    func: AggregateFunction, values: np.ndarray, weights: np.ndarray,
    codes: np.ndarray, num_groups: int, totals: np.ndarray, plain: bool,
) -> np.ndarray:
    """``func`` per group and column of ``values`` / ``weights``: from the
    weighted feature sums if decomposable, else evaluated directly."""
    if func.decomposable:
        n, m = values.shape
        features = func.features(values.ravel()).reshape(func.num_features, n, m) * weights
        sums = _group_sums(codes, num_groups, features.transpose(1, 2, 0))
        return np.asarray(func.finalize(sums, totals), dtype=np.float64)
    out = np.empty((num_groups, values.shape[1]))
    for group in range(num_groups):
        rows = codes == group
        v, w = values[rows], weights[rows]
        out[group] = (
            func.trial_compute(v[:, 0], w)
            if plain
            else [func.compute(v[:, j], w[:, j]) for j in range(v.shape[1])]
        )
    return out


def _passthrough_of(
    root: SmallNode, columns: list[str]
) -> "tuple[SmallBlockLeaf, dict[str, str]] | None":
    """The block leaf under a chain of renames / column-only projections and
    the leaf-side name of each of ``columns``; ``None`` for any other shape."""
    source = {c: c for c in columns}
    node = root
    while not isinstance(node, SmallBlockLeaf):
        if isinstance(node, SmallRename):
            below = {new: old for old, new in node.mapping.items()}
            source = {c: below.get(src, src) for c, src in source.items()}
        elif isinstance(node, SmallProject) and all(
            isinstance(expr, Col) for _, expr in node.outputs
        ):
            below = {name: expr.name for name, expr in node.outputs}
            source = {c: below[src] for c, src in source.items()}
        else:
            return None
        node = node.child
    return node, source


@dataclass
class SmallPlanUnit:
    """An executable small segment: evaluate, then publish and/or expose.

    ``publish_id`` registers the segment's rows as a joinable view in the
    block registry (keyed by ``key_cols``); the root segment of a query
    instead exposes its rows as the final result via :meth:`result_rows`.
    """

    root: SmallNode
    publish_id: int | None = None
    key_cols: list[str] = field(default_factory=list)
    value_cols: list[str] = field(default_factory=list)
    _result: Frame | None = None

    def run(self, ctx: RuntimeContext) -> None:
        if self.publish_id is None:
            # A bare block root is delivered from the block itself.
            if not isinstance(self.root, SmallBlockLeaf):
                self._result = self.root.frame(ctx)
            return
        if self._relabel(ctx):
            return
        frame = self.root.frame(ctx)
        n = len(frame)
        keys = [frame.column(c).tolist() for c in self.key_cols]
        index = ctx.indexes[self.publish_id]
        gids = index.add(list(zip(*keys)) if keys else [()] * n)
        # A later duplicate key replaces the earlier row.
        rows = n - 1 - np.unique(gids[::-1], return_index=True)[1]
        f = frame.take(rows)
        cols = {
            c: v.gather() if isinstance(v, UCol) else v
            for c, v in f.cols.items() if c in self.value_cols
        }
        ctx.blocks[self.publish_id] = BlockOutput.published(
            self.publish_id, self.key_cols, self.value_cols, index, gids[rows],
            f.certain & (f.status == MEMBER_TRUE), f.status, f.point, f.exist,
            cols, ctx.num_trials,
        )

    def _relabel(self, ctx: RuntimeContext) -> bool:
        """Publish the view as an array relabel of its block; ``False``
        (evaluate the segment) unless it only renames or drops columns of
        one block whose keys are the join keys."""
        passthrough = _passthrough_of(self.root, self.key_cols + self.value_cols)
        if passthrough is None:
            return False
        leaf, source = passthrough
        output = ctx.blocks.get(leaf.block_id)
        if output is None or [source[c] for c in self.key_cols] != output.key_cols:
            return False
        ctx.blocks[self.publish_id] = output.relabel(
            self.publish_id,
            self.key_cols,
            self.value_cols,
            {c: source[c] for c in self.value_cols if c not in self.key_cols},
        )
        return True

    def result_rows(self, ctx: RuntimeContext) -> list[dict[str, object]]:
        """This batch's result rows (stable-false and point-excluded ones
        dropped) as ``column -> value`` dicts. A bare block root reads
        only the groups it delivers."""
        if isinstance(self.root, SmallBlockLeaf):
            output = ctx.blocks.get(self.root.block_id)
            if output is None:
                return []
            return rows_of(_block_columns(output, output.order[output.member_point[output.order]]))
        f = self._result
        if f is None:
            return []
        return f.take(np.flatnonzero((f.status != MEMBER_FALSE) & f.point)).rows()
