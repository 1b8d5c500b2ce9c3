"""Lineage resolution and array-wide interval arithmetic.

An uncertain column attached by the uncertain join holds, per row, the
gid of its group in the side block (its
:class:`~repro.storage.lineage.LineageColumn` names the block column),
and the block output is gid-indexed arrays, so resolving it is four
gathers (:func:`resolve_column`). Arithmetic then runs array-wide:
elementwise ufuncs for points and trials and interval arithmetic
mirroring :class:`~repro.core.values.VariationRange` for the bounds, the
same bits ``UncertainValue`` arithmetic gives row by row.

:func:`evaluate` is that arithmetic over any column source: comparison
sides of the ND stores (:func:`try_evaluate_side`) and the small plan
segments (:mod:`repro.core.smallplan`) both run it. A subtree outside
``+ - * /`` that reads no uncertain column is evaluated with
``Expression.evaluate``; computation over uncertain columns beyond
``+ - * /`` is refused when the plan compiles
(:func:`uncertain_arithmetic`), so a comparison side never falls outside
the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.relational.expressions import Arith, Col, Expression, Literal

_INF = float("inf")


class UnsupportedKernel(Exception):
    """Raised for computation over uncertain columns beyond ``+ - * /``."""


@dataclass
class Node:
    """Evaluated subtree: bounds/point may be arrays or Python scalars;
    ``trials`` of None means "equal to point in every trial"."""

    lo: object
    hi: object
    point: object
    trials: np.ndarray | None
    pending: np.ndarray | None


def try_evaluate_side(
    expr: Expression,
    rel,
    uncertain_cols: set[str],
    ctx,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``evaluate_side``'s payload ``(lo, hi, point, trials, pending)``
    for a side over ``rel``'s uncertain columns (pending rows NaN-filled)."""
    n = len(rel)

    def leaf(name: str) -> Node:
        values = rel.columns[name]
        if name in uncertain_cols:
            return resolve_column(rel.lineage[name], values, ctx)
        return Node(values, values, values, None, None)

    node = evaluate(expr, leaf, rel, uncertain_cols)
    lo = np.asarray(node.lo, dtype=np.float64)
    hi = np.asarray(node.hi, dtype=np.float64)
    point = np.asarray(node.point, dtype=np.float64)
    pending = (
        node.pending if node.pending is not None else np.zeros(n, dtype=bool)
    )
    trials = node.trials
    if trials is None:
        trials = np.broadcast_to(point[:, None], (n, ctx.num_trials))
    if pending.any():
        lo, hi, point = lo.copy(), hi.copy(), point.copy()
        trials = np.array(trials, dtype=np.float64)
        lo[pending] = hi[pending] = point[pending] = np.nan
        trials[pending] = np.nan
    return lo, hi, point, trials, pending


# -- evaluation --------------------------------------------------------------------


def evaluate(
    expr: Expression, leaf: Callable[[str], Node], source, uncertain: set[str] | frozenset[str]
) -> Node:
    """Arithmetic over numeric literals and the columns ``leaf`` resolves;
    any other subtree that reads none of ``uncertain`` is evaluated over
    ``source`` with ``Expression.evaluate``. Raises
    :class:`UnsupportedKernel` for computation over ``uncertain`` beyond
    ``+ - * /``."""
    if isinstance(expr, Col):
        return leaf(expr.name)
    if isinstance(expr, Literal) and isinstance(
        expr.value, (int, float, np.integer, np.floating)
    ):
        v = expr.value
        return Node(v, v, v, None, None)
    if isinstance(expr, Arith) and expr.op in ("+", "-", "*", "/"):
        return _combine(
            expr.op,
            evaluate(expr.left, leaf, source, uncertain),
            evaluate(expr.right, leaf, source, uncertain),
        )
    if not expr.attrs() & uncertain:
        values = expr.evaluate(source)
        return Node(values, values, values, None, None)
    raise UnsupportedKernel(f"no array kernel for {type(expr).__name__}")


def uncertain_arithmetic(
    expr: Expression, uncertain_cols: set[str] | frozenset[str]
) -> bool:
    """Whether every node of ``expr`` that reads ``uncertain_cols`` is a
    column or ``+ - * /``: the only computation over uncertain values the
    engine carries ranges and trials through. Subexpressions over
    deterministic columns may be anything."""
    if not expr.attrs() & uncertain_cols or isinstance(expr, Col):
        return True
    return (
        isinstance(expr, Arith)
        and expr.op in ("+", "-", "*", "/")
        and uncertain_arithmetic(expr.left, uncertain_cols)
        and uncertain_arithmetic(expr.right, uncertain_cols)
    )


def resolve_column(lineage, gids: np.ndarray, ctx) -> Node:
    """Per-row ``lo/hi/point/trials`` of a column of ``gids`` into
    ``lineage``'s block column: four gathers from the block output,
    pending where that output has not published the gid (those rows read
    group 0 here and are blanked by :func:`try_evaluate_side`)."""
    output = ctx.blocks.get(lineage.block_id)
    n = len(gids)
    if output is None or not len(output):
        nan = np.full(n, np.nan)
        return Node(nan, nan, nan, None, np.ones(n, dtype=bool))
    pending = output.absent(gids)
    gids = np.where(pending, 0, gids)
    col = output.ucol(lineage.column)
    return Node(col.lo[gids], col.hi[gids], col.point[gids], col.trials[gids], pending)


# -- interval / trial arithmetic ---------------------------------------------------


def _trials_view(node: Node):
    """Operand's (n, T)-broadcastable trial values."""
    if node.trials is not None:
        return node.trials
    point = node.point
    return point[:, None] if isinstance(point, np.ndarray) else point


def _merge_pending(a: Node, b: Node) -> np.ndarray | None:
    if a.pending is None:
        return b.pending
    if b.pending is None:
        return a.pending
    return a.pending | b.pending


def _combine(op: str, a: Node, b: Node) -> Node:
    trials = None
    if a.trials is not None or b.trials is not None:
        ta, tb = _trials_view(a), _trials_view(b)
    pending = _merge_pending(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        if op == "+":
            lo, hi = a.lo + b.lo, a.hi + b.hi
            point = a.point + b.point
            if a.trials is not None or b.trials is not None:
                trials = ta + tb
        elif op == "-":
            lo, hi = a.lo - b.hi, a.hi - b.lo
            point = a.point - b.point
            if a.trials is not None or b.trials is not None:
                trials = ta - tb
        elif op == "*":
            lo, hi = _interval_mul(a.lo, a.hi, b.lo, b.hi)
            point = a.point * b.point
            if a.trials is not None or b.trials is not None:
                trials = ta * tb
        else:  # "/"
            # Denominator interval crossing zero -> unbounded quotient,
            # mirroring VariationRange.__truediv__.
            cross = np.asarray(b.lo <= 0.0) & np.asarray(np.asarray(b.hi) >= 0.0)
            inv_lo, inv_hi = 1.0 / np.asarray(b.hi, dtype=np.float64), 1.0 / np.asarray(
                b.lo, dtype=np.float64
            )
            lo, hi = _interval_mul(a.lo, a.hi, inv_lo, inv_hi)
            lo = np.where(cross, -_INF, lo)
            hi = np.where(cross, _INF, hi)
            point = a.point / b.point
            if a.trials is not None or b.trials is not None:
                trials = ta / tb
    return Node(lo, hi, point, trials, pending)


def _interval_mul(alo, ahi, blo, bhi):
    """[lo, hi] of the product interval — NaN products (0·inf) ignored,
    matching the reference's NaN-filtered min/max."""
    with np.errstate(invalid="ignore"):
        p1, p2, p3, p4 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
        lo = np.fmin(np.fmin(p1, p2), np.fmin(p3, p4))
        hi = np.fmax(np.fmax(p1, p2), np.fmax(p3, p4))
    return lo, hi
