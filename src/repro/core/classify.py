"""Range-based predicate classification (Sections 5.1–5.2).

Given rows whose uncertain columns hold lineage gids (resolved by
gathering from the block outputs, :mod:`repro.kernels.resolve`), a
comparison ``x ϑ y`` splits its input into:

* ``TRUE``  — ``R(x)`` and ``R(y)`` ordered so the predicate holds for
  every possible value: the row is *near-deterministically selected*;
* ``FALSE`` — ordered the other way: near-deterministically filtered;
* ``UNKNOWN`` — ranges overlap: the row joins the non-deterministic set
  ``U_i`` and must be re-evaluated each batch;
* ``PENDING`` — a row's gid names a group its block has not published
  this batch, so the row cannot be evaluated at all.

For UNKNOWN rows the classifier also produces the *current* decision
(from point estimates, defining this batch's partial result) and the
per-bootstrap-trial decisions (from trial values, which keep the
piggybacked bootstrap faithful: trial ``j`` filters with trial ``j``'s
inner aggregate, as if the whole simulated database were re-run).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocks import RuntimeContext
from repro.errors import UnsupportedQueryError
from repro.kernels import resolve as kresolve
from repro.relational.expressions import Comparison, Expression
from repro.relational.relation import Relation

TRUE, FALSE, UNKNOWN, PENDING = np.int8(1), np.int8(0), np.int8(2), np.int8(3)


@dataclass
class SideValues:
    """Evaluated values of one side of a comparison, for every row."""

    lo: np.ndarray  # (n,) lower range bounds
    hi: np.ndarray  # (n,) upper range bounds
    point: np.ndarray  # (n,) current estimates
    trials: np.ndarray | None  # (n, T); None means "equal to point"
    pending: np.ndarray  # (n,) bool: gids of unpublished groups

    def trial_matrix(self, num_trials: int) -> np.ndarray:
        if self.trials is not None:
            return self.trials
        # Read-only broadcast view: every consumer copies (fancy-index,
        # ufunc result, or explicit .copy()) before writing.
        return np.broadcast_to(self.point[:, None], (len(self.point), num_trials))


@dataclass
class ClassifyResult:
    """Classification of one conjunct (or a conjunction) over n rows."""

    status: np.ndarray  # (n,) int8 in {TRUE, FALSE, UNKNOWN, PENDING}
    point: np.ndarray  # (n,) bool current decision
    trials: np.ndarray | None  # (n, T) bool per-trial decision

    def trial_matrix(self, num_trials: int) -> np.ndarray:
        if self.trials is not None:
            return self.trials
        return np.broadcast_to(self.point[:, None], (len(self.point), num_trials))


def evaluate_side(
    expr: Expression,
    rel: Relation,
    uncertain_cols: set[str],
    ctx: RuntimeContext,
) -> SideValues:
    """Evaluate one comparison side, with ranges and trials."""
    n = len(rel)
    if not n:
        none = np.zeros(0)
        return SideValues(none, none, none, None, np.zeros(0, dtype=bool))
    if not expr.attrs() & uncertain_cols:
        vals = np.asarray(expr.evaluate(rel), dtype=np.float64)
        return SideValues(vals, vals, vals, None, np.zeros(n, dtype=bool))
    return SideValues(*kresolve.try_evaluate_side(expr, rel, uncertain_cols, ctx))


def classify_comparison(
    cmp: Comparison,
    rel: Relation,
    uncertain_cols: set[str],
    ctx: RuntimeContext,
) -> ClassifyResult:
    """Classify one comparison conjunct over all rows of ``rel``."""
    left = evaluate_side(cmp.left, rel, uncertain_cols, ctx)
    right = evaluate_side(cmp.right, rel, uncertain_cols, ctx)
    status, point = classify_bounds(cmp.op, left, right)
    trials: np.ndarray | None = None
    if np.any(status == UNKNOWN):
        t = ctx.num_trials
        trials = compare(cmp.op, left.trial_matrix(t), right.trial_matrix(t))
        trials[left.pending | right.pending] = False
    return ClassifyResult(status, point, trials)


def classify_bounds(
    op: str, left: SideValues, right: SideValues
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the status ranges give ``left op right`` and the current
    point decision (PENDING / False where a side is pending): the one
    predicate classifier, of ND stores and small plan segments alike."""
    if op in (">", ">="):
        always = left.lo > right.hi if op == ">" else left.lo >= right.hi
        never = left.hi <= right.lo if op == ">" else left.hi < right.lo
    elif op in ("<", "<="):
        always = left.hi < right.lo if op == "<" else left.hi <= right.lo
        never = left.lo >= right.hi if op == "<" else left.lo > right.hi
    elif op == "==":
        always = (left.lo == left.hi) & (right.lo == right.hi) & (left.lo == right.lo)
        never = (left.hi < right.lo) | (right.hi < left.lo)
    elif op == "!=":
        never = (left.lo == left.hi) & (right.lo == right.hi) & (left.lo == right.lo)
        always = (left.hi < right.lo) | (right.hi < left.lo)
    else:  # pragma: no cover - Comparison validates its operator
        raise UnsupportedQueryError(f"cannot classify comparison {op!r}")

    pending = left.pending | right.pending
    status = np.full(len(pending), UNKNOWN, dtype=np.int8)
    status[always] = TRUE
    status[never] = FALSE
    status[pending] = PENDING
    point = compare(op, left.point, right.point)
    point[pending] = False
    return status, point


def compare(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a op b`` elementwise (NaN compares False, except ``!=``)."""
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


def combine_conjuncts(results: list[ClassifyResult], num_trials: int) -> ClassifyResult:
    """AND together per-conjunct classifications.

    A row is FALSE if any conjunct is stably false (drop forever), PENDING
    if any conjunct cannot be evaluated, UNKNOWN if any conjunct is
    unresolved, TRUE only when every conjunct is stably true.
    """
    if len(results) == 1:
        return results[0]
    status = results[0].status.copy()
    point = results[0].point.copy()
    trials = None
    for r in results[1:]:
        point &= r.point
        status = _combine_status(status, r.status)
    if np.any(status == UNKNOWN):
        trials = results[0].trial_matrix(num_trials).copy()
        for r in results[1:]:
            trials &= r.trial_matrix(num_trials)
    return ClassifyResult(status, point, trials)


def _combine_status(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.full(len(a), TRUE, dtype=np.int8)
    unknown = (a == UNKNOWN) | (b == UNKNOWN)
    out[unknown] = UNKNOWN
    pending = (a == PENDING) | (b == PENDING)
    out[pending] = PENDING
    false = (a == FALSE) | (b == FALSE)
    out[false] = FALSE
    return out
