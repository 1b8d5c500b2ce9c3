"""Viewlet-transformation rewrites (paper Appendix B / DBToaster [10]).

Plan-level rewrites that reduce the state kept by delta-update algorithms.
Combined with the conservative delta rules they yield DBToaster-style
higher-order delta maintenance; iOLAP can apply them too (they are plain
equivalence-preserving rewrites).

Implemented rules (equation numbers from Appendix B):

* (1) query decomposition — push grouped SUM/COUNT below a cross join:
  ``γ_{AB, sum(f1·f2)}(Q1 × Q2) =
  π(γ_{A, sum(f1)}(Q1) × γ_{B, sum(f2)}(Q2))``;
* (2) factorization — pull a common join input out of a union:
  ``(Q ⋈ Q1) ∪ (Q ⋈ Q2) = Q ⋈ (Q1 ∪ Q2)``.

Every rewrite is verified equivalence-preserving by the test suite.
"""

from __future__ import annotations

from repro.relational.aggregates import AggSpec, Count, Sum
from repro.relational.algebra import (
    Aggregate,
    Distinct,
    Join,
    PlanNode,
    Project,
    Rename,
    Scan,
    Select,
    Union,
    transform,
)
from repro.relational.expressions import (
    And,
    Arith,
    Col,
    Comparison,
    Expression,
    Func,
    InList,
    Literal,
    Not,
    Or,
)


def expressions_equal(a: Expression, b: Expression) -> bool:
    """Structural equality of expressions."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Col):
        return a.name == b.name  # type: ignore[union-attr]
    if isinstance(a, Literal):
        return a.value == b.value  # type: ignore[union-attr]
    if isinstance(a, (Arith, Comparison)):
        return a.op == b.op and expressions_equal(a.left, b.left) and expressions_equal(
            a.right, b.right
        )
    if isinstance(a, (And, Or)):
        return expressions_equal(a.left, b.left) and expressions_equal(a.right, b.right)
    if isinstance(a, Not):
        return expressions_equal(a.child, b.child)
    if isinstance(a, InList):
        return a.values == b.values and expressions_equal(a.child, b.child)
    if isinstance(a, Func):
        return (
            a.name == b.name
            and len(a.args) == len(b.args)
            and all(expressions_equal(x, y) for x, y in zip(a.args, b.args))
        )
    return False


def plans_equal(a: PlanNode, b: PlanNode) -> bool:
    """Structural equality of plans (ignores node ids)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Scan):
        return a.table == b.table and a.schema == b.schema
    if isinstance(a, Select):
        return expressions_equal(a.predicate, b.predicate) and plans_equal(
            a.child, b.child
        )
    if isinstance(a, Project):
        return (
            len(a.outputs) == len(b.outputs)
            and all(
                na == nb and expressions_equal(ea, eb)
                for (na, ea), (nb, eb) in zip(a.outputs, b.outputs)
            )
            and plans_equal(a.child, b.child)
        )
    if isinstance(a, Join):
        return (
            a.keys == b.keys
            and plans_equal(a.left, b.left)
            and plans_equal(a.right, b.right)
        )
    if isinstance(a, Union):
        return plans_equal(a.left, b.left) and plans_equal(a.right, b.right)
    if isinstance(a, Aggregate):
        if a.group_by != b.group_by or len(a.aggs) != len(b.aggs):
            return False
        for sa, sb in zip(a.aggs, b.aggs):
            if sa.name != sb.name or type(sa.func) is not type(sb.func):
                return False
            if (sa.arg is None) != (sb.arg is None):
                return False
            if sa.arg is not None and not expressions_equal(sa.arg, sb.arg):
                return False
        return plans_equal(a.child, b.child)
    if isinstance(a, Rename):
        return a.mapping == b.mapping and plans_equal(a.child, b.child)
    if isinstance(a, Distinct):
        return a.columns == b.columns and plans_equal(a.child, b.child)
    return False


def push_aggregate_below_cross_join(node: PlanNode, schemas) -> PlanNode | None:
    """Appendix B rule (1): decompose a grouped SUM/COUNT over a cross join.

    Applies when the aggregate sits directly on a cross join, each group
    column comes from one input, and every aggregate is a SUM whose
    argument references only one input (or a COUNT). Returns the rewritten
    plan, or ``None`` when the rule does not apply.
    """
    if not isinstance(node, Aggregate) or not isinstance(node.child, Join):
        return None
    join = node.child
    if join.keys:
        return None
    left_cols = set(join.left.output_schema(schemas).names)
    right_cols = set(join.right.output_schema(schemas).names)

    group_left = [g for g in node.group_by if g in left_cols]
    group_right = [g for g in node.group_by if g in right_cols]
    if len(group_left) + len(group_right) != len(node.group_by):
        return None

    left_specs: list[AggSpec] = []
    right_specs: list[AggSpec] = []
    combine: list[tuple[str, Expression]] = []
    for i, spec in enumerate(node.aggs):
        if isinstance(spec.func, Count):
            ln, rn = f"__l{i}", f"__r{i}"
            left_specs.append(AggSpec(ln, Count()))
            right_specs.append(AggSpec(rn, Count()))
            combine.append((spec.name, Col(ln) * Col(rn)))
            continue
        if not isinstance(spec.func, Sum) or spec.arg is None:
            return None
        attrs = spec.attrs()
        if attrs <= left_cols:
            ln, rn = f"__l{i}", f"__r{i}"
            left_specs.append(AggSpec(ln, Sum(), spec.arg))
            right_specs.append(AggSpec(rn, Count()))
            combine.append((spec.name, Col(ln) * Col(rn)))
        elif attrs <= right_cols:
            ln, rn = f"__l{i}", f"__r{i}"
            left_specs.append(AggSpec(ln, Count()))
            right_specs.append(AggSpec(rn, Sum(), spec.arg))
            combine.append((spec.name, Col(ln) * Col(rn)))
        elif isinstance(spec.arg, Arith) and spec.arg.op == "*":
            f1, f2 = spec.arg.left, spec.arg.right
            if f1.attrs() <= left_cols and f2.attrs() <= right_cols:
                pass
            elif f2.attrs() <= left_cols and f1.attrs() <= right_cols:
                f1, f2 = f2, f1
            else:
                return None
            ln, rn = f"__l{i}", f"__r{i}"
            left_specs.append(AggSpec(ln, Sum(), f1))
            right_specs.append(AggSpec(rn, Sum(), f2))
            combine.append((spec.name, Col(ln) * Col(rn)))
        else:
            return None

    left_agg = Aggregate(join.left, group_left, left_specs)
    right_agg = Aggregate(join.right, group_right, right_specs)
    outputs: list[tuple[str, Expression]] = [
        (g, Col(g)) for g in node.group_by
    ] + combine
    return Project(Join(left_agg, right_agg, []), outputs)


def factorize_common_join(node: PlanNode) -> PlanNode | None:
    """Appendix B rule (2): ``(Q ⋈ Q1) ∪ (Q ⋈ Q2) → Q ⋈ (Q1 ∪ Q2)``."""
    if not isinstance(node, Union):
        return None
    a, b = node.left, node.right
    if not (isinstance(a, Join) and isinstance(b, Join)):
        return None
    if a.keys != b.keys:
        return None
    if plans_equal(a.left, b.left):
        return Join(a.left, Union(a.right, b.right), a.keys)
    if plans_equal(a.right, b.right):
        return Join(Union(a.left, b.left), a.right, a.keys)
    return None


def apply_viewlet_rewrites(plan: PlanNode, schemas) -> PlanNode:
    """Apply all viewlet rewrites bottom-up until none fires."""

    def step(node: PlanNode) -> PlanNode | None:
        rewritten = push_aggregate_below_cross_join(node, schemas)
        if rewritten is not None:
            return rewritten
        return factorize_common_join(node)

    previous = plan
    for _ in range(8):  # rewrites strictly shrink opportunities; 8 is plenty
        rewritten = transform(previous, step)
        if plans_equal(rewritten, previous):
            return rewritten
        previous = rewritten
    return previous
