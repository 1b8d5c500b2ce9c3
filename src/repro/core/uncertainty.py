"""Static uncertainty propagation analysis (Section 4.1) and the online
engine's compile-time refusals.

Given a logical plan and the set of streamed tables, this pass computes
for every plan node the paper's compile-time uncertainty tags:

* ``tuple_uncertain`` — whether tuples in the node's output can change
  their multiplicity in later batches (``u#`` may be ``T``);
* ``uncertain_cols`` — output columns whose values can change
  (``uA`` may be ``T``);
* ``sample_weighted`` — whether the node's rows are a uniform sample of
  the eventual full output, so aggregates above it must extrapolate
  SUM/COUNT-style results by ``m_i``;
* ``raw_stream`` — whether the node's rows derive row-for-row from a
  streamed scan *without* an intervening aggregate: exactly the nodes the
  compiler turns into stream operators.

The same walk collects every reason the online engine cannot run the
plan (:data:`REFUSAL_RULES`): the restrictions of Section 3.3 (no
uncertain join or group-by keys, only Hadamard-differentiable aggregates
over sampled data) and the shapes the operators cannot maintain
incrementally or whose lineage gids they cannot resolve. The compiler raises the first refusal; the typechecker
reports them all as its ``TC1xx`` diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnsupportedQueryError
from repro.kernels.resolve import uncertain_arithmetic
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
)
from repro.relational.expressions import Col, Comparison, Expression, conjuncts


@dataclass(frozen=True)
class NodeTags:
    """Compile-time uncertainty annotation of one plan node's output."""

    tuple_uncertain: bool
    uncertain_cols: frozenset[str]
    sample_weighted: bool
    raw_stream: bool

    @property
    def deterministic(self) -> bool:
        return not self.tuple_uncertain and not self.uncertain_cols


STATIC_TAGS = NodeTags(False, frozenset(), False, False)

#: The compile-time refusals: rule id -> (what the rule refuses, how to
#: rewrite the query). Mirrored in DESIGN.md §8.1.
REFUSAL_RULES: dict[str, tuple[str, str]] = {
    "TC101": (
        "plan node type is not supported by the online engine",
        "only SELECT/PROJECT/RENAME/JOIN/UNION/AGGREGATE/DISTINCT over base "
        "scans run online",
    ),
    "TC102": (
        "join key is uncertain under sampling (approximate join keys, §3.3)",
        "join on certain columns, or aggregate the uncertain side first so "
        "the key becomes a group key",
    ),
    "TC103": (
        "both join inputs stream the raw fact table (§2 streams one input)",
        "stream exactly one input relation and read the others in entirety",
    ),
    "TC104": (
        "group-by key is uncertain under sampling (§3.3)",
        "group by certain columns only",
    ),
    "TC105": (
        "aggregate function is not Hadamard differentiable over changing input (§3.3)",
        "use SUM/COUNT/AVG-style aggregates, or run this query on the batch engine",
    ),
    "TC106": (
        "DISTINCT over an uncertain column cannot be decided incrementally",
        "resolve the column (aggregate it) before DISTINCT",
    ),
    "TC107": (
        "predicate over uncertain attributes must be a + - * / comparison (x θ y); "
        "on a stream, a side that reads an uncertain column reads no certain one",
        "rewrite the predicate as a conjunction of x θ y comparisons with the "
        "certain columns on one side, or resolve the column before the filter",
    ),
    "TC108": (
        "projection computes over uncertain attributes (defeats lazy evaluation)",
        "move the computation into the consuming predicate or aggregate argument",
    ),
    "TC109": (
        "aggregate over an uncertain argument needs a single identity feature",
        "SUM/AVG-style aggregates only over uncertain arguments (§6.2)",
    ),
    "TC110": (
        "holistic aggregate over an uncertain argument cannot be re-evaluated lazily",
        "holistic UDAFs require certain arguments online",
    ),
    "TC111": (
        "UNION between aggregate-derived inputs is not executable online",
        "union the raw inputs below the aggregates, or compute the union in "
        "a post-processing small plan",
    ),
    "TC112": (
        "expression over aggregate outputs computes beyond + - * / (no array kernel)",
        "keep computation over aggregate outputs to + - * /, or apply other "
        "functions to the final result",
    ),
    "TC113": (
        "UNION input carries an uncertain column (its lineage gids cannot be "
        "merged across blocks)",
        "union the stream inputs below the join that attaches the column",
    ),
}


@dataclass(frozen=True)
class Refusal:
    """One reason the online engine cannot run a plan."""

    rule_id: str
    node: PlanNode
    message: str

    @property
    def hint(self) -> str:
        return REFUSAL_RULES[self.rule_id][1]

    def error(self) -> UnsupportedQueryError:
        return UnsupportedQueryError(self.message, node=self.node, rule_id=self.rule_id)


def analyze(plan: PlanNode, streamed_tables: set[str]) -> dict[int, NodeTags]:
    """Tag every node in ``plan``; returns ``{node_id: NodeTags}``.

    Raises the plan's first refusal as an :class:`UnsupportedQueryError`.
    """
    tags, refusals = tag_plan(plan, streamed_tables)
    if refusals:
        raise refusals[0].error()
    return tags


def tag_plan(
    plan: PlanNode, streamed_tables: set[str]
) -> tuple[dict[int, NodeTags], list[Refusal]]:
    """One post-order walk: every node's tags and every refusal, in plan
    order. Above a refused node the tags are a best effort."""
    tags: dict[int, NodeTags] = {}
    refusals: list[Refusal] = []
    _tag(plan, streamed_tables, tags, refusals)
    return tags, refusals


def _tag(
    node: PlanNode,
    streamed: set[str],
    tags: dict[int, NodeTags],
    refusals: list[Refusal],
) -> NodeTags:
    result = _tag_inner(node, streamed, tags, refusals)
    tags[node.node_id] = result
    return result


def _tag_inner(
    node: PlanNode,
    streamed: set[str],
    tags: dict[int, NodeTags],
    refusals: list[Refusal],
) -> NodeTags:
    def refuse(rule_id: str, message: str) -> None:
        refusals.append(Refusal(rule_id, node, message))

    if isinstance(node, Scan):
        if node.table in streamed:
            # Streamed leaf: all attributes deterministic, multiplicities
            # follow the accumulated sampling function s(t; i).
            return NodeTags(True, frozenset(), True, True)
        return STATIC_TAGS

    if isinstance(node, Select):
        child = _tag(node.child, streamed, tags, refusals)
        uncertain = child.uncertain_cols
        touches_uncertain = False
        for part in conjuncts(node.predicate):
            if not part.attrs() & uncertain:
                continue
            touches_uncertain = True
            if not isinstance(part, Comparison):
                refuse(
                    "TC107",
                    f"predicate {part!r} over uncertain columns must be a "
                    "simple comparison (x ϑ y)",
                )
                continue
            for operand in (part.left, part.right):
                certain = operand.attrs() - uncertain
                if not uncertain_arithmetic(operand, uncertain):
                    refuse(
                        "TC107",
                        f"comparison side {operand!r} computes over "
                        "uncertain columns beyond + - * /; the engine "
                        "cannot bound its range or trials",
                    )
                    break
                if child.raw_stream and operand.attrs() & uncertain and certain:
                    # A sentinel re-evaluates this side from the entity's
                    # uncertain cells alone.
                    refuse(
                        "TC107",
                        f"comparison side {operand!r} reads certain columns "
                        f"{sorted(certain)} beside uncertain ones; move them "
                        "to the other side of the comparison",
                    )
                    break
        return NodeTags(
            child.tuple_uncertain or touches_uncertain,
            uncertain,
            child.sample_weighted,
            child.raw_stream,
        )

    if isinstance(node, Project):
        child = _tag(node.child, streamed, tags, refusals)
        out_uncertain: set[str] = set()
        for name, expr in node.outputs:
            touched = expr.attrs() & child.uncertain_cols
            if not touched:
                continue
            out_uncertain.add(name)
            # Uncertain columns pass through a stream projection unchanged;
            # computation over them is deferred to the use sites.
            if child.raw_stream and not isinstance(expr, Col):
                refuse(
                    "TC108",
                    f"projection {name!r} computes over uncertain columns "
                    f"{sorted(touched)}; move the computation into the "
                    "consuming predicate or aggregate (lazy evaluation)",
                )
            elif not uncertain_arithmetic(expr, child.uncertain_cols):
                refuse("TC112", _no_kernel(f"projection {name!r}", expr, touched))
        return NodeTags(
            child.tuple_uncertain,
            frozenset(out_uncertain),
            child.sample_weighted,
            child.raw_stream,
        )

    if isinstance(node, Rename):
        child = _tag(node.child, streamed, tags, refusals)
        renamed = frozenset(
            node.mapping.get(c, c) for c in child.uncertain_cols
        )
        return NodeTags(
            child.tuple_uncertain, renamed, child.sample_weighted, child.raw_stream
        )

    if isinstance(node, Join):
        left = _tag(node.left, streamed, tags, refusals)
        right = _tag(node.right, streamed, tags, refusals)
        for lk, rk in node.keys:
            if lk in left.uncertain_cols or rk in right.uncertain_cols:
                refuse(
                    "TC102",
                    f"join key {lk!r}={rk!r} is uncertain under sampling; "
                    "approximate join keys are not supported (Section 3.3)",
                )
        if left.raw_stream and right.raw_stream:
            refuse(
                "TC103",
                "both join inputs stream the raw fact table; stream only one "
                "input relation and read the others in entirety (Section 2)",
            )
        kept_right = right.uncertain_cols - set(node.right_keys)
        return NodeTags(
            left.tuple_uncertain or right.tuple_uncertain,
            left.uncertain_cols | kept_right,
            left.sample_weighted or right.sample_weighted,
            left.raw_stream or right.raw_stream,
        )

    if isinstance(node, Union):
        left = _tag(node.left, streamed, tags, refusals)
        right = _tag(node.right, streamed, tags, refusals)
        # Online, a UNION input is a stream or static; an input that reads
        # the stream through an aggregate is neither.
        if any(
            streamed & side.base_tables() and not side_tags.raw_stream
            for side, side_tags in ((node.left, left), (node.right, right))
        ):
            refuse(
                "TC111",
                "UNION between aggregate-derived inputs is not supported online",
            )
        elif left.uncertain_cols or right.uncertain_cols:
            refuse(
                "TC113",
                "UNION input carries uncertain columns "
                f"{sorted(left.uncertain_cols | right.uncertain_cols)}; union "
                "the stream inputs below the join that attaches them",
            )
        return NodeTags(
            left.tuple_uncertain or right.tuple_uncertain,
            left.uncertain_cols | right.uncertain_cols,
            left.sample_weighted or right.sample_weighted,
            left.raw_stream or right.raw_stream,
        )

    if isinstance(node, Aggregate):
        child = _tag(node.child, streamed, tags, refusals)
        for g in node.group_by:
            if g in child.uncertain_cols:
                refuse(
                    "TC104",
                    f"group-by key {g!r} is uncertain under sampling; "
                    "approximate group-by keys are not supported (Section 3.3)",
                )
        agg_uncertain: set[str] = set()
        for spec in node.aggs:
            input_changes = (
                child.tuple_uncertain
                or child.sample_weighted
                or bool(spec.attrs() & child.uncertain_cols)
            )
            if input_changes and not spec.func.hadamard_differentiable:
                refuse(
                    "TC105",
                    f"aggregate {spec.func.name.upper()} is not Hadamard "
                    "differentiable and cannot be approximated under "
                    "sampling (Section 3.3)",
                )
            if input_changes:
                agg_uncertain.add(spec.name)
        for spec in node.aggs:
            touched = spec.attrs() & child.uncertain_cols
            if (
                spec.arg is not None
                and not child.raw_stream
                and not uncertain_arithmetic(spec.arg, child.uncertain_cols)
            ):
                refuse("TC112", _no_kernel(f"aggregate {spec.name!r}", spec.arg, touched))
        # Over a stream, an uncertain argument is re-evaluated lazily from
        # its lineage gids each batch (Section 6.2).
        lazy = [
            spec
            for spec in node.aggs
            if child.raw_stream and spec.attrs() & child.uncertain_cols
        ]
        for spec in lazy:
            if not spec.func.decomposable:
                refuse(
                    "TC110",
                    f"aggregate {spec.name!r}: holistic UDAF over an "
                    "uncertain argument is not supported online",
                )
            elif spec.func.num_features != 1:
                refuse(
                    "TC109",
                    f"aggregate {spec.name!r} over an uncertain argument "
                    "requires a single identity feature (SUM/AVG-style)",
                )
        # A group's multiplicity is uncertain only if every contributing
        # tuple is uncertain; statically that collapses to "the input has
        # tuple uncertainty at all" (new groups may still appear).
        return NodeTags(
            child.tuple_uncertain, frozenset(agg_uncertain), False, False
        )

    if isinstance(node, Distinct):
        child = _tag(node.child, streamed, tags, refusals)
        for c in node.columns:
            if c in child.uncertain_cols:
                refuse(
                    "TC106", f"distinct over uncertain column {c!r} is not supported"
                )
        return NodeTags(child.tuple_uncertain, frozenset(), False, False)

    refuse("TC101", f"cannot analyze node {type(node).__name__}")
    return STATIC_TAGS


def _no_kernel(what: str, expr: Expression, touched: frozenset[str] | set[str]) -> str:
    return (
        f"{what} computes {expr!r} over uncertain columns {sorted(touched)}; "
        "the engine carries ranges and trials through + - * / only"
    )
