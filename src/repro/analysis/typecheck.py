"""The plan-level uncertainty typechecker (Appendix A / §4.1-§4.2).

The tags are derived once, by the engine
(:func:`repro.core.uncertainty.tag_plan`); this module reports and
checks what the engine derives:

1. **Refusals** (``TC1xx``) — every reason the online engine cannot run
   the plan, one diagnostic per refusal, so one run reports *all*
   problems of a plan where the compiler raises only the first.
2. **Emission checks** (``TC3xx``, :func:`check_units` /
   :func:`check_pipeline`) — the compiled plan is walked operator by
   operator and checked against the engine's tags and against each
   operator class's declarative :class:`~repro.core.operators.TagRule` /
   ``StateRule`` specs: an ``UncertainFilterOp`` must sit exactly where
   an uncertain attribute is consumed, the declared state rule must be
   the §4.2 one the tags demand (ND cache present iff a
   non-deterministic set can exist, sketch-only aggregation iff the input
   is certain-append, group gates only over group-key columns), and the
   block-production graph must be
   uniquely-produced and run in producer-before-consumer order. That a
   live store holds exactly the declared entries is checked at runtime,
   after every sanitized ``process`` call (SAN004).
"""

from __future__ import annotations

import time
from typing import Iterator

from repro.analysis.diagnostics import AnalysisDiagnostic, AnalysisReport
from repro.core.compiler import (
    ExecutionUnit,
    StreamPipelineUnit,
    compile_online,
)
from repro.core.operators import (
    AggregateOp,
    FilterOp,
    SpineOp,
    UncertainFilterOp,
    iter_ops,
)
from repro.core.uncertainty import REFUSAL_RULES, NodeTags, tag_plan
from repro.errors import ReproError
from repro.relational.aggregates import AggSpec
from repro.relational.algebra import PlanNode
from repro.relational.catalog import Catalog
from repro.sql.planner import plan_sql

#: Rule catalog (ids -> one-line description). Mirrored in DESIGN.md; the
#: test suite asserts every rule here is triggered by some fixture.
TYPECHECK_RULES: dict[str, str] = {
    **{rule_id: description for rule_id, (description, _) in REFUSAL_RULES.items()},
    "TC301": "UncertainFilterOp placed where no uncertain attribute is consumed",
    "TC302": "deterministic filter path reads uncertain attributes",
    "TC304": "ND cache declaration contradicts the operator's tag rule",
    "TC305": "aggregate state split contradicts its input tags (sketch/lazy/holistic)",
    "TC306": "operator declares uncertain columns outside its output schema",
    "TC307": "operator uncertain-column tags diverge from the engine's plan tags",
    "TC308": "two execution units produce the same lineage block",
    "TC309": "execution unit consumes a lineage block no unit produces",
    "TC310": "execution unit consumes a lineage block before its producer runs",
    "TC311": "operators of two execution units hold the same StateStore",
    "TC312": "group-gated aggregate gates by columns outside its group key",
}


def _diag(rule_id: str, location: str, message: str, hint: str = "") -> AnalysisDiagnostic:
    return AnalysisDiagnostic(rule_id, location, message, hint)


def _node_loc(node: PlanNode) -> str:
    return f"{type(node).__name__}#{node.node_id}"


# ---------------------------------------------------------------------------
# Checks over what the compiler emitted.
# ---------------------------------------------------------------------------


def _label_node_id(label: str) -> int | None:
    prefix, _, suffix = label.partition(":")
    if prefix in ("filter", "select", "join", "aggregate") and suffix.isdigit():
        return int(suffix)
    return None


def _expected_spec_split(
    op: AggregateOp,
) -> tuple[list[AggSpec], list[AggSpec], list[AggSpec]]:
    """Re-derive the (sketch, lazy, holistic) split §4.2/§6.2 demand."""
    sketch: list[AggSpec] = []
    lazy: list[AggSpec] = []
    holistic: list[AggSpec] = []
    for spec in op.specs:
        if spec.attrs() & op.child.uncertain_cols:
            lazy.append(spec)
        elif spec.func.decomposable:
            sketch.append(spec)
        else:
            holistic.append(spec)
    return sketch, lazy, holistic


def _subtree_certain_append(op: SpineOp) -> bool:
    """No operator below can put rows on the volatile channel."""
    return not any(type(o).tag_rule.introduces_nd for o in iter_ops(op))


def check_pipeline(
    root_op: SpineOp, tags: dict[int, NodeTags] | None = None
) -> list[AnalysisDiagnostic]:
    """Check one stream pipeline's operators against their declared rules."""
    diags: list[AnalysisDiagnostic] = []
    for op in iter_ops(root_op):
        diags.extend(_check_op(op, tags or {}))
    return diags


def _check_op(op: SpineOp, tags: dict[int, NodeTags]) -> Iterator[AnalysisDiagnostic]:
    cls = type(op)
    loc = op.label

    # TC304: ND cache declared iff the tag rule says an ND set can exist.
    if (cls.state_rule.nd_entry is not None) != cls.tag_rule.introduces_nd:
        yield _diag(
            "TC304",
            loc,
            f"{cls.__name__} declares nd_entry={cls.state_rule.nd_entry!r} but "
            f"tag_rule.introduces_nd={cls.tag_rule.introduces_nd}",
            "an operator keeps a non-deterministic cache exactly when its "
            "tag rule lets tuples become non-deterministic (§4.2)",
        )

    # TC306: uncertain columns must exist in the output schema.
    stray = set(op.uncertain_cols) - set(op.schema.names)
    if stray:
        yield _diag(
            "TC306",
            loc,
            f"uncertain columns {sorted(stray)} are not in the output schema "
            f"{list(op.schema.names)}",
        )

    if isinstance(op, UncertainFilterOp):
        child_uncertain = op.child.uncertain_cols
        consumed = set().union(
            *(c.attrs() for c in op.uncertain_conjuncts)
        ) if op.uncertain_conjuncts else set()
        if not (consumed & child_uncertain):
            yield _diag(
                "TC301",
                loc,
                "uncertain-filter operator consumes no uncertain attribute "
                f"(conjunct columns {sorted(consumed)}, input uncertain "
                f"columns {sorted(child_uncertain)})",
                "the compiler must emit a plain FilterOp for fully "
                "deterministic predicates",
            )
        for part in op.det_conjuncts:
            touched = part.attrs() & child_uncertain
            if touched:
                yield _diag(
                    "TC302",
                    loc,
                    f"deterministic conjunct {part!r} reads uncertain columns "
                    f"{sorted(touched)}",
                    "classify the conjunct as uncertain so its decisions are "
                    "range-checked and sentinel-guarded",
                )
    elif isinstance(op, FilterOp):
        touched = op.predicate.attrs() & op.child.uncertain_cols
        if touched:
            yield _diag(
                "TC302",
                loc,
                f"deterministic FilterOp predicate reads uncertain columns "
                f"{sorted(touched)}",
                "the compiler must emit UncertainFilterOp where an uncertain "
                "attribute is consumed",
            )

    if isinstance(op, AggregateOp):
        sketch, lazy, holistic = _expected_spec_split(op)
        actual = (
            [s.name for s in op.sketch_specs],
            [s.name for s in op.lazy_specs],
            [s.name for s in op.holistic_specs],
        )
        expected = ([s.name for s in sketch], [s.name for s in lazy], [s.name for s in holistic])
        if actual != expected:
            yield _diag(
                "TC305",
                loc,
                f"aggregate split (sketch/lazy/holistic) is {actual}, but the "
                f"input tags demand {expected}",
                "certain decomposable arguments fold into sketches; uncertain "
                "arguments are re-evaluated lazily; holistic functions keep "
                "the row store (§4.2/§6.2)",
            )
        # TC312: a gate keeps no row store, so it is only sound where one
        # membership holds for a whole group.
        stray = sorted({c for gate in op.gates for c in gate.columns} - set(op.group_by))
        if stray:
            yield _diag(
                "TC312",
                loc,
                f"group gates read columns {stray} outside the group key "
                f"{op.group_by}",
                "gate a semi-join by group only when its key is part of the "
                "group key (by provenance); otherwise keep the uncertain join "
                "and its ND store",
            )
        if _subtree_certain_append(op.child) and not op.child.uncertain_cols:
            if op.lazy_specs:
                yield _diag(
                    "TC305",
                    loc,
                    "input is certain-append but the aggregate keeps lazy "
                    f"re-evaluation specs {[s.name for s in op.lazy_specs]}",
                    "certain-append input must fold into sketches only",
                )

    # TC307: tags attached to the emitted operator vs the engine's tags.
    node_id = _label_node_id(op.label)
    if node_id is not None and node_id in tags and not cls.tag_rule.resets_tags:
        derived = tags[node_id].uncertain_cols
        if set(op.uncertain_cols) != set(derived):
            yield _diag(
                "TC307",
                loc,
                f"operator carries uncertain columns {sorted(op.uncertain_cols)} "
                f"but the engine's analysis derives {sorted(derived)} for plan "
                f"node {node_id}",
            )


def check_units(
    units: list[ExecutionUnit], tags: dict[int, NodeTags] | None = None
) -> list[AnalysisDiagnostic]:
    """Check a compiled unit list: pipelines plus the block dependency graph.

    Units run one by one in list order, so the order is the whole
    happens-before relation: a consumer must come after its producer
    (TC310), and no store may be shared by two units (TC311), whose
    relative order would then be the only thing keeping them apart.
    """
    diags: list[AnalysisDiagnostic] = []
    producers: dict[int, str] = {}
    for unit in units:
        for block_id in unit.produces:
            if block_id in producers:
                diags.append(
                    _diag(
                        "TC308",
                        unit.label,
                        f"block {block_id} is already produced by "
                        f"{producers[block_id]!r}",
                        "every lineage block has exactly one producing unit; "
                        "consumers read whatever that unit last published "
                        "into ctx.blocks",
                    )
                )
            else:
                producers[block_id] = unit.label
    produced = set(producers)
    for unit in units:
        missing = unit.consumes - produced
        if missing:
            diags.append(
                _diag(
                    "TC309",
                    unit.label,
                    f"consumes blocks {sorted(missing)} that no unit produces",
                    "the lineage reference would never resolve; check the "
                    "compiler's unit ordering",
                )
            )
    ran: set[int] = set()
    for unit in units:
        late = (unit.consumes & produced) - ran
        if late:
            diags.append(
                _diag(
                    "TC310",
                    unit.label,
                    f"consumes blocks {sorted(late)} before their producers "
                    f"{sorted({producers[b] for b in late})} run",
                    "the unit would read the previous batch's (or no) block "
                    "output; emit every producer before its consumers",
                )
            )
        ran |= unit.produces
    holders: dict[int, ExecutionUnit] = {}
    for unit in units:
        if not isinstance(unit, StreamPipelineUnit):
            continue
        for op in iter_ops(unit.root_op):
            holder = holders.setdefault(id(op.state), unit)
            if holder is not unit:
                diags.append(
                    _diag(
                        "TC311",
                        unit.label,
                        f"operator {op.label!r} holds the StateStore already "
                        f"held by an operator of {holder.label!r}",
                        "each operator owns its own store; share a published "
                        "block instead of state",
                    )
                )
    for unit in units:
        if isinstance(unit, StreamPipelineUnit):
            diags.extend(check_pipeline(unit.root_op, tags))
    return diags


# ---------------------------------------------------------------------------
# The full typecheck: refusals, then emission checks.
# ---------------------------------------------------------------------------


def check_plan(
    plan: PlanNode,
    catalog: Catalog,
    streamed_table: str,
    subject: str = "plan",
) -> AnalysisReport:
    """Typecheck ``plan`` for online execution over ``streamed_table``.

    Returns a report with every refusal of the plan; a plan the engine
    accepts is then compiled and its operators checked against the
    engine's tags. ``report.ok`` means the plan runs online and the
    compiled operators honor their declared rules.
    """
    started = time.perf_counter()
    report = AnalysisReport(subject)
    tags, refusals = tag_plan(plan, {streamed_table})
    report.extend(
        [_diag(r.rule_id, _node_loc(r.node), r.message, r.hint) for r in refusals]
    )
    if not refusals:
        compiled = compile_online(plan, catalog, streamed_table)
        report.extend(check_units(compiled.units, tags))
    report.wall_seconds = time.perf_counter() - started
    return report


def analyze_query(
    sql: str,
    catalog: Catalog,
    streamed_table: str,
    subject: str | None = None,
) -> AnalysisReport:
    """Plan one SQL statement and typecheck it for online execution.

    The ``iolap analyze`` entry point: SQL that fails to parse or plan is
    reported as a TC101 diagnostic rather than an exception, so a batch
    of queries always yields a report per query.
    """
    started = time.perf_counter()
    if subject is None:
        subject = " ".join(sql.split())[:60]
    try:
        plan = plan_sql(sql, catalog.schemas())
    except ReproError as exc:
        report = AnalysisReport(subject)
        report.extend(
            [
                _diag(
                    "TC101",
                    "sql",
                    f"statement does not plan: {exc}",
                    "only the supported SELECT-project-join-aggregate "
                    "dialect reaches the online engine",
                )
            ]
        )
        report.wall_seconds = time.perf_counter() - started
        return report
    report = check_plan(plan, catalog, streamed_table, subject=subject)
    report.wall_seconds = time.perf_counter() - started
    return report
