"""Plan-level race detector: effect summaries checked against declared order.

The iOLAP delta-update discipline only stays correct if every state
store, lineage block, and carried sidecar has exactly one writer per
batch. PR 2's TC3xx single-producer check covers block *wiring*; this
pass covers *ordering*: it derives a read/write effect summary per
compiled :class:`~repro.core.compiler.ExecutionUnit` and checks that
every pair of conflicting units is ordered by a declared produce/consume
dependency path, not merely by the compiler's unit order (which
:func:`repro.engine.executor.run_units` follows).

Effect summaries combine two sources:

1. **Plan metadata** — the unit's declared ``produces``/``consumes``
   block ids and each operator's declared
   :class:`~repro.core.operators.StateRule` entries.
2. **A targeted AST walk** of each operator class (cached per class):
   literal ``self.state.put("k")`` keys, ``ctx.blocks[self.X]`` reads
   and writes, and lineage-sidecar constructions
   (``LineageRef``/``LineageColumn``/``GroupIndex.refs``) whose block-id
   attributes are then resolved against the *live* operator instance.

The walk is deliberately conservative about dynamism: block ids read
through ``ctx.resolve`` (dynamic lineage resolution) are not modelled,
so the detector can miss a race routed through resolution but never
reports a false positive for it.

Rules:

* ``RACE101`` — a store entry shared by two units with no
  produce/consume dependency path between them in either direction
  (warning: the ordering is an accident of unit order, not a declared
  dependency).
* ``RACE201`` — a carried lineage sidecar whose producing unit has no
  dependency path to the carrier, i.e. only unit order keeps the
  producer from republishing the block after the carrier baked
  references into it (error).
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import time
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.diagnostics import AnalysisDiagnostic, AnalysisReport
from repro.core.compiler import (
    ExecutionUnit,
    SmallSegmentUnit,
    StreamPipelineUnit,
    compile_online,
)
from repro.core.operators import iter_ops
from repro.core.smallplan import iter_small_nodes
from repro.errors import ReproError, UnsupportedQueryError
from repro.relational.algebra import PlanNode
from repro.relational.catalog import Catalog
from repro.sql.planner import plan_sql

#: Rule catalog (ids -> one-line description). Mirrored in DESIGN.md; the
#: test suite asserts every rule here is triggered by some fixture.
RACE_RULES: dict[str, str] = {
    "RACE000": "plan does not compile for online execution; race analysis skipped",
    "RACE101": "store entry shared across units with no dependency path between them",
    "RACE201": "carried sidecar's producing unit is ordered only by unit order",
}


def _diag(
    rule_id: str,
    location: str,
    message: str,
    hint: str = "",
    severity: str = "error",
) -> AnalysisDiagnostic:
    return AnalysisDiagnostic(rule_id, location, message, hint, severity)


# ---------------------------------------------------------------------------
# Per-class AST walk (cached): which attributes carry block/store effects.
# ---------------------------------------------------------------------------


@dataclass
class _ClassEffects:
    """Syntactic effects of one operator class, before instance resolution."""

    state_keys: set[str] = field(default_factory=set)
    sidecar_attrs: set[str] = field(default_factory=set)


_CLASS_CACHE: dict[type, _ClassEffects] = {}

#: Call targets whose arguments carry lineage block ids into sidecars.
_SIDECAR_CALLS = ("refs", "LineageColumn", "LineageRef")


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _self_attr(node: ast.AST) -> str | None:
    """Attribute name for a ``self.X`` expression, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _collect_effects(tree: ast.AST, effects: _ClassEffects) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = _dotted(node.func)
        if func is None:
            continue
        head = func.rsplit(".", 1)[-1]
        if func.startswith("self.state.") and head in ("put", "get", "delete"):
            if node.args and isinstance(node.args[0], ast.Constant):
                key = node.args[0].value
                if isinstance(key, str):
                    effects.state_keys.add(key)
        elif head in _SIDECAR_CALLS:
            for arg in node.args:
                for sub in ast.walk(arg):
                    attr = _self_attr(sub)
                    if attr is not None:
                        effects.sidecar_attrs.add(attr)


def class_effects(cls: type) -> _ClassEffects:
    """The cached AST-derived effects of one operator class."""
    cached = _CLASS_CACHE.get(cls)
    if cached is not None:
        return cached
    effects = _ClassEffects()
    try:
        source = textwrap.dedent(inspect.getsource(cls))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError):  # builtins, REPL classes
        pass
    else:
        _collect_effects(tree, effects)
    _CLASS_CACHE[cls] = effects
    return effects


# ---------------------------------------------------------------------------
# Effect summaries: class effects resolved against live unit instances.
# ---------------------------------------------------------------------------


@dataclass
class EffectSummary:
    """Read/write effect summary of one compiled execution unit."""

    unit_label: str
    #: ``(id(store), entry)`` pairs — id() keys match the state registry's
    #: adoption discipline (each op owns exactly one store instance).
    store_reads: set[tuple[int, str]] = field(default_factory=set)
    store_writes: set[tuple[int, str]] = field(default_factory=set)
    #: Block ids this unit's operators bake into carried lineage sidecars.
    sidecar_sources: set[int] = field(default_factory=set)
    #: ``id(store) -> op label`` for diagnostics.
    store_owners: dict[int, str] = field(default_factory=dict)


def _unit_ops(unit: ExecutionUnit) -> list[Any]:
    if isinstance(unit, StreamPipelineUnit):
        return list(iter_ops(unit.root_op))
    if isinstance(unit, SmallSegmentUnit):
        # The SmallPlanUnit itself publishes ctx.blocks[self.publish_id].
        return [unit.unit, *iter_small_nodes(unit.unit.root)]
    # Future unit kinds (and test fixtures) can expose their operator list
    # directly; a unit without one has no store or sidecar effects.
    return list(getattr(unit, "ops", ()))


def _resolve_block_id(op: Any, attr: str) -> int | None:
    value = getattr(op, attr, None)
    return value if isinstance(value, int) else None


def summarize_effects(unit: ExecutionUnit) -> EffectSummary:
    """Derive the unit's effects from plan metadata + the class AST walk.

    Declared ``StateRule`` entries and AST-observed store keys both count
    as read+write (the §4.2 state discipline reads and rewrites every
    entry it keeps between batches). Block edges need no summary: the
    unit's declared ``produces``/``consumes`` are the dependency graph.
    """
    summary = EffectSummary(unit_label=unit.label)
    for op in _unit_ops(unit):
        effects = class_effects(type(op))
        store = getattr(op, "state", None)
        if store is not None:
            label = getattr(op, "label", type(op).__name__)
            summary.store_owners[id(store)] = str(label)
            rule = getattr(type(op), "state_rule", None)
            entries = set(effects.state_keys)
            if rule is not None:
                entries |= set(rule.entries)
            for key in entries:
                summary.store_reads.add((id(store), key))
                summary.store_writes.add((id(store), key))
        for attr in effects.sidecar_attrs:
            block_id = _resolve_block_id(op, attr)
            if block_id is not None:
                summary.sidecar_sources.add(block_id)
    return summary


# ---------------------------------------------------------------------------
# Happens-before checks over the declared dependency edges.
# ---------------------------------------------------------------------------


def _reachability(units: list[ExecutionUnit]) -> list[set[int]]:
    """``reach[i]`` = units reachable from ``i`` via produce->consume edges."""
    producers: dict[int, int] = {}
    for i, unit in enumerate(units):
        for block_id in unit.produces:
            producers.setdefault(block_id, i)
    edges: list[set[int]] = [set() for _ in units]
    for i, unit in enumerate(units):
        for block_id in unit.consumes:
            p = producers.get(block_id)
            if p is not None and p != i:
                edges[p].add(i)
    reach: list[set[int]] = [set() for _ in units]
    for start in range(len(units)):
        stack = list(edges[start])
        while stack:
            node = stack.pop()
            if node in reach[start]:
                continue
            reach[start].add(node)
            stack.extend(edges[node])
    return reach


def _store_conflicts(
    a: EffectSummary, b: EffectSummary
) -> set[tuple[int, str]]:
    return (a.store_writes & (b.store_writes | b.store_reads)) | (
        b.store_writes & a.store_reads
    )


def check_races(units: list[ExecutionUnit]) -> list[AnalysisDiagnostic]:
    """Check every conflicting unit pair for a declared dependency path."""
    diags: list[AnalysisDiagnostic] = []
    summaries = [summarize_effects(u) for u in units]
    reach = _reachability(units)

    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            if j in reach[i] or i in reach[j]:
                continue
            a, b = summaries[i], summaries[j]
            for store_id, entry in sorted(
                _store_conflicts(a, b), key=lambda pair: (pair[1], pair[0])
            ):
                owner = a.store_owners.get(
                    store_id, b.store_owners.get(store_id, "unknown")
                )
                diags.append(
                    _diag(
                        "RACE101",
                        a.unit_label,
                        f"store entry {entry!r} of operator {owner!r} is "
                        f"shared by {a.unit_label!r} (unit {i}) and "
                        f"{b.unit_label!r} (unit {j}) with no "
                        "produce/consume path between them",
                        "the ordering is an accident of unit order; "
                        "declare the dependency through a lineage block "
                        "or split the store",
                        severity="warning",
                    )
                )

    producers: dict[int, int] = {}
    for i, unit in enumerate(units):
        for block_id in unit.produces:
            producers.setdefault(block_id, i)
    for i, summary in enumerate(summaries):
        for block_id in sorted(summary.sidecar_sources):
            p = producers.get(block_id)
            if p is None or p == i:
                continue  # self-produced sidecars resolve locally
            if i not in reach[p]:
                diags.append(
                    _diag(
                        "RACE201",
                        summary.unit_label,
                        f"sidecar references block {block_id} produced by "
                        f"{units[p].label!r}, which has no dependency path "
                        f"to {summary.unit_label!r}; only unit order keeps "
                        "it from republishing the block under the sidecar",
                        "consume the block (declare it in the unit's "
                        "consumes) so a dependency orders the producer "
                        "first",
                    )
                )
    return diags


# ---------------------------------------------------------------------------
# Entry points, mirroring typecheck.check_plan / analyze_query.
# ---------------------------------------------------------------------------


def check_plan_races(
    plan: PlanNode,
    catalog: Catalog,
    streamed_table: str,
    subject: str = "plan",
) -> AnalysisReport:
    """Compile ``plan`` and race-check the resulting unit schedule."""
    started = time.perf_counter()
    report = AnalysisReport(subject)
    try:
        compiled = compile_online(plan, catalog, streamed_table)
    except UnsupportedQueryError as exc:
        report.extend(
            [
                _diag(
                    "RACE000",
                    "plan",
                    f"plan does not compile for online execution: {exc}",
                    "run `iolap analyze` without --races for the typecheck "
                    "diagnosis; race analysis needs a compiled unit schedule",
                    severity="warning",
                )
            ]
        )
    else:
        report.extend(check_races(compiled.units))
    report.wall_seconds = time.perf_counter() - started
    return report


def analyze_query_races(
    sql: str,
    catalog: Catalog,
    streamed_table: str,
    subject: str | None = None,
) -> AnalysisReport:
    """Plan one SQL statement and race-check its compiled schedule."""
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
                    "RACE000",
                    "sql",
                    f"statement does not plan: {exc}",
                    severity="warning",
                )
            ]
        )
        report.wall_seconds = time.perf_counter() - started
        return report
    report = check_plan_races(plan, catalog, streamed_table, subject=subject)
    report.wall_seconds = time.perf_counter() - started
    return report
