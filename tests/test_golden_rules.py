"""Golden fixtures: every diagnostic rule the analysis layer can emit —
typechecker TC1xx/TC3xx, engine lint ENG001–005, sanitizer
SAN00x — has exactly one minimal triggering
fixture here, and each fired diagnostic is pinned down to its rule id,
a non-empty location, and (where the rule carries one) a repair hint.

A rule added to any catalog without a fixture fails
``test_every_rule_has_a_fixture``; a fixture that stops triggering its
rule fails its parametrized case. This is the contract that keeps the
rule tables in DESIGN.md honest.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pytest

from repro.analysis import check_plan
from repro.analysis.diagnostics import AnalysisDiagnostic
from repro.analysis.lint import ENGINE_LINT_RULES, lint_source
from repro.analysis.sanitize import SANITIZE_RULES, BufferSanitizer
from repro.analysis.typecheck import (
    TYPECHECK_RULES,
    check_pipeline,
    check_units,
)
from repro.core.compiler import ExecutionUnit, StreamPipelineUnit, compile_online
from repro.core.operators import (
    FilterOp,
    ScanOp,
    StateRule,
    UncertainFilterOp,
)
from repro.core.uncertainty import NodeTags
from repro.errors import SanitizerViolationError, UnsupportedQueryError
from repro.relational import (
    AggSpec,
    HolisticUDAF,
    avg,
    col,
    count,
    lit,
    min_,
    scan,
    stddev,
    sum_,
)
from repro.relational.algebra import PlanNode
from repro.relational.expressions import Arith, Or
from tests.conftest import KX_SCHEMA

#: Rules whose diagnostics legitimately carry no hint: TC306/TC307 are
#: self-explanatory schema/tag mismatches. Everything else must carry a
#: repair hint.
HINTLESS: set[str] = {"TC306", "TC307"}


@dataclass
class Ctx:
    """What a fixture may use: a small catalog."""

    catalog: Any


def _kx():
    return scan("t", KX_SCHEMA)


def _with_uncertain():
    inner = _kx().aggregate([], [avg("x", "ax")])
    return _kx().join(inner, keys=[])


def _lint(source: str):
    return lint_source(textwrap.dedent(source))


# -- typechecker fixtures ---------------------------------------------------


class _Exotic(PlanNode):
    pass


def _tc110_plan():
    udaf = HolisticUDAF("median", lambda values, weights: 0.0)
    return _with_uncertain().aggregate([], [AggSpec("md", udaf, col("ax"))])


#: One minimal plan per engine refusal.
REFUSED_PLANS: dict[str, Callable[[], PlanNode]] = {
    "TC101": _Exotic,
    "TC102": lambda: _kx().join(
        _kx().aggregate(["k"], [avg("x", "ax")]).rename({"k": "k2"}),
        keys=[("x", "ax")],
    ),
    "TC103": lambda: _kx().join(_kx(), keys=[("k", "k")]),
    "TC104": lambda: _with_uncertain().aggregate(["ax"], [count("n")]),
    "TC105": lambda: _kx().aggregate(["k"], [min_("x", "mn")]),
    "TC106": lambda: _with_uncertain().distinct(["ax"]),
    "TC107": lambda: _with_uncertain().select(
        Or(col("x") > col("ax"), col("y") > col("ax"))
    ),
    "TC108": lambda: _with_uncertain().project(
        [("z", col("ax") * 2.0), ("k", col("k"))]
    ),
    "TC109": lambda: _with_uncertain().aggregate([], [stddev("ax", "sd")]),
    "TC110": _tc110_plan,
    "TC111": lambda: _kx()
    .aggregate(["k"], [avg("x", "x"), avg("y", "y")])
    .union(_kx()),
    "TC112": lambda: _kx()
    .aggregate(["k"], [avg("x", "ax")])
    .project([("m", Arith("%", col("ax"), lit(7.0)))]),
    "TC113": lambda: _with_uncertain().union(_with_uncertain()),
    # A second shape of one rule: ``<rule>/<shape>``.
    "TC107/certain-beside-uncertain": lambda: _with_uncertain().select(
        col("ax") - col("x") > lit(0.0)
    ),
}


def _rule(fixture: str) -> str:
    """The rule id a fixture key names."""
    return fixture.split("/")[0]


def _refused(rule_id: str) -> Callable[[Ctx], list[AnalysisDiagnostic]]:
    return lambda ctx: check_plan(REFUSED_PLANS[rule_id](), ctx.catalog, "t").diagnostics


def _tc301(ctx):
    scan_op = ScanOp("t", KX_SCHEMA)
    return check_pipeline(
        UncertainFilterOp(scan_op, [], [col("x") > lit(5.0)], node_id=901)
    )


def _tc302(ctx):
    scan_op = ScanOp("t", KX_SCHEMA)
    scan_op.uncertain_cols.add("x")
    return check_pipeline(FilterOp(scan_op, col("x") > lit(5.0), 1))


def _tc304(ctx):
    class BadFilter(FilterOp):
        state_rule = StateRule(frozenset({"nd"}), nd_entry="nd")

    op = BadFilter(ScanOp("t", KX_SCHEMA), col("x") > lit(5.0), 1)
    return check_pipeline(op)


def _tc305(ctx):
    from repro.core.operators import AggregateOp, iter_ops

    plan = _kx().aggregate(["k"], [sum_("x", "sx")])
    compiled = compile_online(plan, ctx.catalog, "t")
    agg = next(
        op
        for unit in compiled.units
        if isinstance(unit, StreamPipelineUnit)
        for op in iter_ops(unit.root_op)
        if isinstance(op, AggregateOp)
    )
    agg.lazy_specs.append(agg.sketch_specs.pop())
    return check_pipeline(agg)


def _tc306(ctx):
    op = ScanOp("t", KX_SCHEMA)
    op.uncertain_cols.add("no_such_column")
    return check_pipeline(op)


def _tc307(ctx):
    scan_op = ScanOp("t", KX_SCHEMA)
    scan_op.uncertain_cols.add("x")
    op = UncertainFilterOp(scan_op, [], [col("x") > lit(5.0)], node_id=907)
    inferred = {907: NodeTags(True, frozenset({"x", "y"}), True, True)}
    return check_pipeline(op, inferred)


class _Unit(ExecutionUnit):
    def __init__(self, label, produces=(), consumes=()):
        self.label = label
        self.produces = frozenset(produces)
        self.consumes = frozenset(consumes)


def _tc308(ctx):
    return check_units([_Unit("a", produces={1}), _Unit("b", produces={1})])


def _tc309(ctx):
    return check_units([_Unit("a", produces={1}, consumes={2})])


def _tc310(ctx):
    return check_units([_Unit("consumer", consumes={1}), _Unit("producer", produces={1})])


def _tc311(ctx):
    first, second = ScanOp("t", KX_SCHEMA), ScanOp("t", KX_SCHEMA)
    second.state = first.state
    return check_units([StreamPipelineUnit(first), StreamPipelineUnit(second)])


def _tc312(ctx):
    from repro.core.operators import AggregateOp, GroupGate

    plan = _kx().aggregate(["k"], [sum_("x", "sx")])
    schema = plan.output_schema(ctx.catalog.schemas())
    agg = AggregateOp(
        ScanOp("t", KX_SCHEMA), ["k"], plan.aggs, schema, block_id=1,
        sample_weighted=True, gates=[GroupGate(2, ("y",))],
    )
    return check_pipeline(agg)


# -- engine-lint fixtures ---------------------------------------------------


def _eng001(ctx):
    return _lint(
        """
        class BadOp:
            def process(self, delta, ctx):
                delta.rows.append(1)
                return delta
        """
    )


def _eng002(ctx):
    return _lint(
        """
        class BadOp:
            def process(self, delta, ctx):
                self.seen = self.seen + len(delta.rows)
                return delta
        """
    )


def _eng003(ctx):
    return _lint(
        """
        class BadOp:
            def process(self, delta, ctx):
                ctx.blocks[3] = delta
                return delta
        """
    )


def _eng004(ctx):
    return _lint(
        """
        import time

        class BadOp:
            def process(self, delta, ctx):
                self.state.put("stamp", time.time())
                return delta
        """
    )


def _eng005(ctx):
    return _lint(
        """
        class BadOp:
            def process(self, delta, ctx):
                for key in set(delta.keys) - self.published:
                    self.state.put(key, 1)
                return delta
        """
    )


# -- sanitizer fixtures -----------------------------------------------------
#
# SAN rules are runtime violations, not report diagnostics; the fixtures
# trigger the real SanitizerViolationError and adapt it so the same
# id/location/hint assertions apply (location = offending operator,
# hint = the catalog's one-line repair description).


def _san_diag(err):
    return [
        AnalysisDiagnostic(
            err.rule_id,
            err.writer,
            str(err),
            hint=SANITIZE_RULES[err.rule_id],
        )
    ]


class _WriterOp:
    label = "op:golden-writer"


def _san001(ctx):
    from repro.relational import relation_from_columns
    from repro.relational.schema import ColumnType, Schema

    rel = relation_from_columns(
        Schema([("x", ColumnType.FLOAT)]), x=[1.0, 2.0, 3.0, 4.0]
    )
    san = BufferSanitizer()
    san.begin_batch(1)
    san.activate()
    try:
        san.before_process(_WriterOp(), None)
        view = rel.slice(0, 2)
        san.release(_WriterOp())
    finally:
        san.deactivate()
    with pytest.raises(ValueError) as excinfo:
        view.columns["x"][0] = 9.0
    return _san_diag(
        san.translate_write_error(_WriterOp(), view, None, excinfo.value)
    )


def _san002(ctx, tmp_path=None):
    import tempfile

    san = BufferSanitizer()
    san.begin_batch(1)
    with tempfile.NamedTemporaryFile(suffix=".bin") as f:
        np.arange(8, dtype="<i8").tofile(f.name)
        mm = np.memmap(f.name, dtype="<i8", mode="r", shape=(8,))
        view = mm[2:6]
        with pytest.raises(ValueError) as excinfo:
            view[0] = 1
        return _san_diag(
            san.translate_write_error(
                _WriterOp(), [view], None, excinfo.value
            )
        )


def _san004(ctx):
    op = ScanOp("t", KX_SCHEMA)
    op.state.put("stray", 1)  # ScanOp declares no state entries
    with pytest.raises(SanitizerViolationError) as excinfo:
        BufferSanitizer().check_state(op)
    return _san_diag(excinfo.value)


# -- the registry -----------------------------------------------------------

FIXTURES: dict[str, Callable[[Ctx], list[AnalysisDiagnostic]]] = {
    "TC101": _refused("TC101"),
    "TC102": _refused("TC102"),
    "TC103": _refused("TC103"),
    "TC104": _refused("TC104"),
    "TC105": _refused("TC105"),
    "TC106": _refused("TC106"),
    "TC107": _refused("TC107"),
    "TC108": _refused("TC108"),
    "TC109": _refused("TC109"),
    "TC110": _refused("TC110"),
    "TC111": _refused("TC111"),
    "TC112": _refused("TC112"),
    "TC113": _refused("TC113"),
    "TC107/certain-beside-uncertain": _refused("TC107/certain-beside-uncertain"),
    "TC301": _tc301,
    "TC302": _tc302,
    "TC304": _tc304,
    "TC305": _tc305,
    "TC306": _tc306,
    "TC307": _tc307,
    "TC308": _tc308,
    "TC309": _tc309,
    "TC310": _tc310,
    "TC311": _tc311,
    "TC312": _tc312,
    "ENG001": _eng001,
    "ENG002": _eng002,
    "ENG003": _eng003,
    "ENG004": _eng004,
    "ENG005": _eng005,
    "SAN001": _san001,
    "SAN002": _san002,
    "SAN004": _san004,
}

ALL_RULES = (
    set(TYPECHECK_RULES)
    | set(ENGINE_LINT_RULES)
    | set(SANITIZE_RULES)
)


def test_every_rule_has_a_fixture():
    missing = sorted(ALL_RULES - set(FIXTURES))
    stale = sorted({_rule(f) for f in FIXTURES} - ALL_RULES)
    assert not missing, f"rules without golden fixtures: {missing}"
    assert not stale, f"fixtures for rules no longer in any catalog: {stale}"


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_golden_fixture(rule_id, kx_catalog):
    diags = FIXTURES[rule_id](Ctx(kx_catalog))
    fired = [d for d in diags if d.rule_id == _rule(rule_id)]
    assert fired, (
        f"fixture for {rule_id} fired {sorted({d.rule_id for d in diags})} "
        f"instead"
    )
    diag = fired[0]
    assert diag.location, f"{rule_id} diagnostic has no location"
    assert diag.message, f"{rule_id} diagnostic has no message"
    assert diag.severity in ("error", "warning")
    if _rule(rule_id) not in HINTLESS:
        assert diag.hint, f"{rule_id} diagnostic has no repair hint"


@pytest.mark.parametrize("rule_id", sorted(REFUSED_PLANS))
def test_compiler_raises_the_first_reported_refusal(rule_id, kx_catalog):
    plan = REFUSED_PLANS[rule_id]()
    first = check_plan(plan, kx_catalog, "t").diagnostics[0]
    with pytest.raises(UnsupportedQueryError) as exc:
        compile_online(plan, kx_catalog, "t")
    assert exc.value.rule_id == first.rule_id == _rule(rule_id)
    assert f"{type(exc.value.node).__name__}#{exc.value.node.node_id}" == first.location
    assert str(exc.value) == first.message
