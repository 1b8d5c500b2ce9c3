"""The plan typechecker: clean on every bundled query, and every rule in
the TC catalog fires on a deliberately broken fixture (no dead rules)."""

from __future__ import annotations

import pytest

from repro.analysis import analyze_query, check_plan
from repro.analysis.typecheck import (
    TYPECHECK_RULES,
    check_pipeline,
    check_units,
)
from repro.core.compiler import ExecutionUnit, StreamPipelineUnit, compile_online
from repro.core.operators import (
    AggregateOp,
    FilterOp,
    ScanOp,
    StateRule,
    UncertainFilterOp,
    iter_ops,
)
from repro.core.uncertainty import NodeTags
from repro.errors import UnsupportedQueryError
from repro.relational import (
    HolisticUDAF,
    AggSpec,
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
from repro.workloads import (
    CONVIVA_QUERIES,
    TPCH_QUERIES,
    generate_conviva,
    generate_tpch,
)
from tests.conftest import KX_SCHEMA

def _kx():
    return scan("t", KX_SCHEMA)


def _with_uncertain():
    """Stream joined with its own aggregate: column ``ax`` is uncertain."""
    inner = _kx().aggregate([], [avg("x", "ax")])
    return _kx().join(inner, keys=[])


def _rules_of(diags) -> set[str]:
    return {d.rule_id for d in diags}


@pytest.fixture
def refusals(kx_catalog):
    """The TC1xx rule ids ``check_plan`` reports for a plan over ``t``."""
    return lambda plan: check_plan(plan, kx_catalog, "t").rule_ids()


# ---------------------------------------------------------------------------
# Acceptance: every bundled workload query typechecks clean.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_catalog():
    return generate_tpch(scale=0.05, seed=1).catalog()


@pytest.fixture(scope="module")
def conviva_catalog():
    return generate_conviva(scale=0.05, seed=1).catalog()


@pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
def test_tpch_queries_clean(name, tpch_catalog):
    spec = TPCH_QUERIES[name]
    report = check_plan(spec.plan, tpch_catalog, spec.streamed_table, subject=name)
    assert report.ok, report.format()
    assert report.wall_seconds > 0


@pytest.mark.parametrize("name", sorted(CONVIVA_QUERIES))
def test_conviva_queries_clean(name, conviva_catalog):
    spec = CONVIVA_QUERIES[name]
    report = check_plan(spec.plan, conviva_catalog, spec.streamed_table, subject=name)
    assert report.ok, report.format()


def test_analyze_query_sql_roundtrip(conviva_catalog):
    report = analyze_query(
        "SELECT cdn, COUNT(*) AS n FROM sessions GROUP BY cdn",
        conviva_catalog,
        "sessions",
    )
    assert report.ok, report.format()


def test_analyze_query_bad_sql_reports_tc101(conviva_catalog):
    report = analyze_query("FROBNICATE everything", conviva_catalog, "sessions")
    assert not report.ok
    assert _rules_of(report.diagnostics) == {"TC101"}


# ---------------------------------------------------------------------------
# TC1xx: the engine's refusals, one broken plan per rule.
# ---------------------------------------------------------------------------


def test_tc101_unsupported_node(refusals):
    class Exotic(PlanNode):
        pass

    assert "TC101" in refusals(Exotic())


def test_tc102_uncertain_join_key(refusals):
    inner = _kx().aggregate(["k"], [avg("x", "ax")]).rename({"k": "k2"})
    plan = _kx().join(inner, keys=[("x", "ax")])
    assert "TC102" in refusals(plan)


def test_tc103_stream_stream_join(refusals):
    plan = _kx().join(_kx(), keys=[("k", "k")])
    assert "TC103" in refusals(plan)


def test_tc104_uncertain_group_by(refusals):
    plan = _with_uncertain().aggregate(["ax"], [count("n")])
    assert "TC104" in refusals(plan)


def test_tc105_non_hadamard_aggregate(refusals):
    plan = _kx().aggregate(["k"], [min_("x", "mn")])
    assert "TC105" in refusals(plan)


def test_tc106_distinct_uncertain(refusals):
    plan = _with_uncertain().distinct(["ax"])
    assert "TC106" in refusals(plan)


def test_tc107_non_comparison_uncertain_predicate(refusals):
    pred = Or(col("x") > col("ax"), col("y") > col("ax"))
    plan = _with_uncertain().select(pred)
    assert "TC107" in refusals(plan)


def test_tc107_holds_in_small_segments_as_the_compiler_does(kx_catalog, refusals):
    # A HAVING over an aggregate: the compiler rejects the OR as it does on
    # the stream, under the rule id the typechecker reports.
    plan = _kx().aggregate(["k"], [avg("x", "ax")]).select(Or(col("ax") > 5.0, col("k").eq(1)))
    assert refusals(plan) == {"TC107"}
    with pytest.raises(UnsupportedQueryError) as exc:
        compile_online(plan, kx_catalog, "t")
    assert exc.value.rule_id == "TC107" and exc.value.node is plan


def test_tc108_projection_computes_over_uncertain(refusals):
    plan = _with_uncertain().project([("z", col("ax") * 2.0), ("k", col("k"))])
    assert "TC108" in refusals(plan)


def test_tc109_multi_feature_uncertain_aggregate(refusals):
    plan = _with_uncertain().aggregate([], [stddev("ax", "sd")])
    assert "TC109" in refusals(plan)


def test_tc110_holistic_uncertain_aggregate(refusals):
    udaf = HolisticUDAF("median", lambda values, weights: 0.0)
    plan = _with_uncertain().aggregate([], [AggSpec("md", udaf, col("ax"))])
    assert "TC110" in refusals(plan)


def test_tc111_union_with_aggregate_derived_input(refusals):
    inner = _kx().aggregate(["k"], [avg("x", "x"), avg("y", "y")])
    assert not refusals(_kx().union(_kx()))  # clean
    assert "TC111" in refusals(inner.union(_kx()))


def test_tc112_small_segment_expression_without_a_kernel(kx_catalog, refusals):
    # A projection and an aggregate argument over aggregate outputs run in
    # small segments, whose arithmetic is + - * / only.
    per_k = _kx().aggregate(["k"], [avg("x", "ax")])
    modulo = Arith("%", col("ax"), lit(7.0))
    plan = per_k.project([("k", col("k")), ("m", modulo)])
    assert refusals(plan) == {"TC112"}
    with pytest.raises(UnsupportedQueryError) as exc:
        compile_online(plan, kx_catalog, "t")
    assert exc.value.rule_id == "TC112" and exc.value.node is plan
    assert refusals(per_k.aggregate([], [sum_(modulo, "sm")])) == {"TC112"}
    assert not refusals(per_k.project([("k", col("k")), ("m", col("ax") * 7.0 - 1.0)]))


def test_tc107_stream_side_reading_certain_columns(kx_catalog, refusals):
    # A sentinel re-evaluates a stream comparison's uncertain side from its
    # uncertain cells alone, so that side may read no certain column.
    for pred in (col("ax") - col("x") > 0.0, col("ax") * 0.5 + col("x") > col("y")):
        plan = _with_uncertain().select(pred)
        assert refusals(plan) == {"TC107"}
        with pytest.raises(UnsupportedQueryError) as exc:
            compile_online(plan, kx_catalog, "t")
        assert exc.value.rule_id == "TC107" and exc.value.node is plan
    assert not refusals(_with_uncertain().select(col("ax") * 0.5 > col("x") - col("y")))
    # Small segments keep no sentinels and keep accepting the shape.
    having = _kx().aggregate(["k"], [avg("x", "ax")]).select(col("ax") - col("k") > 0.0)
    assert not refusals(having)


def test_tc113_union_of_inputs_carrying_uncertain_columns(kx_catalog, refusals):
    plan = _with_uncertain().union(_with_uncertain())
    assert refusals(plan) == {"TC113"}
    with pytest.raises(UnsupportedQueryError) as exc:
        compile_online(plan, kx_catalog, "t")
    assert exc.value.rule_id == "TC113" and exc.value.node is plan
    # The repair: union the stream inputs below the join.
    inner = _kx().aggregate([], [avg("x", "ax")])
    assert not refusals(_kx().union(_kx()).join(inner, keys=[]))


def test_every_refusal_is_reported(refusals):
    # One run reports all problems of a plan; the compiler raises the first.
    plan = _with_uncertain().aggregate(["ax"], [min_("x", "mn"), stddev("ax", "sd")])
    assert refusals(plan) == {"TC104", "TC105", "TC109"}


def test_clean_plan_has_no_findings(kx_catalog):
    plan = _with_uncertain().select(col("x") > col("ax")).aggregate(
        ["k"], [sum_("y", "sy")]
    )
    report = check_plan(plan, kx_catalog, "t")
    assert report.ok, report.format()


# ---------------------------------------------------------------------------
# TC3xx: compiled-operator checks on hand-broken pipelines/units.
# ---------------------------------------------------------------------------


def test_tc301_misplaced_uncertain_filter():
    scan_op = ScanOp("t", KX_SCHEMA)
    op = UncertainFilterOp(scan_op, [], [col("x") > lit(5.0)], node_id=901)
    assert "TC301" in _rules_of(check_pipeline(op))


def test_tc302_deterministic_filter_reads_uncertain():
    scan_op = ScanOp("t", KX_SCHEMA)
    scan_op.uncertain_cols.add("x")
    op = FilterOp(scan_op, col("x") > lit(5.0), 1)
    assert "TC302" in _rules_of(check_pipeline(op))


def test_tc302_det_conjunct_in_uncertain_filter():
    scan_op = ScanOp("t", KX_SCHEMA)
    scan_op.uncertain_cols.add("x")
    op = UncertainFilterOp(
        scan_op, [col("x") > lit(1.0)], [col("x") > lit(5.0)], node_id=902
    )
    assert "TC302" in _rules_of(check_pipeline(op))


def test_tc304_nd_declaration_contradiction():
    class BadFilter(FilterOp):
        state_rule = StateRule(frozenset({"nd"}), nd_entry="nd")

    op = BadFilter(ScanOp("t", KX_SCHEMA), col("x") > lit(5.0), 1)
    assert "TC304" in _rules_of(check_pipeline(op))


def test_tc305_aggregate_split_mismatch(kx_catalog):
    plan = _kx().aggregate(["k"], [sum_("x", "sx")])
    compiled = compile_online(plan, kx_catalog, "t")
    agg = next(
        op
        for unit in compiled.units
        if isinstance(unit, StreamPipelineUnit)
        for op in iter_ops(unit.root_op)
        if isinstance(op, AggregateOp)
    )
    assert not _rules_of(check_pipeline(agg))
    agg.lazy_specs.append(agg.sketch_specs.pop())  # misclassify 'sx'
    assert "TC305" in _rules_of(check_pipeline(agg))


def test_tc306_uncertain_cols_outside_schema():
    op = ScanOp("t", KX_SCHEMA)
    op.uncertain_cols.add("no_such_column")
    assert "TC306" in _rules_of(check_pipeline(op))


def test_tc307_tags_diverge_from_inference():
    scan_op = ScanOp("t", KX_SCHEMA)
    scan_op.uncertain_cols.add("x")
    op = UncertainFilterOp(scan_op, [], [col("x") > lit(5.0)], node_id=907)
    inferred = {907: NodeTags(True, frozenset({"x", "y"}), True, True)}
    assert "TC307" in _rules_of(check_pipeline(op, inferred))


class _FakeUnit(ExecutionUnit):
    def __init__(self, label, produces=(), consumes=()):
        self.label = label
        self.produces = frozenset(produces)
        self.consumes = frozenset(consumes)


def test_tc308_duplicate_block_producer():
    units = [_FakeUnit("a", produces={1}), _FakeUnit("b", produces={1})]
    assert "TC308" in _rules_of(check_units(units))


def test_tc309_unproduced_block_consumed():
    units = [_FakeUnit("a", produces={1}, consumes={2})]
    assert "TC309" in _rules_of(check_units(units))


def test_tc310_consumer_before_producer():
    units = [_FakeUnit("b", consumes={1}), _FakeUnit("a", produces={1})]
    assert _rules_of(check_units(units)) == {"TC310"}
    assert not _rules_of(check_units(units[::-1]))


def _nested_units(tpch_catalog):
    spec = TPCH_QUERIES["Q17"]
    units = compile_online(spec.plan, tpch_catalog, spec.streamed_table).units
    assert any(u.consumes for u in units)
    return units


def test_tc310_planted_out_of_order_compiled_units(tpch_catalog):
    units = _nested_units(tpch_catalog)
    assert not _rules_of(check_units(units))
    assert "TC310" in _rules_of(check_units(units[::-1]))


def test_tc311_planted_store_shared_by_two_units(tpch_catalog):
    pipelines = [
        u for u in _nested_units(tpch_catalog) if isinstance(u, StreamPipelineUnit)
    ]
    assert len(pipelines) >= 2
    first, second = pipelines[0].root_op, pipelines[1].root_op
    second.state = first.state
    assert "TC311" in _rules_of(check_units(pipelines))


def test_tc312_gate_outside_group_key(tpch_catalog):
    spec = TPCH_QUERIES["Q18"]
    units = compile_online(spec.plan, tpch_catalog, spec.streamed_table).units
    (agg,) = [
        op
        for unit in units
        if isinstance(unit, StreamPipelineUnit)
        for op in iter_ops(unit.root_op)
        if isinstance(op, AggregateOp) and op.gates
    ]
    assert not _rules_of(check_units(units))
    agg.gates[0] = agg.gates[0]._replace(columns=("quantity",))
    assert "TC312" in _rules_of(check_pipeline(agg))


def test_tc307_cross_checks_deterministic_filter():
    scan_op = ScanOp("t", KX_SCHEMA)
    scan_op.uncertain_cols.add("y")
    op = FilterOp(scan_op, col("x") > lit(5.0), 907)
    assert op.label == "filter:907"
    inferred = {907: NodeTags(False, frozenset(), True, True)}
    assert "TC307" in _rules_of(check_pipeline(op, inferred))


def test_shared_subplan_compiles_to_single_producer(kx_catalog):
    """Regression: an agg-of-agg plan reusing a subquery must not emit two
    units racing to publish the same lineage block (found by TC308)."""
    per_k = _kx().aggregate(["k"], [count("n")])
    overall = per_k.aggregate([], [avg("n", "an")])
    plan = per_k.join(overall, keys=[]).select(col("n") > col("an"))
    compiled = compile_online(plan, kx_catalog, "t")
    produced = [b for unit in compiled.units for b in unit.produces]
    assert len(produced) == len(set(produced))
    assert not _rules_of(check_units(compiled.units))


# ---------------------------------------------------------------------------
# No dead rules: the fixtures above cover the whole catalog.
# ---------------------------------------------------------------------------


def test_rule_catalog_is_fully_exercised():
    import ast
    import pathlib

    source = pathlib.Path(__file__).read_text()
    tree = ast.parse(source)
    asserted: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value in TYPECHECK_RULES:
                asserted.add(node.value)
    assert asserted >= set(TYPECHECK_RULES), (
        f"rules without fixtures: {sorted(set(TYPECHECK_RULES) - asserted)}"
    )
