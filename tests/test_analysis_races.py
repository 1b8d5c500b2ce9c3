"""The plan-level race detector: clean on every bundled query, and every
RACE rule fires on a seeded-race fixture (no dead rules)."""

from __future__ import annotations

import pytest

from repro.analysis import analyze_query_races, check_plan_races
from repro.analysis.races import (
    RACE_RULES,
    check_races,
    class_effects,
    summarize_effects,
)
from repro.core.compiler import ExecutionUnit, compile_online
from repro.core.operators import StateRule
from repro.core.values import LineageRef
from repro.state import InMemoryStateStore
from repro.workloads import (
    CONVIVA_QUERIES,
    TPCH_QUERIES,
    generate_conviva,
    generate_tpch,
)


def _rules_of(diags) -> set[str]:
    return {d.rule_id for d in diags}


@pytest.fixture(scope="module")
def tpch_catalog():
    return generate_tpch(scale=0.05, seed=1).catalog()


@pytest.fixture(scope="module")
def conviva_catalog():
    return generate_conviva(scale=0.05, seed=1).catalog()


# ---------------------------------------------------------------------------
# Acceptance: every bundled workload query race-checks clean: every pair
# of conflicting units is ordered by a declared produces/consumes path.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
def test_tpch_queries_race_free(name, tpch_catalog):
    spec = TPCH_QUERIES[name]
    report = check_plan_races(
        spec.plan, tpch_catalog, spec.streamed_table, subject=name
    )
    assert report.ok, report.format()
    assert not report.diagnostics, report.format()
    assert report.wall_seconds > 0


@pytest.mark.parametrize("name", sorted(CONVIVA_QUERIES))
def test_conviva_queries_race_free(name, conviva_catalog):
    spec = CONVIVA_QUERIES[name]
    report = check_plan_races(
        spec.plan, conviva_catalog, spec.streamed_table, subject=name
    )
    assert report.ok, report.format()
    assert not report.diagnostics, report.format()


def test_analyze_query_races_sql_roundtrip(conviva_catalog):
    report = analyze_query_races(
        "SELECT cdn, COUNT(*) AS n FROM sessions GROUP BY cdn",
        conviva_catalog,
        "sessions",
    )
    assert report.ok, report.format()
    assert not report.diagnostics


# ---------------------------------------------------------------------------
# Effect summaries: plan metadata + the targeted AST walk, resolved
# against live operator instances.
# ---------------------------------------------------------------------------


def test_summary_resolves_uncertain_join_sidecar(tpch_catalog):
    """The join's carried lineage sidecar must surface as a sidecar
    source *and* as a consumed block — that is what keeps it ordered."""
    spec = TPCH_QUERIES["Q17"]  # nested: pipeline -> small -> pipeline
    compiled = compile_online(spec.plan, tpch_catalog, spec.streamed_table)
    joined = [
        (u, summarize_effects(u))
        for u in compiled.units
        if "pipeline" in u.label and summarize_effects(u).sidecar_sources
    ]
    assert joined, "expected at least one pipeline with sidecar sources"
    for unit, summary in joined:
        external = summary.sidecar_sources - unit.produces
        assert external <= unit.consumes


class _SeededOp:
    """Operator with a declared store entry plus an AST-visible put."""

    label = "agg:seeded"
    state_rule = StateRule(entries=("sketch",))

    def __init__(self, store):
        self.state = store

    def process(self, delta, ctx):
        self.state.put("counter", 1)
        return delta


class _CarrierOp:
    """Operator baking a foreign block id into a carried sidecar."""

    label = "carrier:seeded"

    def __init__(self, src_id):
        self.src_id = src_id

    def process(self, delta, ctx):
        return LineageRef(self.src_id, (0,), "v")


class _SeededUnit(ExecutionUnit):
    def __init__(self, label, produces=(), consumes=(), ops=()):
        self.label = label
        self.produces = frozenset(produces)
        self.consumes = frozenset(consumes)
        self.ops = list(ops)


def test_ast_walk_finds_undeclared_state_key():
    effects = class_effects(_SeededOp)
    assert "counter" in effects.state_keys
    store = InMemoryStateStore()
    summary = summarize_effects(_SeededUnit("u", ops=[_SeededOp(store)]))
    assert (id(store), "counter") in summary.store_writes
    assert (id(store), "sketch") in summary.store_writes  # declared rule


def test_ast_walk_finds_sidecar_source():
    assert "src_id" in class_effects(_CarrierOp).sidecar_attrs
    summary = summarize_effects(_SeededUnit("u", ops=[_CarrierOp(42)]))
    assert summary.sidecar_sources == {42}


# ---------------------------------------------------------------------------
# Seeded races: one fixture per rule.
# ---------------------------------------------------------------------------


def test_race101_cross_wave_unordered_store():
    store = InMemoryStateStore()
    a = _SeededUnit("pipeline:a", produces={1}, ops=[_SeededOp(store)])
    b = _SeededUnit("pipeline:b", produces={2})
    c = _SeededUnit("small:c", consumes={2}, ops=[_SeededOp(store)])
    # c is ordered after b, but shares a's store with no produce/consume
    # path between a and c: only unit order keeps a first.
    diags = check_races([a, b, c])
    assert _rules_of(diags) == {"RACE101"}
    assert all(d.severity == "warning" for d in diags)
    assert "no produce/consume path" in diags[0].message
    assert "(unit 0)" in diags[0].message and "(unit 2)" in diags[0].message
    assert diags[0].hint


def test_race101_silent_when_path_exists():
    store = InMemoryStateStore()
    a = _SeededUnit("pipeline:a", produces={1}, ops=[_SeededOp(store)])
    c = _SeededUnit("small:c", consumes={1}, ops=[_SeededOp(store)])
    assert check_races([a, c]) == []


def test_race201_unordered_sidecar_republish():
    producer = _SeededUnit("pipeline:prod", produces={7})
    carrier = _SeededUnit(
        "pipeline:carrier", produces={8}, ops=[_CarrierOp(7)]
    )
    diags = check_races([producer, carrier])
    assert _rules_of(diags) == {"RACE201"}
    diag = diags[0]
    assert diag.severity == "error"
    assert "block 7" in diag.message and "pipeline:prod" in diag.message
    assert diag.hint


def test_race201_silent_when_sidecar_block_consumed():
    producer = _SeededUnit("pipeline:prod", produces={7})
    carrier = _SeededUnit(
        "pipeline:carrier", produces={8}, consumes={7}, ops=[_CarrierOp(7)]
    )
    assert check_races([producer, carrier]) == []


def test_race000_bad_sql_is_warning(conviva_catalog):
    report = analyze_query_races(
        "FROBNICATE everything", conviva_catalog, "sessions"
    )
    assert _rules_of(report.diagnostics) == {"RACE000"}
    assert report.ok  # warning severity: exit 0 without --fail-on-warning
    assert report.diagnostics[0].severity == "warning"


def test_race000_uncompilable_plan_is_warning(conviva_catalog):
    report = analyze_query_races(
        "SELECT cdn, MEDIAN(play_time) AS m FROM sessions "
        "WHERE play_time > (SELECT AVG(play_time) FROM sessions) "
        "GROUP BY cdn",
        conviva_catalog,
        "sessions",
    )
    # Whether this plans or compiles, race analysis must degrade to a
    # warning rather than raise when the online compiler rejects it.
    if report.diagnostics:
        assert _rules_of(report.diagnostics) <= {"RACE000"}
        assert report.ok


# ---------------------------------------------------------------------------
# No dead rules: the fixtures above cover the whole catalog.
# ---------------------------------------------------------------------------


def test_rule_catalog_is_fully_exercised():
    import ast
    import pathlib

    source = pathlib.Path(__file__).read_text()
    asserted = {
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value in RACE_RULES
    }
    assert asserted >= set(RACE_RULES), (
        f"rules without fixtures: {sorted(set(RACE_RULES) - asserted)}"
    )
