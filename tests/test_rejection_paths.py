"""Every ``UnsupportedQueryError`` rejection path, one test per raise site.

The contract under test: rejected queries fail *at compile time* with a
message that names the unsupported construct (so the user can rewrite the
query), and plan-level rejections carry the offending plan node and their
rule id.
"""

import pytest

from repro.core.compiler import ExecutionUnit, OnlineCompiler, compile_online
from repro.errors import UnsupportedQueryError
from repro.relational import (
    AggSpec,
    Catalog,
    HolisticUDAF,
    avg,
    col,
    count,
    min_,
    scan,
    stddev,
)
from repro.relational.algebra import PlanNode
from repro.analysis.typecheck import check_plan
from repro.relational.expressions import Arith, Func, Literal, Or
from repro.sql import plan_sql
from tests.conftest import KX_SCHEMA, random_kx


@pytest.fixture(scope="module")
def catalog():
    return Catalog({"t": random_kx(200, seed=0, groups=4)})


def _kx():
    return scan("t", KX_SCHEMA)


def _with_uncertain():
    """Stream joined with its own aggregate: column ``ax`` is uncertain."""
    inner = _kx().aggregate([], [avg("x", "ax")])
    return _kx().join(inner, keys=[])


def _compile(plan, catalog):
    return compile_online(plan, catalog, "t")


class Exotic(PlanNode):
    """A plan node type neither the analyzer nor the compiler knows."""

    def base_tables(self):
        return {"t"}


# -- the Section 3.3 supported-class fence -----------------------------------------


def test_uncertain_join_key_rejected(catalog):
    right = _kx().aggregate([], [avg("x", "k2")])
    plan = _with_uncertain().join(right, keys=[("ax", "k2")])
    with pytest.raises(UnsupportedQueryError, match="join key 'ax'='k2'") as exc:
        _compile(plan, catalog)
    assert exc.value.node is plan and exc.value.rule_id == "TC102"


def test_stream_stream_join_rejected(catalog):
    plan = _kx().join(_kx(), keys=[("k", "k")])
    with pytest.raises(
        UnsupportedQueryError, match="both join inputs stream"
    ) as exc:
        _compile(plan, catalog)
    assert exc.value.node is plan and exc.value.rule_id == "TC103"


def test_uncertain_group_by_key_rejected(catalog):
    plan = _with_uncertain().aggregate(["ax"], [count("n")])
    with pytest.raises(UnsupportedQueryError, match="group-by key 'ax'") as exc:
        _compile(plan, catalog)
    assert exc.value.node is plan and exc.value.rule_id == "TC104"


def test_non_hadamard_aggregate_rejected(catalog):
    plan = _kx().aggregate([], [min_("x", "mn")])
    with pytest.raises(
        UnsupportedQueryError, match="MIN is not Hadamard"
    ) as exc:
        _compile(plan, catalog)
    assert exc.value.node is plan and exc.value.rule_id == "TC105"


def test_distinct_over_uncertain_column_rejected(catalog):
    plan = _with_uncertain().distinct(["ax"])
    with pytest.raises(
        UnsupportedQueryError, match="distinct over uncertain column 'ax'"
    ) as exc:
        _compile(plan, catalog)
    assert exc.value.node is plan and exc.value.rule_id == "TC106"


def test_unknown_node_rejected_by_analyzer(catalog):
    with pytest.raises(
        UnsupportedQueryError, match="cannot analyze node Exotic"
    ) as exc:
        _compile(Exotic(), catalog)
    assert type(exc.value.node) is Exotic and exc.value.rule_id == "TC101"


# -- online-rewrite limitations -----------------------------------------------------


def test_unknown_node_rejected_by_compiler(catalog):
    # The analyzer fences unknown nodes first, so reach the compiler's own
    # guard directly: a node the tag pass accepted but no handler compiles.
    compiler = OnlineCompiler(_kx().aggregate([], [avg("x", "ax")]), catalog, "t")
    exotic = Exotic()
    with pytest.raises(
        UnsupportedQueryError, match="cannot compile node Exotic"
    ) as exc:
        compiler._compile(exotic)
    assert exc.value.node is exotic and exc.value.rule_id is None


def test_compound_uncertain_predicate_rejected(catalog):
    plan = _with_uncertain().select(
        Or(col("x") > col("ax"), col("y") > col("ax"))
    )
    with pytest.raises(
        UnsupportedQueryError, match="simple comparison"
    ) as exc:
        _compile(plan, catalog)
    assert exc.value.node is plan and exc.value.rule_id == "TC107"


def _having(predicate):
    """A HAVING view over the stream's per-``k`` average ``ax``."""
    return _kx().aggregate(["k"], [avg("x", "ax")]).select(predicate)


def test_compound_uncertain_having_rejected(catalog):
    # Decided by its point estimate as if stable, it would collapse the
    # per-trial membership of every group.
    plan = _having(Or(col("ax") > 25.0, col("ax") < 0.0))
    with pytest.raises(UnsupportedQueryError, match="simple comparison") as exc:
        _compile(plan, catalog)
    assert exc.value.node is plan and exc.value.rule_id == "TC107"


def test_compound_uncertain_in_subquery_rejected(catalog):
    # As a semi-join side the point decision was taken as stable and a
    # later flip of it ended the run with a RangeIntegrityError.
    inner = _having(Or(col("ax") > 25.0, col("ax") < 0.0)).project([("k", "k")])
    plan = _kx().join(inner.rename({"k": "k2"}), keys=[("k", "k2")])
    with pytest.raises(UnsupportedQueryError, match="simple comparison") as exc:
        _compile(plan.aggregate([], [count("n")]), catalog)
    assert exc.value.node is inner.child and exc.value.rule_id == "TC107"


def test_udf_over_uncertain_comparison_side_rejected(catalog):
    # Applied to the point estimate, the UDF gave a zero-width range and a
    # later flip of a pruned decision ended the run.
    dbl = Func("dbl", lambda v: v * 2.0, [col("ax")])
    plan = _with_uncertain().select(col("x") > dbl)
    with pytest.raises(UnsupportedQueryError, match="dbl.* beyond \\+ - \\* /") as exc:
        _compile(plan, catalog)
    assert exc.value.node.node_id == plan.node_id and exc.value.rule_id == "TC107"
    assert "TC107" in check_plan(plan, catalog, "t").rule_ids()


def test_modulo_over_uncertain_comparison_side_rejected(catalog):
    # UncertainValue has no %, so the run raised a TypeError at batch 1.
    plan = _with_uncertain().select(col("x") > Arith("%", col("ax"), Literal(3.0)))
    with pytest.raises(UnsupportedQueryError, match="% lit\\(3.0\\)") as exc:
        _compile(plan, catalog)
    assert exc.value.node.node_id == plan.node_id and exc.value.rule_id == "TC107"


def test_udf_on_the_deterministic_side_still_compiles(catalog):
    half = Func("half", lambda v: v / 2.0, [col("x")])
    _compile(_with_uncertain().select(half > col("ax") * 2.0), catalog)


def test_deterministic_compound_having_still_runs(catalog):
    from repro.baselines import run_batch
    from repro.core import OnlineConfig, OnlineQueryEngine
    from repro.relational.expressions import Func

    odd = Func("odd", lambda k: k % 2 == 1, [col("k")])
    plan = _having(Or(col("k").eq(0), odd) & (col("ax") > 0.0))
    engine = OnlineQueryEngine(catalog, "t", OnlineConfig(num_trials=10))
    final = engine.run_to_completion(plan, 4)
    want = run_batch(plan, catalog).relation.column("k").tolist()
    assert sorted(r["k"] for r in final.to_plain_rows()) == sorted(want)


def test_union_of_aggregate_derived_inputs_rejected(catalog):
    left = _kx().aggregate([], [avg("x", "v")])
    right = _kx().aggregate([], [avg("y", "v")])
    plan = left.union(right)
    with pytest.raises(
        UnsupportedQueryError, match="UNION between aggregate-derived"
    ) as exc:
        _compile(plan, catalog)
    assert exc.value.node is plan and exc.value.rule_id == "TC111"


def test_union_of_inputs_carrying_uncertain_columns_rejected(catalog):
    # Each input attaches ``ax`` from its own block: one column could not
    # say which block its gids index.
    plan = _with_uncertain().union(_with_uncertain())
    with pytest.raises(UnsupportedQueryError, match="UNION input carries uncertain") as exc:
        _compile(plan, catalog)
    assert exc.value.node is plan and exc.value.rule_id == "TC113"
    assert "TC113" in check_plan(plan, catalog, "t").rule_ids()


@pytest.mark.parametrize("pred", [
    col("ax") - col("x") > 0.0,
    col("ax") * 0.5 + col("x") > col("y"),
], ids=["difference", "sum"])
def test_stream_comparison_side_reading_certain_columns_rejected(catalog, pred):
    # The sentinel check re-evaluated this side from the entity's
    # uncertain cells alone and crashed on the missing certain column.
    plan = _with_uncertain().select(pred).aggregate([], [count("n")])
    with pytest.raises(UnsupportedQueryError, match="beside uncertain ones") as exc:
        _compile(plan, catalog)
    assert exc.value.node is plan.child and exc.value.rule_id == "TC107"


def test_abstract_execution_unit_rejected_at_runtime():
    class Bare(ExecutionUnit):
        label = "bare:unit"

    with pytest.raises(
        UnsupportedQueryError, match="'bare:unit' has no runnable implementation"
    ):
        Bare().run(None)


# -- shapes the operators cannot maintain incrementally ---------------------------


def test_computed_projection_over_uncertain_column_rejected(catalog):
    plan = _with_uncertain().project(
        [("z", col("ax") * 2.0), ("k", col("k"))]
    )
    with pytest.raises(UnsupportedQueryError, match="'z' computes over uncertain") as exc:
        _compile(plan, catalog)
    assert exc.value.node is plan and exc.value.rule_id == "TC108"


def test_holistic_udaf_over_uncertain_argument_rejected(catalog):
    udaf = HolisticUDAF("median", lambda values, weights: 0.0)
    plan = _with_uncertain().aggregate([], [AggSpec("md", udaf, col("ax"))])
    with pytest.raises(
        UnsupportedQueryError, match="holistic UDAF over an .*uncertain argument"
    ) as exc:
        _compile(plan, catalog)
    assert exc.value.node is plan and exc.value.rule_id == "TC110"


def test_multi_feature_aggregate_over_uncertain_argument_rejected(catalog):
    plan = _with_uncertain().aggregate([], [stddev("ax", "sd")])
    with pytest.raises(
        UnsupportedQueryError, match="requires a single identity feature"
    ) as exc:
        _compile(plan, catalog)
    assert exc.value.node is plan and exc.value.rule_id == "TC109"


# -- end to end: SQL in, named construct out --------------------------------------


def test_sql_query_rejected_with_named_construct(catalog):
    plan = plan_sql("SELECT MIN(x) AS mn FROM t", catalog.schemas())
    with pytest.raises(UnsupportedQueryError, match="MIN is not Hadamard") as exc:
        _compile(plan, catalog)
    assert type(exc.value.node).__name__ == "Aggregate" and exc.value.rule_id == "TC105"
