"""Final answers against SQLite, an oracle that shares no code with the engines.

``run_batch`` joins through the online engine's own kernel, so the
Theorem-1 check "the final batch equals the batch engine" cannot catch a
bug the two share. Here both ``run_batch`` and the online engine's final
partial of every workload query must equal SQLite's answer
(``tests/sqlite_oracle.py``) at rel 1e-9; the plan printer covers every
plan node and expression kind; and each printed flat query, parsed back
by ``repro.sql``, must give the plan factory's answer.

Run as a script to check the 22 queries at another scale (CI runs 2)::

    PYTHONPATH=src python -m tests.test_sqlite_oracle 2
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from repro.baselines import run_batch
from repro.core import OnlineConfig, OnlineQueryEngine
from repro.errors import SQLError
from repro.relational import (
    Catalog,
    avg,
    col,
    count,
    lit,
    max_,
    min_,
    relation_from_columns,
    scan,
    stddev,
    sum_,
)
from repro.relational.aggregates import geomean, median, quantile, var
from repro.relational.expressions import Arith, Func
from repro.sql import plan_sql
from repro.workloads import CONVIVA_QUERIES, TPCH_QUERIES, generate_conviva, generate_tpch
from tests.conftest import DIM_SCHEMA, KX_SCHEMA
from tests.sqlite_oracle import SQLiteOracle, mismatch, rows_of

SCALE = 0.5
WORKLOADS = {
    "tpch": (generate_tpch, TPCH_QUERIES),
    "conviva": (generate_conviva, CONVIVA_QUERIES),
}
QUERIES = {
    name: (workload, spec)
    for workload, (_, queries) in WORKLOADS.items()
    for name, spec in queries.items()
}
#: A nested query prints its inner blocks as FROM-clause subqueries,
#: which the ``repro.sql`` grammar does not have.
NESTED = sorted(name for name, (_, spec) in QUERIES.items() if spec.nested)
FLAT = sorted(set(QUERIES) - set(NESTED))


def check_query(spec, catalog, oracle) -> list[str]:
    """How ``run_batch``'s result and the online final differ from SQLite."""
    want = oracle.query(spec.plan)
    engine = OnlineQueryEngine(
        catalog, spec.streamed_table, OnlineConfig(num_trials=10, seed=3)
    )
    answers = {
        "run_batch": run_batch(spec.plan, catalog).relation,
        "online final": engine.run_to_completion(spec.plan, 5).to_relation(),
    }
    problems = [(side, mismatch(rows_of(rel), want)) for side, rel in answers.items()]
    return [f"{side}: {problem}" for side, problem in problems if problem]


@pytest.fixture(scope="module")
def loaded():
    """Per workload: the scale-0.5 catalog and SQLite loaded with it."""
    out = {}
    for workload, (generate, _) in WORKLOADS.items():
        catalog = generate(scale=SCALE, seed=42).catalog()
        out[workload] = (catalog, SQLiteOracle(catalog))
    return out


@pytest.mark.parametrize("name", list(QUERIES))
def test_batch_and_online_final_equal_sqlite(name, loaded):
    workload, spec = QUERIES[name]
    assert check_query(spec, *loaded[workload]) == []


@pytest.mark.parametrize("name", FLAT)
def test_printed_flat_query_plans_back_to_the_same_answer(name, loaded):
    workload, spec = QUERIES[name]
    catalog, oracle = loaded[workload]
    parsed = plan_sql(oracle.to_sql(spec.plan), catalog.schemas())
    got, exact = run_batch(parsed, catalog).relation, run_batch(spec.plan, catalog).relation
    assert got.schema.names == exact.schema.names
    assert mismatch(rows_of(got), rows_of(exact)) is None


@pytest.mark.parametrize("name", NESTED)
def test_printed_nested_query_is_refused_by_the_sql_front_end(name, loaded):
    workload, spec = QUERIES[name]
    catalog, oracle = loaded[workload]
    with pytest.raises(SQLError, match="expected identifier"):
        plan_sql(oracle.to_sql(spec.plan), catalog.schemas())


class TestPrinter:
    """Plans over a small catalog that reach the node and expression
    kinds and the aggregates the workload queries leave out."""

    @pytest.fixture(scope="class")
    def catalog(self):
        rng = np.random.default_rng(5)
        n = 300
        t = relation_from_columns(
            KX_SCHEMA,
            k=rng.integers(0, 6, n),
            x=np.round(rng.gamma(3.0, 4.0, n), 3),
            y=np.round(rng.normal(50.0, 15.0, n), 3),
        )
        dim = relation_from_columns(DIM_SCHEMA, k=list(range(5)), label=list("abcab"))
        return Catalog({"t": t, "dim": dim})

    def assert_equals_sqlite(self, plan, catalog):
        want = SQLiteOracle(catalog).query(plan)
        assert want, "an empty answer checks nothing"
        assert mismatch(rows_of(run_batch(plan, catalog).relation), want) is None

    def test_union_rename_distinct(self, catalog):
        big = scan("t", KX_SCHEMA).select(col("x") > 15.0)
        small = scan("t", KX_SCHEMA).select(~(col("x") > 3.0))
        plan = big.union(small).rename({"k": "kk"}).distinct(["kk"])
        self.assert_equals_sqlite(plan, catalog)

    def test_expressions(self, catalog):
        half = Func("half", lambda v: v / 2.0, [col("x")])
        plan = (
            scan("t", KX_SCHEMA)
            .join(scan("dim", DIM_SCHEMA), keys=["k"])
            .select(
                (~col("label").isin(["a", "c"]) | (Arith("%", col("x"), lit(4.0)) > 1.5))
                & (col("y") > 20.0)
            )
            .project(
                [
                    ("k", "k"),
                    ("label", "label"),
                    ("ratio", col("y") / (col("k") + 1)),
                    ("kmod", Arith("%", col("k"), lit(2))),
                    ("half", half),
                    ("big", col("x") > 10.0),
                    ("one", lit(1)),
                    ("yes", lit(True)),
                    ("named", col("label").eq("b")),
                ]
            )
        )
        self.assert_equals_sqlite(plan, catalog)

    def test_aggregates(self, catalog):
        plan = scan("t", KX_SCHEMA).aggregate(
            ["k"],
            [
                count("n"),
                sum_("x", "sx"),
                avg("y", "ay"),
                min_("y", "mn"),
                max_("y", "mx"),
                var("x", "vx"),
                stddev("y", "sy"),
                geomean("x", "gx"),
                median("y", "md"),
                quantile(0.9, "x", "p90x"),
            ],
        )
        self.assert_equals_sqlite(plan, catalog)

    def test_fan_out_join(self, catalog):
        """Every keyed join of the workload has unique keys on one side;
        this one matches each row with every row of its key."""
        other = scan("t", KX_SCHEMA).rename({"k": "k2", "x": "x2", "y": "y2"})
        plan = (
            scan("t", KX_SCHEMA)
            .join(other, keys=[("k", "k2")])
            .aggregate(["k"], [count("pairs"), sum_(col("x") * col("x2"), "sxx")])
        )
        self.assert_equals_sqlite(plan, catalog)

    def test_filter_over_a_scalar_aggregate_of_an_aggregate(self, catalog):
        per_k = scan("t", KX_SCHEMA).aggregate(["k"], [avg("x", "ax")])
        plan = (
            per_k.aggregate([], [stddev("ax", "spread"), count("groups")])
            .select(col("groups") > 1)
            .project([("spread2", col("spread") * 2.0)])
        )
        self.assert_equals_sqlite(plan, catalog)

    def test_a_wrong_answer_is_reported(self, catalog):
        plan = scan("t", KX_SCHEMA).aggregate(["k"], [sum_("x", "sx")])
        want = SQLiteOracle(catalog).query(plan)
        off = [(k, sx * (1 + 1e-8)) for k, sx in want]
        assert "!= SQLite's" in mismatch(off, want)
        assert "rows != SQLite's" in mismatch(off[1:], want)
        assert mismatch([(k, math.nan) for k, _ in want], want) is not None

    def test_a_weighted_catalog_is_refused(self, catalog):
        with pytest.raises(ValueError, match="unit multiplicity"):
            SQLiteOracle(Catalog({"t": catalog.get("t").scale(2.0)}))


def main(argv: list[str]) -> int:
    scale = float(argv[1]) if len(argv) > 1 else SCALE
    differ = 0
    for generate, queries in WORKLOADS.values():
        catalog = generate(scale=scale, seed=42).catalog()
        oracle = SQLiteOracle(catalog)
        for name, spec in queries.items():
            problems = check_query(spec, catalog, oracle)
            differ += bool(problems)
            print(f"{name}: {'; '.join(problems) or 'equals SQLite'}")
    print(f"scale {scale}: {differ} of {len(QUERIES)} queries differ from SQLite")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
