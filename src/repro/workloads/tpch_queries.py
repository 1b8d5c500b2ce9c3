"""The TPC-H query subset used by the paper's evaluation (Section 8).

The paper uses "all the queries with nested subqueries structures (Q11,
Q17, Q18, Q20, Q22), and a representative subset of the rest which are
all simple SPJA queries" (Q1, Q3, Q5, Q6, Q7). Queries are expressed as
logical plans over the denormalized schema of :mod:`repro.workloads.tpch`.

Adaptations (documented per DESIGN.md §2):

* Q20's inner subquery originally aggregates ``lineitem`` while streaming
  ``partsupp``. To preserve the nested-uncertainty structure with a single
  streamed relation, the inner aggregate is the per-part average
  ``availqty`` over the streamed ``partsupp`` itself.
* Q22 drops the ``NOT EXISTS`` anti-join (set difference is outside the
  positive algebra the engine supports, Section 3.3) and keeps the nested
  scalar average over positive account balances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.relational.aggregates import avg, count, sum_
from repro.relational.algebra import PlanNode, scan
from repro.relational.expressions import col
from repro.workloads.tpch import (
    CUSTOMER_SCHEMA,
    LINEORDER_SCHEMA,
    NATION_SCHEMA,
    PART_SCHEMA,
    PARTSUPP_SCHEMA,
    SUPPLIER_SCHEMA,
)


@dataclass(frozen=True)
class QuerySpec:
    """One benchmark query: a plan factory plus run configuration."""

    name: str
    build: Callable[[], PlanNode]
    streamed_table: str
    #: Has nested aggregate subqueries (the class where iOLAP's delta
    #: algorithm beats classical rules).
    nested: bool
    description: str

    @property
    def plan(self) -> PlanNode:
        return self.build()


def _lineorder() -> PlanNode:
    return scan("lineorder", LINEORDER_SCHEMA)


def _customer() -> PlanNode:
    return scan("customer", CUSTOMER_SCHEMA)


def _supplier() -> PlanNode:
    return scan("supplier", SUPPLIER_SCHEMA)


def _nation() -> PlanNode:
    return scan("nation", NATION_SCHEMA)


def _part() -> PlanNode:
    return scan("part", PART_SCHEMA)


def _partsupp() -> PlanNode:
    return scan("partsupp", PARTSUPP_SCHEMA)


def q1() -> PlanNode:
    """Pricing summary report (flat aggregate)."""
    return (
        _lineorder()
        .select(col("shipdate") <= 2300)
        .aggregate(
            ["returnflag", "linestatus"],
            [
                sum_("quantity", "sum_qty"),
                sum_("extendedprice", "sum_base_price"),
                sum_(col("extendedprice") * (1 - col("discount")), "sum_disc_price"),
                sum_(
                    col("extendedprice") * (1 - col("discount")) * (1 + col("tax")),
                    "sum_charge",
                ),
                avg("quantity", "avg_qty"),
                avg("extendedprice", "avg_price"),
                avg("discount", "avg_disc"),
                count("count_order"),
            ],
        )
    )


def q3() -> PlanNode:
    """Shipping priority (SPJA with a dimension join)."""
    return (
        _lineorder()
        .select((col("orderdate") < 1200) & (col("shipdate") > 1200))
        .join(_customer().select(col("mktsegment").eq("BUILDING")), keys=["custkey"])
        .aggregate(
            ["orderkey", "orderdate", "shippriority"],
            [sum_(col("extendedprice") * (1 - col("discount")), "revenue")],
        )
    )


def q5() -> PlanNode:
    """Local supplier volume (multi-dimension join)."""
    return (
        _lineorder()
        .select((col("orderdate") >= 400) & (col("orderdate") < 800))
        .join(_customer(), keys=["custkey"])
        .join(_supplier(), keys=["suppkey"])
        .select(col("c_nationkey").eq(col("s_nationkey")))
        .join(_nation(), keys=[("c_nationkey", "nationkey")])
        .aggregate(
            ["n_name"],
            [sum_(col("extendedprice") * (1 - col("discount")), "revenue")],
        )
    )


def q6() -> PlanNode:
    """Forecasting revenue change (flat scalar aggregate)."""
    return (
        _lineorder()
        .select(
            (col("shipdate") >= 365)
            & (col("shipdate") < 730)
            & (col("discount") >= 0.05)
            & (col("discount") <= 0.07)
            & (col("quantity") < 24.0)
        )
        .aggregate([], [sum_(col("extendedprice") * col("discount"), "revenue")])
    )


def q7() -> PlanNode:
    """Volume shipping between two nations."""
    france = _nation().rename({"nationkey": "c_nk", "n_name": "cust_nation", "regionkey": "c_rk"})
    germany = _nation().rename({"nationkey": "s_nk", "n_name": "supp_nation", "regionkey": "s_rk"})
    return (
        _lineorder()
        .select((col("shipdate") >= 365) & (col("shipdate") <= 1095))
        .join(_customer(), keys=["custkey"])
        .join(_supplier(), keys=["suppkey"])
        .join(france, keys=[("c_nationkey", "c_nk")])
        .join(germany, keys=[("s_nationkey", "s_nk")])
        .select(
            (col("cust_nation").eq("FRANCE") & col("supp_nation").eq("GERMANY"))
            | (col("cust_nation").eq("GERMANY") & col("supp_nation").eq("FRANCE"))
        )
        .project(
            [
                ("cust_nation", "cust_nation"),
                ("supp_nation", "supp_nation"),
                ("shipyear", col("shipdate") / 365),
                ("volume", col("extendedprice") * (1 - col("discount"))),
            ]
        )
        .aggregate(["cust_nation", "supp_nation"], [sum_("volume", "revenue")])
    )


def q11() -> PlanNode:
    """Important stock identification (nested scalar aggregate over the
    same streamed relation; HAVING-style comparison of two aggregates)."""
    value_by_part = _partsupp().aggregate(
        ["partkey"], [sum_(col("supplycost") * col("availqty"), "value")]
    )
    total = _partsupp().aggregate(
        [], [sum_(col("supplycost") * col("availqty"), "total_value")]
    )
    return (
        value_by_part.join(total, keys=[])
        .select(col("value") > col("total_value") * 0.012)
        .project([("partkey", "partkey"), ("value", "value")])
    )


def q17() -> PlanNode:
    """Small-quantity-order revenue (correlated nested aggregate)."""
    avg_qty = _lineorder().aggregate(["partkey"], [avg("quantity", "avg_qty")])
    return (
        _lineorder()
        .join(
            _part().select(
                col("brand").eq("Brand#23") | col("container").eq("MED BOX")
            ),
            keys=["partkey"],
        )
        .join(avg_qty.rename({"partkey": "pk2"}), keys=[("partkey", "pk2")])
        .select(col("quantity") < col("avg_qty") * 0.7)
        .aggregate([], [sum_("extendedprice", "total_price")])
        .project([("avg_yearly", col("total_price") / 7.0)])
    )


def q18() -> PlanNode:
    """Large-volume customers (IN-subquery with HAVING → semi-join)."""
    big_orders = (
        _lineorder()
        .aggregate(["orderkey"], [sum_("quantity", "total_qty")])
        .select(col("total_qty") > 7500.0)
        .project([("orderkey", "orderkey")])
    )
    return (
        _lineorder()
        .join(big_orders.rename({"orderkey": "ok2"}), keys=[("orderkey", "ok2")])
        .join(_customer(), keys=["custkey"])
        .aggregate(["custkey", "orderkey"], [sum_("quantity", "sum_qty")])
    )


def q20() -> PlanNode:
    """Potential part promotion (correlated nested aggregate; adapted to
    keep the inner aggregate over the streamed partsupp — see module
    docstring)."""
    avg_avail = _partsupp().aggregate(["partkey"], [avg("availqty", "avg_avail")])
    return (
        _partsupp()
        .join(avg_avail.rename({"partkey": "pk2"}), keys=[("partkey", "pk2")])
        .select(col("availqty") > col("avg_avail") * 1.5)
        .join(_supplier(), keys=["suppkey"])
        .join(_nation(), keys=[("s_nationkey", "nationkey")])
        .aggregate(["n_name"], [count("promo_suppliers")])
    )


def q22() -> PlanNode:
    """Global sales opportunity (nested scalar average; anti-join dropped —
    see module docstring)."""
    positive_avg = (
        _customer()
        .select(col("acctbal") > 0.0)
        .aggregate([], [avg("acctbal", "avg_bal")])
    )
    return (
        _customer()
        .select(col("phonecc").isin([13, 17, 18, 23, 29, 30, 31]))
        .join(positive_avg, keys=[])
        .select(col("acctbal") > col("avg_bal"))
        .aggregate(["phonecc"], [count("numcust"), sum_("acctbal", "totacctbal")])
    )


TPCH_QUERIES: dict[str, QuerySpec] = {
    "Q1": QuerySpec("Q1", q1, "lineorder", False, "pricing summary (flat)"),
    "Q3": QuerySpec("Q3", q3, "lineorder", False, "shipping priority (SPJA)"),
    "Q5": QuerySpec("Q5", q5, "lineorder", False, "local supplier volume (SPJA)"),
    "Q6": QuerySpec("Q6", q6, "lineorder", False, "revenue change (flat)"),
    "Q7": QuerySpec("Q7", q7, "lineorder", False, "volume shipping (SPJA)"),
    "Q11": QuerySpec("Q11", q11, "partsupp", True, "important stock (nested)"),
    "Q17": QuerySpec("Q17", q17, "lineorder", True, "small-quantity revenue (nested)"),
    "Q18": QuerySpec("Q18", q18, "lineorder", True, "large-volume customers (nested)"),
    "Q20": QuerySpec("Q20", q20, "partsupp", True, "part promotion (nested)"),
    "Q22": QuerySpec("Q22", q22, "customer", True, "sales opportunity (nested)"),
}
