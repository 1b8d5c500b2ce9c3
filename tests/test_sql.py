"""Tests for the SQL front-end: lexer, parser, planner."""

import numpy as np
import pytest

from repro.baselines import run_batch
from repro.core import OnlineConfig, OnlineQueryEngine
from repro.errors import SQLError
from repro.relational import Catalog, relation_from_columns
from repro.sql import UDF, parse, plan_sql, tokenize
from repro.sql import ast
from tests.conftest import DIM_SCHEMA, random_kx


def catalog():
    dim = relation_from_columns(DIM_SCHEMA, k=list(range(6)), label=list("abcdef"))
    return Catalog({"t": random_kx(800, seed=3, groups=6), "dim": dim})


class TestLexer:
    def test_keywords_case_insensitive(self):
        toks = tokenize("select FROM Where")
        assert [t.value for t in toks[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_identifiers_keep_case(self):
        toks = tokenize("foo Bar_9")
        assert [t.value for t in toks[:-1]] == ["foo", "Bar_9"]

    def test_numbers(self):
        toks = tokenize("1 2.5 1e3 2.5e-2")
        assert [t.value for t in toks[:-1]] == ["1", "2.5", "1e3", "2.5e-2"]

    def test_strings(self):
        toks = tokenize("'hello world'")
        assert toks[0].kind == "string"
        assert toks[0].value == "hello world"

    def test_unterminated_string(self):
        with pytest.raises(SQLError, match="unterminated"):
            tokenize("'oops")

    def test_operators_longest_match(self):
        toks = tokenize("<= <> >=")
        assert [t.value for t in toks[:-1]] == ["<=", "<>", ">="]

    def test_comments_skipped(self):
        toks = tokenize("SELECT -- a comment\n x")
        assert [t.value for t in toks[:-1]] == ["SELECT", "x"]

    def test_bad_character(self):
        with pytest.raises(SQLError, match="unexpected character"):
            tokenize("SELECT @")

    def test_eof_token(self):
        assert tokenize("x")[-1].kind == "eof"


class TestParser:
    def test_simple_select(self):
        stmt = parse("SELECT x, y AS why FROM t")
        assert len(stmt.items) == 2
        assert stmt.items[1].alias == "why"

    def test_table_alias(self):
        stmt = parse("SELECT x FROM t alias1")
        assert stmt.tables[0].binding == "alias1"

    def test_where_precedence(self):
        stmt = parse("SELECT x FROM t WHERE a > 1 AND b < 2 OR c = 3")
        assert isinstance(stmt.where, ast.BoolOp)
        assert stmt.where.op == "OR"

    def test_arith_precedence(self):
        stmt = parse("SELECT a + b * c FROM t")
        expr = stmt.items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_unary_minus(self):
        stmt = parse("SELECT -x FROM t")
        assert stmt.items[0].expr.op == "-"

    def test_group_by_having(self):
        stmt = parse("SELECT k, COUNT(*) FROM t GROUP BY k HAVING COUNT(*) > 3")
        assert [g.name for g in stmt.group_by] == ["k"]
        assert stmt.having is not None

    def test_count_star(self):
        stmt = parse("SELECT COUNT(*) FROM t")
        assert stmt.items[0].expr.star

    def test_scalar_subquery(self):
        stmt = parse("SELECT x FROM t WHERE x > (SELECT AVG(x) FROM t)")
        assert isinstance(stmt.where.right, ast.ScalarSubquery)

    def test_in_subquery(self):
        stmt = parse("SELECT x FROM t WHERE k IN (SELECT k FROM t)")
        assert isinstance(stmt.where, ast.InSubquery)

    def test_not_in_subquery(self):
        stmt = parse("SELECT x FROM t WHERE k NOT IN (SELECT k FROM t)")
        assert stmt.where.negated

    def test_in_list(self):
        stmt = parse("SELECT x FROM t WHERE k IN (1, 2, 3)")
        assert isinstance(stmt.where, ast.InList)
        assert len(stmt.where.values) == 3

    def test_between(self):
        stmt = parse("SELECT x FROM t WHERE x BETWEEN 1 AND 2")
        assert isinstance(stmt.where, ast.Between)

    def test_qualified_columns(self):
        stmt = parse("SELECT t.x FROM t")
        assert stmt.items[0].expr.table == "t"

    def test_explicit_join(self):
        stmt = parse("SELECT x FROM t JOIN dim ON t.k = dim.k")
        assert len(stmt.joins) == 1

    def test_distinct(self):
        assert parse("SELECT DISTINCT k FROM t").distinct

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLError):
            parse("SELECT x FROM t extra ,")
        with pytest.raises(SQLError, match="trailing"):
            parse("SELECT x FROM t GROUP BY k )")

    def test_missing_from_rejected(self):
        with pytest.raises(SQLError):
            parse("SELECT x")


class TestPlanner:
    def run_both(self, sql, cat=None, num_batches=5, udfs=None):
        cat = cat or catalog()
        plan = plan_sql(sql, cat.schemas(), udfs)
        exact = run_batch(plan, cat).relation
        eng = OnlineQueryEngine(cat, "t", OnlineConfig(num_trials=20, seed=2))
        final = eng.run_to_completion(plan, num_batches)
        assert exact.to_multiset(2) == final.to_relation().to_multiset(2)
        return exact

    def test_projection_only(self):
        cat = catalog()
        plan = plan_sql("SELECT x, x * 2 AS dbl FROM t", cat.schemas())
        out = run_batch(plan, cat).relation
        assert out.schema.names == ["x", "dbl"]

    def test_flat_group_by(self):
        out = self.run_both("SELECT k, SUM(y) AS sy, COUNT(*) AS n FROM t GROUP BY k")
        assert len(out) == 6

    def test_where_filters(self):
        out = self.run_both("SELECT COUNT(*) AS n FROM t WHERE x > 20 AND y < 120")
        assert out.row(0)["n"] > 0

    def test_join_via_where_equality(self):
        out = self.run_both(
            "SELECT label, COUNT(*) AS n FROM t, dim WHERE t.k = dim.k GROUP BY label"
        )
        assert len(out) == 6

    def test_explicit_join_syntax(self):
        out = self.run_both(
            "SELECT label, AVG(y) AS ay FROM t JOIN dim ON t.k = dim.k GROUP BY label"
        )
        assert len(out) == 6

    def test_uncorrelated_scalar_subquery(self):
        self.run_both(
            "SELECT AVG(y) AS ay FROM t WHERE x > (SELECT AVG(x) FROM t)"
        )

    def test_correlated_scalar_subquery(self):
        self.run_both(
            "SELECT k, COUNT(*) AS n FROM t "
            "WHERE x > (SELECT AVG(x) FROM t t2 WHERE t2.k = t.k) GROUP BY k"
        )

    def test_subquery_inside_arithmetic(self):
        self.run_both(
            "SELECT COUNT(*) AS n FROM t WHERE x < 0.5 * (SELECT AVG(x) FROM t)"
        )

    def test_in_subquery_with_having(self):
        self.run_both(
            "SELECT k, SUM(y) AS sy FROM t "
            "WHERE k IN (SELECT k FROM t GROUP BY k HAVING SUM(x) > 4000) GROUP BY k"
        )

    def test_having_clause(self):
        self.run_both(
            "SELECT k, COUNT(*) AS n FROM t GROUP BY k HAVING COUNT(*) > 100"
        )

    def test_post_aggregation_arithmetic(self):
        cat = catalog()
        plan = plan_sql("SELECT SUM(x) / 7 AS weekly FROM t", cat.schemas())
        out = run_batch(plan, cat).relation
        manual = run_batch(
            plan_sql("SELECT SUM(x) AS s FROM t", cat.schemas()), cat
        ).relation
        assert out.row(0)["weekly"] == pytest.approx(manual.row(0)["s"] / 7)

    def test_between(self):
        self.run_both("SELECT COUNT(*) AS n FROM t WHERE x BETWEEN 10 AND 30")

    def test_in_list(self):
        self.run_both("SELECT COUNT(*) AS n FROM t WHERE k IN (1, 3, 5)")

    def test_udf(self):
        udfs = {"halve": UDF(lambda v: np.asarray(v) / 2.0, vectorized=True)}
        self.run_both(
            "SELECT k, AVG(halve(x)) AS hx FROM t GROUP BY k", udfs=udfs
        )

    def test_distinct(self):
        cat = catalog()
        plan = plan_sql("SELECT DISTINCT k FROM t", cat.schemas())
        out = run_batch(plan, cat).relation
        assert len(out) == 6

    def test_unknown_table(self):
        with pytest.raises(SQLError, match="unknown table"):
            plan_sql("SELECT x FROM nope", catalog().schemas())

    def test_unknown_column(self):
        with pytest.raises(SQLError, match="unknown column"):
            plan_sql("SELECT zzz FROM t", catalog().schemas())

    def test_unknown_function(self):
        with pytest.raises(SQLError, match="unknown function"):
            plan_sql("SELECT frobnicate(x) FROM t", catalog().schemas())

    def test_not_in_subquery_rejected(self):
        with pytest.raises(SQLError, match="positive algebra"):
            plan_sql(
                "SELECT x FROM t WHERE k NOT IN (SELECT k FROM t)",
                catalog().schemas(),
            )

    def test_scalar_subquery_must_be_single_item(self):
        with pytest.raises(SQLError, match="exactly one"):
            plan_sql(
                "SELECT x FROM t WHERE x > (SELECT x, y FROM t)",
                catalog().schemas(),
            )

    def test_aggregate_in_where_rejected(self):
        with pytest.raises(SQLError):
            plan_sql("SELECT x FROM t WHERE SUM(x) > 1", catalog().schemas())

    def test_self_join_collision_renamed(self):
        cat = catalog()
        plan = plan_sql(
            "SELECT COUNT(*) AS n FROM t a, dim b, dim c "
            "WHERE a.k = b.k AND a.k = c.k",
            cat.schemas(),
        )
        out = run_batch(plan, cat).relation
        assert out.row(0)["n"] == 800
