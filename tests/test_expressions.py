"""Unit tests for the expression AST (vector and per-row evaluation)."""

import pytest

from repro.errors import ExpressionError
from repro.relational import ColumnType, Schema, col, lit, relation_from_columns
from repro.relational.expressions import (
    And,
    Arith,
    Comparison,
    Func,
    Literal,
    conjoin,
    conjuncts,
    is_uncertain,
    lift,
    point,
    walk,
)

S = Schema([("x", ColumnType.FLOAT), ("y", ColumnType.FLOAT), ("s", ColumnType.STRING)])
REL = relation_from_columns(S, x=[1.0, 2.0, 3.0], y=[3.0, 2.0, 1.0], s=["a", "b", "a"])


class TestCol:
    def test_vector_eval(self):
        assert list(col("x").evaluate(REL)) == [1.0, 2.0, 3.0]

    def test_row_eval(self):
        assert col("x").evaluate_row({"x": 7.0}) == 7.0

    def test_row_eval_missing(self):
        with pytest.raises(ExpressionError, match="no column"):
            col("z").evaluate_row({"x": 1.0})

    def test_attrs(self):
        assert col("x").attrs() == {"x"}

    def test_output_type(self):
        assert col("s").output_type(S) is ColumnType.STRING


class TestLiteral:
    def test_vector_broadcast(self):
        assert list(lit(5).evaluate(REL)) == [5, 5, 5]

    def test_row(self):
        assert lit("q").evaluate_row({}) == "q"

    def test_attrs_empty(self):
        assert lit(1).attrs() == set()

    @pytest.mark.parametrize(
        "value,ctype",
        [
            (1, ColumnType.INT),
            (1.5, ColumnType.FLOAT),
            ("a", ColumnType.STRING),
            (True, ColumnType.BOOL),
        ],
    )
    def test_output_types(self, value, ctype):
        assert lit(value).output_type(S) is ctype

    def test_unsupported_literal_type(self):
        with pytest.raises(ExpressionError):
            lit([1, 2]).output_type(S)

    def test_lift_passthrough(self):
        expr = col("x")
        assert lift(expr) is expr

    def test_lift_wraps_scalar(self):
        assert isinstance(lift(3), Literal)


class TestArith:
    def test_add(self):
        assert list((col("x") + col("y")).evaluate(REL)) == [4.0, 4.0, 4.0]

    def test_sub(self):
        assert list((col("x") - 1).evaluate(REL)) == [0.0, 1.0, 2.0]

    def test_mul(self):
        assert list((2 * col("x")).evaluate(REL)) == [2.0, 4.0, 6.0]

    def test_div_promotes_to_float(self):
        out = (col("x") / 2).evaluate(REL)
        assert list(out) == [0.5, 1.0, 1.5]

    def test_rsub(self):
        assert list((10 - col("x")).evaluate(REL)) == [9.0, 8.0, 7.0]

    def test_rdiv(self):
        assert list((6 / col("x")).evaluate(REL)) == [6.0, 3.0, 2.0]

    def test_row_eval(self):
        assert (col("x") * col("y")).evaluate_row({"x": 3.0, "y": 4.0}) == 12.0

    def test_nested_attrs(self):
        assert ((col("x") + 1) * col("y")).attrs() == {"x", "y"}

    def test_unknown_op_rejected(self):
        with pytest.raises(ExpressionError):
            Arith("**", col("x"), col("y"))

    def test_string_arith_rejected(self):
        with pytest.raises(ExpressionError):
            (col("s") + 1).output_type(S)

    def test_type_promotion(self):
        si = Schema([("i", ColumnType.INT)])
        assert (col("i") + 1).output_type(si) is ColumnType.INT
        assert (col("i") + 1.5).output_type(si) is ColumnType.FLOAT
        assert (col("i") / 2).output_type(si) is ColumnType.FLOAT


class TestComparison:
    def test_gt(self):
        assert list((col("x") > col("y")).evaluate(REL)) == [False, False, True]

    def test_le(self):
        assert list((col("x") <= 2.0).evaluate(REL)) == [True, True, False]

    def test_eq_method(self):
        assert list(col("s").eq("a").evaluate(REL)) == [True, False, True]

    def test_ne_method(self):
        assert list(col("s").ne("a").evaluate(REL)) == [False, True, False]

    def test_row_eval_bool(self):
        assert (col("x") > 1).evaluate_row({"x": 2.0}) is True

    def test_flipped(self):
        flipped = (col("x") > col("y")).flipped()
        assert flipped.op == "<"
        assert flipped.left.name == "y"

    def test_output_type_bool(self):
        assert (col("x") > 1).output_type(S) is ColumnType.BOOL

    def test_unknown_op(self):
        with pytest.raises(ExpressionError):
            Comparison("~~", col("x"), col("y"))


class TestBoolOps:
    def test_and(self):
        expr = (col("x") > 1) & (col("y") > 1)
        assert list(expr.evaluate(REL)) == [False, True, False]

    def test_or(self):
        expr = (col("x") > 2) | (col("y") > 2)
        assert list(expr.evaluate(REL)) == [True, False, True]

    def test_not(self):
        expr = ~(col("x") > 1)
        assert list(expr.evaluate(REL)) == [True, False, False]

    def test_row_short_circuit_semantics(self):
        expr = And(col("x") > 0, col("y") > 0)
        assert expr.evaluate_row({"x": 1.0, "y": 1.0}) is True
        assert expr.evaluate_row({"x": -1.0, "y": 1.0}) is False

    def test_isin(self):
        expr = col("s").isin(["a"])
        assert list(expr.evaluate(REL)) == [True, False, True]

    def test_isin_row(self):
        assert col("x").isin([2.0]).evaluate_row({"x": 2.0}) is True

    def test_isin_output_type(self):
        assert col("s").isin(["a"]).output_type(S) is ColumnType.BOOL


class TestFunc:
    def test_vectorized(self):
        f = Func("double", lambda v: v * 2, [col("x")], vectorized=True)
        assert list(f.evaluate(REL)) == [2.0, 4.0, 6.0]

    def test_rowwise_fallback(self):
        f = Func("inc", lambda v: v + 1, [col("x")])
        assert list(f.evaluate(REL)) == [2.0, 3.0, 4.0]

    def test_row_eval(self):
        f = Func("add", lambda a, b: a + b, [col("x"), col("y")])
        assert f.evaluate_row({"x": 1.0, "y": 2.0}) == 3.0

    def test_attrs_unions_args(self):
        f = Func("add", lambda a, b: a + b, [col("x"), col("y") * 2])
        assert f.attrs() == {"x", "y"}

    def test_declared_output_type(self):
        f = Func("f", lambda v: v, [col("x")], out_type=ColumnType.INT)
        assert f.output_type(S) is ColumnType.INT


class TestHelpers:
    def test_point_passthrough(self):
        assert point(3.5) == 3.5

    def test_is_uncertain_false_for_plain(self):
        assert not is_uncertain(1.0)

    def test_walk_visits_all(self):
        expr = (col("x") + 1) > col("y")
        names = {type(n).__name__ for n in walk(expr)}
        assert {"Comparison", "Arith", "Col", "Literal"} <= names

    def test_conjuncts_splits_ands(self):
        expr = (col("x") > 1) & ((col("y") > 2) & (col("x") < 5))
        assert len(conjuncts(expr)) == 3

    def test_conjuncts_keeps_or_whole(self):
        expr = (col("x") > 1) | (col("y") > 2)
        assert len(conjuncts(expr)) == 1

    def test_conjoin_roundtrip(self):
        parts = conjuncts((col("x") > 1) & (col("y") > 2))
        rebuilt = conjoin(parts)
        assert list(rebuilt.evaluate(REL)) == list(
            ((col("x") > 1) & (col("y") > 2)).evaluate(REL)
        )

    def test_conjoin_empty_is_true(self):
        assert conjoin([]).evaluate_row({}) is True

    def test_repr_smoke(self):
        assert "x" in repr((col("x") + 1) > 2)
