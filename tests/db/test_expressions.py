"""Tests for the vectorised expression language."""

import numpy as np
import pytest

from repro.db.expressions import (
    ArithmeticOperator,
    BinaryOp,
    ColumnRef,
    Comparison,
    ComparisonOperator,
    InList,
    Literal,
    LogicalOp,
    LogicalOperator,
    Not,
    col,
    lit,
)
from repro.errors import ExpressionError


class TestColumnRefAndLiteral:
    def test_column_ref_evaluate(self, small_numeric_table):
        values = col("a").evaluate(small_numeric_table)
        assert values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_literal_broadcast(self, small_numeric_table):
        values = lit(7.0).evaluate(small_numeric_table)
        assert values.tolist() == [7.0] * 5

    def test_string_literal_broadcast(self, small_numeric_table):
        values = lit("x").evaluate(small_numeric_table)
        assert list(values) == ["x"] * 5

    def test_literal_cannot_wrap_expression(self):
        with pytest.raises(ExpressionError):
            Literal(col("a"))

    def test_referenced_columns(self):
        assert col("a").referenced_columns() == {"a"}
        assert lit(1).referenced_columns() == set()


class TestArithmetic:
    def test_addition(self, small_numeric_table):
        values = (col("a") + col("b")).evaluate(small_numeric_table)
        assert values.tolist() == [11.0, 22.0, 33.0, 44.0, 55.0]

    def test_subtraction_and_scalar(self, small_numeric_table):
        values = (col("b") - 5).evaluate(small_numeric_table)
        assert values.tolist() == [5.0, 15.0, 25.0, 35.0, 45.0]

    def test_multiplication(self, small_numeric_table):
        values = (col("a") * 2).evaluate(small_numeric_table)
        assert values.tolist() == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_division(self, small_numeric_table):
        values = (col("b") / col("a")).evaluate(small_numeric_table)
        assert values.tolist() == [10.0] * 5

    def test_reflected_operators(self, small_numeric_table):
        assert (1 + col("a")).evaluate(small_numeric_table).tolist() == [2.0, 3.0, 4.0, 5.0, 6.0]
        assert (10 - col("a")).evaluate(small_numeric_table).tolist() == [9.0, 8.0, 7.0, 6.0, 5.0]
        assert (2 * col("a")).evaluate(small_numeric_table)[0] == 2.0
        assert (10 / col("a")).evaluate(small_numeric_table)[1] == 5.0

    def test_negation(self, small_numeric_table):
        values = (-col("a")).evaluate(small_numeric_table)
        assert values.tolist() == [-1.0, -2.0, -3.0, -4.0, -5.0]

    def test_referenced_columns_combined(self):
        expression = (col("a") + col("b")) * col("c")
        assert expression.referenced_columns() == {"a", "b", "c"}


class TestComparisons:
    def test_numeric_comparisons(self, small_numeric_table):
        assert (col("a") > 3).evaluate(small_numeric_table).tolist() == [False, False, False, True, True]
        assert (col("a") >= 3).evaluate(small_numeric_table).tolist() == [False, False, True, True, True]
        assert (col("a") < 2).evaluate(small_numeric_table).tolist() == [True, False, False, False, False]
        assert (col("a") <= 2).evaluate(small_numeric_table).tolist() == [True, True, False, False, False]

    def test_equality_on_strings(self, mixed_table):
        mask = (col("name") == "beta").evaluate(mixed_table)
        assert mask.tolist() == [False, True, False, False]

    def test_inequality_on_strings(self, mixed_table):
        mask = (col("name") != "beta").evaluate(mixed_table)
        assert mask.tolist() == [True, False, True, True]

    def test_comparison_between_columns(self, small_numeric_table):
        mask = (col("b") > col("a") * 10).evaluate(small_numeric_table)
        assert mask.tolist() == [False] * 5

    def test_operator_flip(self):
        assert ComparisonOperator.LT.flip() is ComparisonOperator.GT
        assert ComparisonOperator.GE.flip() is ComparisonOperator.LE
        assert ComparisonOperator.EQ.flip() is ComparisonOperator.EQ


class TestBooleanLogic:
    def test_and(self, small_numeric_table):
        mask = ((col("a") > 1) & (col("a") < 5)).evaluate(small_numeric_table)
        assert mask.tolist() == [False, True, True, True, False]

    def test_or(self, small_numeric_table):
        mask = ((col("a") == 1) | (col("a") == 5)).evaluate(small_numeric_table)
        assert mask.tolist() == [True, False, False, False, True]

    def test_not(self, small_numeric_table):
        mask = (~(col("a") > 3)).evaluate(small_numeric_table)
        assert mask.tolist() == [True, True, True, False, False]

    def test_logical_requires_two_operands(self):
        with pytest.raises(ExpressionError):
            LogicalOp(LogicalOperator.AND, [col("a") > 1])

    def test_nested_expression_columns(self):
        expression = ((col("a") > 1) & (col("b") < 2)) | (col("c") == 3)
        assert expression.referenced_columns() == {"a", "b", "c"}


class TestConvenience:
    def test_isin(self, mixed_table):
        mask = col("name").isin(["alpha", "delta"]).evaluate(mixed_table)
        assert mask.tolist() == [True, False, False, True]

    def test_isin_numeric(self, small_numeric_table):
        mask = col("a").isin([1.0, 5.0]).evaluate(small_numeric_table)
        assert mask.tolist() == [True, False, False, False, True]

    def test_repr_is_readable(self):
        expression = (col("a") + 1) >= 2
        text = repr(expression)
        assert "a" in text and ">=" in text


class TestNullsAndEdgeCases:
    def test_null_float_fails_every_comparison(self, mixed_table):
        value = col("value")
        for predicate in (value > 0, value <= 100, value == value, value != 3.0):
            assert predicate.evaluate(mixed_table).tolist() == [True, True, False, True]

    def test_null_string_fails_equality(self, mixed_table):
        mask = (col("category") == "x").evaluate(mixed_table)
        assert mask.tolist() == [True, False, False, True]

    def test_null_string_fails_inequality(self, mixed_table):
        mask = (col("category") != "x").evaluate(mixed_table)
        assert mask.tolist() == [False, False, True, False]
        assert (lit("x") != col("category")).evaluate(mixed_table).tolist() == mask.tolist()

    @pytest.mark.parametrize(
        "predicate, expected",
        [
            (col("category") < "y", [True, False, False, True]),
            (col("category") <= "x", [True, False, False, True]),
            (col("category") > "x", [False, False, True, False]),
            (col("category") >= "y", [False, False, True, False]),
            (lit("y") > col("category"), [True, False, False, True]),
        ],
        ids=["lt", "le", "gt", "ge", "literal-left"],
    )
    def test_null_string_fails_every_ordering(self, mixed_table, predicate, expected):
        assert predicate.evaluate(mixed_table).tolist() == expected

    def test_not_stays_two_valued_over_nulls(self, mixed_table):
        mask = (~(col("category") == "x")).evaluate(mixed_table)
        assert mask.tolist() == [False, True, True, False]

    def test_null_string_is_not_in_any_list(self, mixed_table):
        mask = col("category").isin(["x", "y"]).evaluate(mixed_table)
        assert mask.tolist() == [True, False, True, True]

    def test_division_by_zero_gives_inf_without_warning(self, small_numeric_table):
        with np.errstate(all="raise"):
            values = (col("a") / col("c")).evaluate(small_numeric_table)
        assert values.tolist() == [1.0, np.inf, 3.0, np.inf, 5.0]

    def test_empty_in_list_matches_nothing(self, small_numeric_table):
        mask = col("a").isin([]).evaluate(small_numeric_table)
        assert mask.dtype == bool
        assert not mask.any()

    def test_negated_in_list(self, mixed_table):
        expression = ~col("name").isin(["alpha"])
        assert expression.evaluate(mixed_table).tolist() == [False, True, True, True]
        assert expression.referenced_columns() == {"name"}

    def test_literal_on_the_left(self, small_numeric_table):
        reflected = (lit(3) < col("a")).evaluate(small_numeric_table)
        assert reflected.tolist() == (col("a") > 3).evaluate(small_numeric_table).tolist()

    def test_negated_conjunction_is_the_disjunction_of_negations(self, small_numeric_table):
        negated = ~((col("a") > 1) & (col("c") == 1))
        de_morgan = (col("a") <= 1) | (col("c") != 1)
        assert negated.evaluate(small_numeric_table).tolist() == [True, True, False, True, False]
        assert (
            negated.evaluate(small_numeric_table).tolist()
            == de_morgan.evaluate(small_numeric_table).tolist()
        )

    def test_three_operand_conjunction(self, small_numeric_table):
        expression = LogicalOp(
            LogicalOperator.AND, [col("a") > 1, col("b") < 50, col("c") == 1]
        )
        assert expression.evaluate(small_numeric_table).tolist() == [False, False, True, False, False]

    def test_string_column_against_string_column(self, mixed_table):
        mask = (col("name") == col("category")).evaluate(mixed_table)
        assert not mask.any()
