"""Tests for the aggregate function names."""

import pytest

from repro.db.aggregates import AggregateFunction
from repro.errors import ExpressionError


class TestAggregateFunction:
    def test_parse(self):
        assert AggregateFunction.parse("sum") is AggregateFunction.SUM
        assert AggregateFunction.parse("Count") is AggregateFunction.COUNT

    def test_parse_unknown(self):
        with pytest.raises(ExpressionError):
            AggregateFunction.parse("median")

    def test_linearity(self):
        assert AggregateFunction.SUM.is_linear
        assert AggregateFunction.COUNT.is_linear
        assert AggregateFunction.AVG.is_linear
        assert not AggregateFunction.MIN.is_linear
        assert not AggregateFunction.MAX.is_linear
