"""Tests for the base relation: the WHERE clause applied before the ILP is built."""

import numpy as np
import pytest

from repro.core.base_relations import compute_base_relation, indicator_vector
from repro.db.expressions import col
from repro.paql.builder import query_over
from repro.paql.parser import parse_paql


def _eligible(table, where=None):
    builder = query_over(table.name).maximize_sum("a")
    if where is not None:
        builder = builder.where(where)
    return compute_base_relation(table, builder.build())


class TestComputeBaseRelation:
    def test_no_predicate_keeps_every_row(self, small_numeric_table):
        base = _eligible(small_numeric_table)
        assert base.eligible_indices.tolist() == [0, 1, 2, 3, 4]
        assert base.num_eligible == 5

    def test_indices_are_ascending_int64(self, small_numeric_table):
        base = _eligible(small_numeric_table, col("c") == 1)
        assert base.eligible_indices.dtype == np.int64
        assert base.eligible_indices.tolist() == [0, 2, 4]

    def test_numeric_predicate(self, small_numeric_table):
        assert _eligible(small_numeric_table, col("a") >= 3).eligible_indices.tolist() == [2, 3, 4]

    def test_conjunctive_predicate(self, small_numeric_table):
        base = _eligible(small_numeric_table, (col("a") >= 2) & (col("c") == 1))
        assert base.eligible_indices.tolist() == [2, 4]

    def test_disjunctive_predicate(self, small_numeric_table):
        base = _eligible(small_numeric_table, (col("a") < 2) | (col("b") > 40))
        assert base.eligible_indices.tolist() == [0, 4]

    def test_arithmetic_predicate(self, small_numeric_table):
        base = _eligible(small_numeric_table, col("a") * 10 + col("b") > 60)
        assert base.eligible_indices.tolist() == [3, 4]

    def test_string_predicate_skips_nulls(self, mixed_table):
        query = query_over("mixed").where(col("category") == "x").maximize_sum("weight").build()
        assert compute_base_relation(mixed_table, query).eligible_indices.tolist() == [0, 3]

    def test_in_list_predicate(self, mixed_table):
        query = (
            query_over("mixed")
            .where(col("name").isin(["beta", "delta", "omega"]))
            .maximize_sum("weight")
            .build()
        )
        assert compute_base_relation(mixed_table, query).eligible_indices.tolist() == [1, 3]

    def test_no_row_matches(self, small_numeric_table):
        base = _eligible(small_numeric_table, col("a") > 100)
        assert base.num_eligible == 0
        assert base.eligible_indices.dtype == np.int64

    def test_table_is_not_copied(self, small_numeric_table):
        assert _eligible(small_numeric_table, col("a") > 1).table is small_numeric_table

    def test_parsed_where_clause_matches_table_filter(self, recipes):
        query = parse_paql(
            "SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0 "
            "WHERE R.gluten = 'free' AND R.kcal > 0.4 "
            "SUCH THAT COUNT(P.*) = 3 MAXIMIZE SUM(P.protein)"
        )
        base = compute_base_relation(recipes, query)
        mask = (recipes.column("gluten") == "free") & (recipes.numeric_column("kcal") > 0.4)
        assert 0 < base.num_eligible < recipes.num_rows
        assert base.eligible_indices.tolist() == np.nonzero(mask)[0].tolist()


class TestIndicatorVector:
    def test_follows_the_given_row_order(self, small_numeric_table):
        indicators = indicator_vector(small_numeric_table, col("c") == 1, np.array([4, 1, 2]))
        assert indicators.tolist() == [1.0, 0.0, 1.0]
        assert indicators.dtype == np.float64

    def test_repeated_rows(self, small_numeric_table):
        indicators = indicator_vector(small_numeric_table, col("a") > 2, [3, 3, 0])
        assert indicators.tolist() == [1.0, 1.0, 0.0]

    def test_string_condition(self, mixed_table):
        indicators = indicator_vector(mixed_table, col("name") != "beta", [0, 1, 2, 3])
        assert indicators.tolist() == [1.0, 0.0, 1.0, 1.0]

    def test_no_rows(self, small_numeric_table):
        indicators = indicator_vector(small_numeric_table, col("a") > 0, [])
        assert indicators.shape == (0,)

    @pytest.mark.parametrize("threshold", [0.0, 2.5, 10.0])
    def test_sums_to_the_filtered_count(self, small_numeric_table, threshold):
        rows = np.arange(small_numeric_table.num_rows)
        indicators = indicator_vector(small_numeric_table, col("a") > threshold, rows)
        expected = int((small_numeric_table.numeric_column("a") > threshold).sum())
        assert indicators.sum() == expected
