"""Tests for the Package answer object."""

import numpy as np
import pytest

from repro.core.package import Package
from repro.db.aggregates import AggregateFunction
from repro.errors import EvaluationError


class TestConstruction:
    def test_basic(self, small_numeric_table):
        package = Package(small_numeric_table, [0, 2], [1, 3])
        assert package.cardinality == 4
        assert package.num_distinct == 2
        assert package.max_multiplicity == 3
        assert not package.is_empty

    def test_default_multiplicities(self, small_numeric_table):
        package = Package(small_numeric_table, [0, 1, 2])
        assert package.cardinality == 3
        assert package.multiplicities.tolist() == [1, 1, 1]

    def test_zero_multiplicities_dropped(self, small_numeric_table):
        package = Package(small_numeric_table, [0, 1, 2], [1, 0, 2])
        assert package.num_distinct == 2
        assert package.multiplicity_of(1) == 0

    def test_empty_package(self, small_numeric_table):
        package = Package.empty(small_numeric_table)
        assert package.is_empty
        assert package.cardinality == 0
        assert package.max_multiplicity == 0

    def test_out_of_range_index_rejected(self, small_numeric_table):
        with pytest.raises(EvaluationError):
            Package(small_numeric_table, [99])

    def test_negative_multiplicity_rejected(self, small_numeric_table):
        with pytest.raises(EvaluationError):
            Package(small_numeric_table, [0], [-1])

    def test_length_mismatch_rejected(self, small_numeric_table):
        with pytest.raises(EvaluationError):
            Package(small_numeric_table, [0, 1], [1])

    def test_from_solution_values(self, small_numeric_table):
        package = Package.from_solution_values(
            small_numeric_table, np.array([0.0, 2.0000001, 0.9999999]), np.array([1, 3, 4])
        )
        assert package.as_multiplicity_map() == {3: 2, 4: 1}

    def test_from_multiplicity_map(self, small_numeric_table):
        package = Package.from_multiplicity_map(small_numeric_table, {4: 2, 1: 1})
        assert package.indices.tolist() == [1, 4]
        assert package.multiplicities.tolist() == [1, 2]
        assert Package.from_multiplicity_map(small_numeric_table, {}).is_empty


class TestAggregation:
    def test_count_and_sum(self, small_numeric_table):
        package = Package(small_numeric_table, [0, 4], [2, 1])
        assert package.count() == 3.0
        assert package.sum("a") == 2 * 1.0 + 5.0

    def test_avg(self, small_numeric_table):
        package = Package(small_numeric_table, [0, 1])
        assert package.aggregate(AggregateFunction.AVG, "a") == 1.5

    def test_min_max(self, small_numeric_table):
        package = Package(small_numeric_table, [1, 3])
        assert package.aggregate(AggregateFunction.MIN, "b") == 20.0
        assert package.aggregate(AggregateFunction.MAX, "b") == 40.0

    def test_filtered_aggregate_with_row_mask(self, small_numeric_table):
        package = Package(small_numeric_table, [0, 1, 2], [1, 1, 2])
        mask = small_numeric_table.column("c") == 1  # rows 0, 2, 4
        assert package.aggregate(AggregateFunction.COUNT, row_mask=mask) == 3.0
        assert package.aggregate(AggregateFunction.SUM, "a", row_mask=mask) == 1.0 + 2 * 3.0

    def test_sum_requires_column(self, small_numeric_table):
        package = Package(small_numeric_table, [0])
        with pytest.raises(EvaluationError):
            package.aggregate(AggregateFunction.SUM)

    def test_empty_package_aggregates(self, small_numeric_table):
        package = Package.empty(small_numeric_table)
        assert package.count() == 0.0
        assert package.sum("a") == 0.0
        assert np.isnan(package.aggregate(AggregateFunction.MIN, "a"))


class TestMultisetAggregation:
    """A package is a multiset: a row counts once per copy, and a row a filter
    drops counts not at all, for every aggregate."""

    @pytest.fixture
    def package(self, small_numeric_table):
        # a = 1.0 twice, 3.0 once, 4.0 three times.
        return Package(small_numeric_table, [0, 2, 3], [2, 1, 3])

    def test_count_counts_copies(self, package):
        assert package.count() == 6.0
        assert len(package) == 6

    def test_sum_weights_by_multiplicity(self, package):
        assert package.sum("a") == 2 * 1.0 + 3.0 + 3 * 4.0

    def test_avg_weights_by_multiplicity(self, package):
        assert package.aggregate(AggregateFunction.AVG, "a") == pytest.approx(17.0 / 6.0)

    def test_sum_over_int_column(self, package):
        assert package.sum("c") == 2 * 1 + 1 + 3 * 0

    def test_avg_matches_the_materialized_rows(self, package):
        rows = package.materialize().numeric_column("b")
        assert package.aggregate(AggregateFunction.AVG, "b") == pytest.approx(rows.mean())

    def test_min_skips_rows_the_filter_drops(self, package, small_numeric_table):
        mask = small_numeric_table.numeric_column("a") > 1.0
        assert package.aggregate(AggregateFunction.MIN, "a", row_mask=mask) == 3.0

    def test_max_skips_rows_the_filter_drops(self, package, small_numeric_table):
        mask = small_numeric_table.column("c") == 1
        assert package.aggregate(AggregateFunction.MAX, "b", row_mask=mask) == 30.0

    def test_filtered_avg_weights_by_multiplicity(self, package, small_numeric_table):
        mask = small_numeric_table.column("c") == 0
        assert package.aggregate(AggregateFunction.AVG, "a", row_mask=mask) == 4.0

    def test_filter_dropping_every_row(self, package, small_numeric_table):
        mask = np.zeros(small_numeric_table.num_rows, dtype=bool)
        assert package.aggregate(AggregateFunction.COUNT, row_mask=mask) == 0.0
        assert package.aggregate(AggregateFunction.SUM, "a", row_mask=mask) == 0.0
        assert np.isnan(package.aggregate(AggregateFunction.AVG, "a", row_mask=mask))
        assert np.isnan(package.aggregate(AggregateFunction.MAX, "a", row_mask=mask))

    @pytest.mark.parametrize("function", [AggregateFunction.AVG, AggregateFunction.MIN])
    def test_non_count_aggregates_require_a_column(self, package, function):
        with pytest.raises(EvaluationError):
            package.aggregate(function)


class TestSetOperations:
    def test_combine(self, small_numeric_table):
        one = Package(small_numeric_table, [0, 1], [1, 1])
        two = Package(small_numeric_table, [1, 2], [2, 1])
        combined = one.combine(two)
        assert combined.as_multiplicity_map() == {0: 1, 1: 3, 2: 1}

    def test_combine_different_tables_rejected(self, small_numeric_table, mixed_table):
        one = Package(small_numeric_table, [0])
        two = Package(mixed_table, [0])
        with pytest.raises(EvaluationError):
            one.combine(two)

    def test_without_rows(self, small_numeric_table):
        package = Package(small_numeric_table, [0, 1, 2], [1, 2, 3])
        reduced = package.without_rows([1])
        assert reduced.as_multiplicity_map() == {0: 1, 2: 3}

    def test_restricted_to_rows(self, small_numeric_table):
        package = Package(small_numeric_table, [0, 1, 2], [1, 2, 3])
        restricted = package.restricted_to_rows([1, 2, 4])
        assert restricted.as_multiplicity_map() == {1: 2, 2: 3}

    def test_same_contents(self, small_numeric_table):
        one = Package(small_numeric_table, [0, 1], [1, 2])
        two = Package.from_multiplicity_map(small_numeric_table, {1: 2, 0: 1})
        assert one.same_contents(two)
        assert not one.same_contents(Package(small_numeric_table, [0]))


class TestMaterialisation:
    def test_materialize_repeats_rows(self, small_numeric_table):
        package = Package(small_numeric_table, [0, 4], [2, 1])
        table = package.materialize()
        assert table.num_rows == 3
        assert sorted(table.column("a").tolist()) == [1.0, 1.0, 5.0]

    def test_iteration_matches_multiplicities(self, small_numeric_table):
        package = Package(small_numeric_table, [0, 4], [2, 1])
        assert sorted(package) == [0, 0, 4]
        assert len(package) == 3

    def test_repr(self, small_numeric_table):
        package = Package(small_numeric_table, [0])
        assert "cardinality=1" in repr(package)
