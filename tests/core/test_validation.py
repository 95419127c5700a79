"""Tests for package feasibility checking and objective evaluation."""

import math

import numpy as np
import pytest

from repro.core.package import Package
from repro.core.validation import (
    approximation_ratio,
    check_package,
    evaluate_linear_expression,
    is_feasible,
    objective_value,
)
from repro.db.expressions import col
from repro.paql.ast import ObjectiveDirection
from repro.paql.builder import query_over
from repro.workloads.recipes import meal_planner_query


class TestExpressionEvaluation:
    def test_linear_expression_on_package(self, small_numeric_table):
        package = Package(small_numeric_table, [0, 2], [2, 1])
        query = query_over("numbers").sum_at_most("a", 100).build()
        expression = query.global_constraints[0].expression
        assert evaluate_linear_expression(package, expression) == 2 * 1.0 + 3.0

    def test_objective_value(self, small_numeric_table):
        package = Package(small_numeric_table, [1, 3])
        query = query_over("numbers").maximize_sum("b").build()
        assert objective_value(package, query) == 60.0

    def test_objective_nan_when_absent(self, small_numeric_table):
        package = Package(small_numeric_table, [0])
        query = query_over("numbers").count_equals(1).build()
        assert math.isnan(objective_value(package, query))


class TestCheckPackage:
    def test_feasible_package(self, recipes):
        query = meal_planner_query()
        free_rows = np.nonzero(recipes.column("gluten") == "free")[0]
        kcal = recipes.numeric_column("kcal")
        # Greedily pick three gluten-free recipes whose kcal total lands in [2, 2.5].
        chosen = None
        for i in range(len(free_rows)):
            for j in range(i + 1, len(free_rows)):
                for k in range(j + 1, len(free_rows)):
                    total = kcal[free_rows[i]] + kcal[free_rows[j]] + kcal[free_rows[k]]
                    if 2.0 <= total <= 2.5:
                        chosen = [free_rows[i], free_rows[j], free_rows[k]]
                        break
                if chosen:
                    break
            if chosen:
                break
        assert chosen is not None
        package = Package(recipes, np.array(chosen))
        report = check_package(package, query)
        assert report.feasible
        assert report.base_predicate_ok
        assert report.repetition_ok
        assert all(c.satisfied for c in report.constraint_checks)

    def test_cardinality_violation_reported(self, recipes):
        query = meal_planner_query()
        free_rows = np.nonzero(recipes.column("gluten") == "free")[0][:2]
        package = Package(recipes, free_rows)
        report = check_package(package, query)
        assert not report.feasible
        assert any(not c.satisfied for c in report.constraint_checks)
        violated = report.violated_constraints[0]
        assert violated.violation > 0

    def test_base_predicate_violation(self, recipes):
        query = meal_planner_query()
        contains = np.nonzero(recipes.column("gluten") == "contains")[0][:3]
        package = Package(recipes, contains)
        report = check_package(package, query)
        assert not report.base_predicate_ok
        assert not report.feasible

    def test_repetition_violation(self, recipes):
        query = meal_planner_query()  # REPEAT 0
        free = np.nonzero(recipes.column("gluten") == "free")[0]
        package = Package(recipes, [free[0]], [3])
        report = check_package(package, query)
        assert not report.repetition_ok

    def test_unbounded_repetition_ok(self, recipes):
        query = query_over("recipes").count_equals(3).build()
        package = Package(recipes, [0], [3])
        assert check_package(package, query).repetition_ok

    def test_filtered_constraint_checked(self, recipes):
        query = (
            query_over("recipes")
            .count_equals(2)
            .filtered_count_at_least(col("protein") >= 0, 2)
            .build()
        )
        package = Package(recipes, [0, 1])
        assert is_feasible(package, query)

    def test_between_violation_both_sides(self, small_numeric_table):
        query = query_over("numbers").sum_between("a", 3.0, 4.0).build()
        too_small = Package(small_numeric_table, [0])       # sum = 1
        too_large = Package(small_numeric_table, [3, 4])    # sum = 9
        in_range = Package(small_numeric_table, [0, 2])     # sum = 4
        assert not is_feasible(too_small, query)
        assert not is_feasible(too_large, query)
        assert is_feasible(in_range, query)

    def test_empty_package_vacuously_satisfies_base_predicate(self, recipes):
        query = meal_planner_query()
        report = check_package(Package.empty(recipes), query)
        assert report.base_predicate_ok
        assert not report.feasible  # COUNT = 3 violated.


class TestApproximationRatio:
    def test_minimisation_ratio(self):
        assert approximation_ratio(12.0, 10.0, ObjectiveDirection.MINIMIZE) == pytest.approx(1.2)

    def test_maximisation_ratio(self):
        assert approximation_ratio(50.0, 100.0, ObjectiveDirection.MAXIMIZE) == pytest.approx(2.0)

    def test_perfect_ratio(self):
        assert approximation_ratio(7.0, 7.0, ObjectiveDirection.MINIMIZE) == 1.0

    def test_zero_handling(self):
        assert approximation_ratio(0.0, 0.0, ObjectiveDirection.MINIMIZE) == 1.0
        assert math.isinf(approximation_ratio(5.0, 0.0, ObjectiveDirection.MINIMIZE))

    # (SKETCHREFINE objective, DIRECT objective, direction, expected ratio)
    @pytest.mark.parametrize(
        "sketch, direct, direction, expected",
        [
            (0.0, 0.0, ObjectiveDirection.MAXIMIZE, 1.0),
            (0.0, 5.0, ObjectiveDirection.MAXIMIZE, math.inf),
            (5.0, 0.0, ObjectiveDirection.MAXIMIZE, 0.0),
            (0.0, 5.0, ObjectiveDirection.MINIMIZE, 0.0),
            (8.0, 10.0, ObjectiveDirection.MINIMIZE, 0.8),
            (10.0, 8.0, ObjectiveDirection.MAXIMIZE, 0.8),
            (-4.0, -2.0, ObjectiveDirection.MINIMIZE, 2.0),
            (-4.0, -2.0, ObjectiveDirection.MAXIMIZE, 0.5),
        ],
    )
    def test_orientation_table(self, sketch, direct, direction, expected):
        """Each orientation divides by its own method's objective, and only a
        zero there reads infinity."""
        assert approximation_ratio(sketch, direct, direction) == pytest.approx(expected)

    def test_orientations_are_reciprocal(self):
        for sketch, direct in [(3.0, 7.0), (7.0, 3.0), (2.5, 2.5)]:
            maximize = approximation_ratio(sketch, direct, ObjectiveDirection.MAXIMIZE)
            minimize = approximation_ratio(sketch, direct, ObjectiveDirection.MINIMIZE)
            assert maximize * minimize == pytest.approx(1.0)

    def test_returns_a_python_float(self):
        ratio = approximation_ratio(np.float64(3.0), np.float64(6.0), ObjectiveDirection.MINIMIZE)
        assert type(ratio) is float
