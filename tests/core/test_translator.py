"""Tests for the PaQL→ILP translation rules (Section 3.1)."""

import numpy as np
import pytest

from repro.core.base_relations import compute_base_relation, indicator_vector
from repro.core.translator import (
    aggregate_coefficients,
    constraint_linear_rows,
    expression_coefficients,
    objective_linear,
    translate_query,
)
from repro.db.aggregates import AggregateFunction
from repro.db.expressions import col
from repro.errors import TranslationError
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.paql.ast import (
    AggregateRef,
    ConstraintSenseKeyword,
    GlobalConstraint,
    LinearAggregateExpression,
)
from repro.paql.builder import query_over
from repro.paql.parser import parse_paql
from repro.workloads.galaxy import galaxy_table, galaxy_workload


def _upper_bounds(translation) -> np.ndarray:
    return translation.model.bound_and_integrality_arrays()[1]


class TestBaseRelations:
    def test_no_predicate_keeps_all_rows(self, recipes):
        query = query_over("recipes").count_equals(1).build()
        base = compute_base_relation(recipes, query)
        assert base.num_eligible == recipes.num_rows

    def test_predicate_filters_rows(self, recipes):
        query = query_over("recipes").where(col("gluten") == "free").count_equals(1).build()
        base = compute_base_relation(recipes, query)
        gluten = recipes.column("gluten")
        assert base.num_eligible == sum(1 for g in gluten if g == "free")
        assert all(gluten[i] == "free" for i in base.eligible_indices)

    def test_indicator_vector(self, small_numeric_table):
        rows = np.array([0, 2, 3])
        indicators = indicator_vector(small_numeric_table, col("a") >= 3, rows)
        assert indicators.tolist() == [0.0, 1.0, 1.0]


class TestCoefficientComputation:
    def test_count_coefficients(self, small_numeric_table):
        rows = np.arange(5)
        coefficients = aggregate_coefficients(
            small_numeric_table, rows, AggregateRef(AggregateFunction.COUNT)
        )
        assert coefficients.tolist() == [1.0] * 5

    def test_sum_coefficients_are_attribute_values(self, small_numeric_table):
        rows = np.array([1, 3])
        coefficients = aggregate_coefficients(
            small_numeric_table, rows, AggregateRef(AggregateFunction.SUM, "b")
        )
        assert coefficients.tolist() == [20.0, 40.0]

    def test_filtered_coefficients(self, small_numeric_table):
        rows = np.arange(5)
        aggregate = AggregateRef(AggregateFunction.SUM, "a", filter=col("c") == 1)
        coefficients = aggregate_coefficients(small_numeric_table, rows, aggregate)
        assert coefficients.tolist() == [1.0, 0.0, 3.0, 0.0, 5.0]

    def test_expression_combines_terms(self, small_numeric_table):
        expression = LinearAggregateExpression(
            [
                (2.0, AggregateRef(AggregateFunction.SUM, "a")),
                (-1.0, AggregateRef(AggregateFunction.COUNT)),
            ]
        )
        coefficients = expression_coefficients(small_numeric_table, np.arange(5), expression)
        assert coefficients.tolist() == [1.0, 3.0, 5.0, 7.0, 9.0]

    def test_min_max_rejected(self, small_numeric_table):
        with pytest.raises(TranslationError):
            aggregate_coefficients(
                small_numeric_table, np.arange(5), AggregateRef(AggregateFunction.MIN, "a")
            )


class TestConstraintRows:
    def test_between_produces_two_rows(self, small_numeric_table):
        constraint = GlobalConstraint(
            LinearAggregateExpression.of(AggregateRef(AggregateFunction.SUM, "a")),
            ConstraintSenseKeyword.BETWEEN, 2.0, 6.0,
        )
        rows = constraint_linear_rows(small_numeric_table, np.arange(5), constraint, "window")
        assert [r.sense for r in rows] == [ConstraintSense.GE, ConstraintSense.LE]
        assert [r.rhs for r in rows] == [2.0, 6.0]

    def test_avg_rewrite(self, small_numeric_table):
        # AVG(a) <= 3  ->  sum over (a_i - 3) x_i <= 0
        constraint = GlobalConstraint(
            LinearAggregateExpression.of(AggregateRef(AggregateFunction.AVG, "a")),
            ConstraintSenseKeyword.LE, 3.0,
        )
        rows = constraint_linear_rows(small_numeric_table, np.arange(5), constraint, "avg")
        assert len(rows) == 1
        assert rows[0].rhs == 0.0
        assert rows[0].coefficients.tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_avg_with_negative_weight_flips_sense(self, small_numeric_table):
        constraint = GlobalConstraint(
            LinearAggregateExpression.of(AggregateRef(AggregateFunction.AVG, "a"), coefficient=-1.0),
            ConstraintSenseKeyword.LE, -3.0,
        )
        rows = constraint_linear_rows(small_numeric_table, np.arange(5), constraint, "avg")
        assert rows[0].sense is ConstraintSense.GE

    def test_avg_between(self, small_numeric_table):
        constraint = GlobalConstraint(
            LinearAggregateExpression.of(AggregateRef(AggregateFunction.AVG, "a")),
            ConstraintSenseKeyword.BETWEEN, 2.0, 4.0,
        )
        rows = constraint_linear_rows(small_numeric_table, np.arange(5), constraint, "avg")
        assert [r.sense for r in rows] == [ConstraintSense.GE, ConstraintSense.LE]


class TestTranslateQuery:
    def test_running_example_shape(self, recipes):
        query = parse_paql(
            "SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0 "
            "WHERE R.gluten = 'free' "
            "SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) BETWEEN 2.0 AND 2.5 "
            "MINIMIZE SUM(P.saturated_fat)"
        )
        translation = translate_query(recipes, query)
        base = compute_base_relation(recipes, query)
        assert translation.num_variables == base.num_eligible
        # COUNT equality (1 row) + BETWEEN (2 rows).
        assert translation.model.num_constraints == 3
        assert translation.model.objective.sense is ObjectiveSense.MINIMIZE
        # Repetition bound REPEAT 0 -> upper bound 1 on every variable.
        assert (_upper_bounds(translation) == 1.0).all()

    def test_repeat_none_means_unbounded(self, recipes):
        query = query_over("recipes").count_equals(2).minimize_sum("kcal").build()
        translation = translate_query(recipes, query)
        assert np.isinf(_upper_bounds(translation)).all()

    def test_repeat_k_bound(self, recipes):
        query = query_over("recipes").repeat(2).count_equals(2).minimize_sum("kcal").build()
        translation = translate_query(recipes, query)
        assert (_upper_bounds(translation) == 3.0).all()

    def test_vacuous_objective_when_absent(self, recipes):
        query = query_over("recipes").count_equals(2).build()
        translation = translate_query(recipes, query)
        assert translation.model.is_pure_feasibility
        assert translation.model.objective.sense is ObjectiveSense.MAXIMIZE

    def test_objective_linear_helper(self, recipes):
        query = query_over("recipes").maximize_sum("protein").build()
        sense, coefficients = objective_linear(recipes, np.arange(recipes.num_rows), query)
        assert sense is ObjectiveSense.MAXIMIZE
        assert np.allclose(coefficients, recipes.numeric_column("protein"))

    def test_package_from_solution_round_trip(self, recipes, fast_solver):
        query = (
            query_over("recipes")
            .no_repetition()
            .where(col("gluten") == "free")
            .count_equals(3)
            .minimize_sum("saturated_fat")
            .build()
        )
        translation = translate_query(recipes, query)
        solution = fast_solver.solve(translation.model)
        package = translation.package_from_solution(solution)
        assert package.cardinality == 3
        # Variables map back to the correct source rows (all gluten-free).
        gluten = recipes.column("gluten")
        assert all(gluten[i] == "free" for i in package.indices)


def reference_model(table, query) -> IlpModel:
    """The DIRECT ILP assembled one variable and one coefficient dict at a time."""
    rows = compute_base_relation(table, query).eligible_indices
    cap = query.max_multiplicity
    model = IlpModel(name=query.name or "paql")
    for row in rows:
        model.add_variable(f"x_{int(row)}", 0.0, None if cap is None else float(cap))
    for number, constraint in enumerate(query.global_constraints):
        name = constraint.name or f"global_{number}"
        for linear in constraint_linear_rows(table, rows, constraint, name):
            model.add_constraint(
                {j: c for j, c in enumerate(linear.coefficients.tolist()) if c},
                linear.sense, linear.rhs, name=linear.name,
            )
    sense, coefficients = objective_linear(table, rows, query)
    model.set_objective(sense, {j: c for j, c in enumerate(coefficients.tolist()) if c})
    return model


@pytest.fixture(scope="module")
def galaxy():
    return galaxy_table(1_600, seed=42)


RECIPE_QUERIES = {
    "filtered_count": lambda: (
        query_over("recipes").no_repetition().where(col("gluten") == "free").count_equals(3)
        .filtered_count_at_least(col("carbs") > 0, 2).compare_counts(col("carbs") > 0, col("protein") <= 5)
        .minimize_sum("saturated_fat").build()
    ),
    "avg": lambda: (
        query_over("recipes").no_repetition().count_between(2, 6)
        .avg_at_most("kcal", 0.8).avg_at_least("protein", 10.0).maximize_sum("protein").build()
    ),
    "repeat": lambda: (
        query_over("recipes").repeat(2).count_equals(5).sum_between("kcal", 2.0, 4.0)
        .minimize_sum("saturated_fat").build()
    ),
    "unbounded_repeat": lambda: (
        query_over("recipes").count_equals(4).sum_at_most("kcal", 3.0).maximize_sum("protein").build()
    ),
    "no_objective": lambda: (
        query_over("recipes").no_repetition().where(col("gluten") == "free")
        .count_equals(3).sum_between("kcal", 2.0, 2.5).build()
    ),
}


class TestBuilderAgainstPerVariableReference:
    """``linearise`` + ``build_model`` hand the solver what the per-variable API would."""

    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7"])
    def test_galaxy_queries(self, galaxy, name, assert_same_ilp):
        query = galaxy_workload(galaxy).query(name).query
        assert_same_ilp(translate_query(galaxy, query).model, reference_model(galaxy, query))

    def test_refine_workload_shape(self, galaxy, assert_same_ilp):
        # The refine_20k shape of benchmarks/e2e: COUNT = c, two SUM windows, maximise flux.
        cardinality = 200
        mean_z = float(np.mean(galaxy.numeric_column("redshift")))
        mean_mag = float(np.mean(galaxy.numeric_column("petroMag_r")))
        query = (
            query_over("galaxy", name="refine_c200").no_repetition().count_equals(cardinality)
            .sum_between("redshift", 0.7 * mean_z * cardinality, 1.3 * mean_z * cardinality)
            .sum_between("petroMag_r", 0.9 * mean_mag * cardinality, 1.1 * mean_mag * cardinality)
            .maximize_sum("petroFlux_r").build()
        )
        assert_same_ilp(translate_query(galaxy, query).model, reference_model(galaxy, query))

    @pytest.mark.parametrize("name", list(RECIPE_QUERIES))
    def test_recipes_queries(self, recipes, name, assert_same_ilp):
        query = RECIPE_QUERIES[name]()
        assert_same_ilp(translate_query(recipes, query).model, reference_model(recipes, query))
