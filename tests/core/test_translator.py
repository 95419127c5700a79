"""Tests for the PaQL→ILP translation rules (Section 3.1)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.base_relations import compute_base_relation, indicator_vector
from repro.core.sketchrefine import PartitionedQuery
from repro.core.translator import (
    aggregate_coefficients,
    constraint_linear_rows,
    expression_coefficients,
    objective_linear,
    translate_query,
)
from repro.dataset.table import Table
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
from repro.partition.partitioning import Partitioning, PartitioningStats
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
        assert not translation.model.to_matrix().c.any()
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


#: One-row constraints over the property table: a query with ``r`` rows takes
#: the first ``r`` — AVG rewrites, filtered aggregates and plain sums mixed.
ONE_ROW_CONSTRAINTS = [
    lambda builder: builder.avg_at_most("x", 0.1),
    lambda builder: builder.filtered_count_at_least(col("y") > 0, 2),
    lambda builder: builder.sum_at_most("y", 5.0),
    lambda builder: builder.avg_at_least("y", -0.5),
    lambda builder: builder.count_at_least(1),
    lambda builder: builder.filtered_count_at_most(col("x") < 0, 40),
    lambda builder: builder.sum_at_least("x", -3.0),
]

#: Group sizes around numpy's pairwise-summation block sizes (8, 128, 256).
EDGE_SIZES = [0, 1, 2, 7, 8, 9, 16, 127, 128, 129, 255, 256, 257, 600]


def reference_group_means(linearisation, groups):
    """Per-group means, each group's columns summed one after another in
    ascending column order: the sums to reproduce bit for bit."""
    rows = [*linearisation.constraint_matrix.tolist(), linearisation.objective.tolist()]
    means = np.zeros((len(rows), len(groups)))
    for number, columns in enumerate(groups):
        if not len(columns):
            continue
        for row_number, row in enumerate(rows):
            total = 0.0
            for column in sorted(columns.tolist()):
                total += row[column]
            means[row_number, number] = total / len(columns)
    return means[:-1], means[-1]


class TestGroupMeansBitForBit:
    """The sketch's group means are the sequential per-group sums to the last bit.

    A sum reordered by even one ulp moves the sketch's and the refine
    queries' branch-and-bound trees, so the comparison is on bytes.
    """

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        num_rows=st.sampled_from([0, 1, 2, 3, 7]),
        sizes=st.lists(
            st.one_of(st.sampled_from(EDGE_SIZES), st.integers(0, 600)), min_size=1, max_size=6
        ),
        seed=st.integers(0, 2**16),
        cut=st.sampled_from([None, -0.5, 0.0, 0.5, 0.9, 1.0]),
    )
    # No eligible tuple: the means must still be float64 (zero bytes read
    # the same as int64, so the dtype is asserted too).
    @example(num_rows=2, sizes=[3, 5], seed=0, cut=1.0)
    def test_partitioned_query_means(self, num_rows, sizes, seed, cut):
        rng = np.random.default_rng(seed)
        group_ids = np.repeat(np.arange(len(sizes)), sizes)
        rng.shuffle(group_ids)
        total = len(group_ids)
        if total == 0:
            return
        # Magnitudes spread over eight decades, so that the order of a sum shows.
        def spread():
            return rng.standard_normal(total) * 10.0 ** rng.uniform(-4, 4, total)

        table = Table.from_dict(
            {"x": spread(), "y": spread(), "z": rng.uniform(-1.0, 1.0, total)}, name="t"
        )
        stats = PartitioningStats(len(sizes), max(sizes), 0.0, 0.0, 600, None, "manual")
        partitioning = Partitioning(table, group_ids, ["x", "y"], stats)
        builder = query_over("t")
        if cut is not None:  # a base predicate leaves gaps between the columns
            builder = builder.where(col("z") > cut)
        for add in ONE_ROW_CONSTRAINTS[:num_rows]:
            builder = add(builder)
        query = builder.maximize_sum("x").build()

        problem = PartitionedQuery.build(table, query, partitioning)
        assert problem.means.num_constraints == num_rows

        column_of_row = {int(row): column for column, row in enumerate(problem.rows)}
        groups = [
            np.array(
                [column_of_row[int(r)] for r in partitioning.group_rows(gid) if int(r) in column_of_row],
                dtype=np.int64,
            )
            for gid in range(partitioning.num_groups)
        ]
        assert [
            problem.group_columns(gid).tolist() for gid in range(partitioning.num_groups)
        ] == [g.tolist() for g in groups]
        assert problem.eligible_groups.tolist() == [g for g, cols in enumerate(groups) if len(cols)]

        constraint_means, objective_means = reference_group_means(problem.linearisation, groups)
        assert problem.means.constraint_matrix.shape == constraint_means.shape
        assert problem.means.constraint_matrix.dtype == problem.means.objective.dtype == np.float64
        assert problem.means.constraint_matrix.tobytes() == constraint_means.tobytes()
        assert problem.means.objective.tobytes() == objective_means.tobytes()
