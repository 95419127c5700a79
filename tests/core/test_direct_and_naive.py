"""Tests for the DIRECT evaluator and the naïve (SQL-style) baselines.

The exhaustive evaluators double as oracles: on small inputs DIRECT must find
packages with the same optimal objective value.
"""

import numpy as np
import pytest

from repro.core.direct import DirectEvaluator
from repro.core.naive import ExhaustiveSearchEvaluator, NaiveSelfJoinEvaluator
from repro.core.validation import check_package, objective_value
from repro.db.expressions import col
from repro.errors import (
    EvaluationError,
    InfeasiblePackageQueryError,
    SolverCapacityError,
)
from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits
from repro.ilp.status import SolverStatus
from repro.paql.builder import query_over
from repro.workloads.recipes import meal_planner_query, recipes_table


@pytest.fixture
def tiny_recipes():
    return recipes_table(num_rows=25, seed=3)


class TestDirect:
    def test_meal_planner_optimal_and_feasible(self, recipes, fast_solver):
        query = meal_planner_query()
        package = DirectEvaluator(solver=fast_solver).evaluate(recipes, query)
        assert package.cardinality == 3
        assert check_package(package, query).feasible

    def test_matches_exhaustive_oracle(self, tiny_recipes, fast_solver):
        query = (
            query_over("recipes")
            .no_repetition()
            .count_equals(3)
            .sum_at_most("kcal", 2.5)
            .minimize_sum("saturated_fat")
            .build()
        )
        direct = DirectEvaluator(solver=fast_solver).evaluate(tiny_recipes, query)
        oracle = ExhaustiveSearchEvaluator().evaluate(tiny_recipes, query)
        assert objective_value(direct, query) == pytest.approx(
            objective_value(oracle, query), rel=1e-6
        )

    def test_maximisation_matches_oracle(self, tiny_recipes, fast_solver):
        query = (
            query_over("recipes")
            .no_repetition()
            .count_at_most(4)
            .sum_at_most("kcal", 3.0)
            .maximize_sum("protein")
            .build()
        )
        direct = DirectEvaluator(solver=fast_solver).evaluate(tiny_recipes, query)
        oracle = ExhaustiveSearchEvaluator(max_cardinality=4).evaluate(tiny_recipes, query)
        assert objective_value(direct, query) == pytest.approx(
            objective_value(oracle, query), rel=1e-6
        )

    def test_repetition_allowed(self, tiny_recipes, fast_solver):
        query = (
            query_over("recipes")
            .repeat(2)
            .count_equals(3)
            .minimize_sum("kcal")
            .build()
        )
        package = DirectEvaluator(solver=fast_solver).evaluate(tiny_recipes, query)
        # The cheapest recipe should simply be repeated 3 times.
        assert package.cardinality == 3
        assert package.max_multiplicity == 3

    def test_infeasible_query_raises(self, tiny_recipes, fast_solver):
        query = (
            query_over("recipes").no_repetition().count_equals(3).sum_at_most("kcal", 0.01).build()
        )
        with pytest.raises(InfeasiblePackageQueryError):
            DirectEvaluator(solver=fast_solver).evaluate(tiny_recipes, query)

    def test_unbounded_query_raises(self, tiny_recipes, fast_solver):
        query = query_over("recipes").maximize_sum("protein").build()
        with pytest.raises(EvaluationError, match="unbounded"):
            DirectEvaluator(solver=fast_solver).evaluate(tiny_recipes, query)

    def test_capacity_limit_surfaces_as_error(self, recipes):
        solver = BranchAndBoundSolver(limits=SolverLimits(max_variables=5))
        with pytest.raises(SolverCapacityError):
            DirectEvaluator(solver=solver).evaluate(recipes, meal_planner_query())

    def test_stats_recorded(self, recipes, fast_solver):
        evaluator = DirectEvaluator(solver=fast_solver)
        evaluator.evaluate(recipes, meal_planner_query())
        stats = evaluator.last_stats
        assert stats.num_variables > 0
        assert stats.num_constraints == 3
        assert stats.solver_status is SolverStatus.OPTIMAL
        assert stats.total_seconds >= stats.solve_seconds

    def test_black_box_protocol_with_direct_evaluator(self, recipes, fast_solver):
        """DIRECT takes any object with ``solve(model)``, not only
        :class:`BranchAndBoundSolver`: the solver is a black box, as CPLEX is
        in the paper."""

        class CountingSolver:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def solve(self, model):
                self.calls += 1
                return self.inner.solve(model)

        query = (
            query_over("recipes")
            .no_repetition()
            .count_at_most(5)
            .sum_at_most("kcal", 3.0)
            .maximize_sum("protein")
            .build()
        )
        solver = CountingSolver(fast_solver)
        package = DirectEvaluator(solver=solver).evaluate(recipes, query)
        assert solver.calls == 1
        assert check_package(package, query).feasible


class TestNaiveSelfJoin:
    def test_matches_direct_on_strict_cardinality(self, tiny_recipes, fast_solver):
        query = (
            query_over("recipes")
            .no_repetition()
            .where(col("gluten") == "free")
            .count_equals(2)
            .sum_at_most("kcal", 2.0)
            .minimize_sum("saturated_fat")
            .build()
        )
        naive = NaiveSelfJoinEvaluator().evaluate(tiny_recipes, query)
        direct = DirectEvaluator(solver=fast_solver).evaluate(tiny_recipes, query)
        assert objective_value(naive, query) == pytest.approx(objective_value(direct, query))

    def test_requires_strict_cardinality(self, tiny_recipes):
        query = query_over("recipes").count_at_most(3).minimize_sum("kcal").build()
        with pytest.raises(EvaluationError, match="strict-cardinality"):
            NaiveSelfJoinEvaluator().evaluate(tiny_recipes, query)

    def test_infeasible_raises(self, tiny_recipes):
        query = (
            query_over("recipes").no_repetition().count_equals(2).sum_at_most("kcal", 0.001).build()
        )
        with pytest.raises(InfeasiblePackageQueryError):
            NaiveSelfJoinEvaluator().evaluate(tiny_recipes, query)

    def test_candidate_limit_enforced(self, recipes):
        query = query_over("recipes").no_repetition().count_equals(4).minimize_sum("kcal").build()
        evaluator = NaiveSelfJoinEvaluator(max_candidates=100)
        with pytest.raises(EvaluationError, match="candidates"):
            evaluator.evaluate(recipes, query)

    def test_stats_count_candidates(self, tiny_recipes):
        query = query_over("recipes").no_repetition().count_equals(2).minimize_sum("kcal").build()
        evaluator = NaiveSelfJoinEvaluator()
        evaluator.evaluate(tiny_recipes, query)
        expected = 25 * 24 // 2
        assert evaluator.last_stats.candidates_examined == expected

    def test_cardinality_via_between(self, tiny_recipes):
        query = (
            query_over("recipes").no_repetition().count_between(2, 2).minimize_sum("kcal").build()
        )
        package = NaiveSelfJoinEvaluator().evaluate(tiny_recipes, query)
        assert package.cardinality == 2


class TestExhaustiveSearch:
    def test_respects_repetition_bound(self, tiny_recipes):
        query = (
            query_over("recipes").repeat(1).count_equals(2).minimize_sum("kcal").build()
        )
        package = ExhaustiveSearchEvaluator(max_cardinality=2).evaluate(tiny_recipes, query)
        assert package.max_multiplicity <= 2
        assert check_package(package, query).feasible

    def test_infeasible(self, tiny_recipes):
        query = query_over("recipes").count_equals(2).sum_at_most("kcal", 0.0001).build()
        with pytest.raises(InfeasiblePackageQueryError):
            ExhaustiveSearchEvaluator(max_cardinality=2).evaluate(tiny_recipes, query)
