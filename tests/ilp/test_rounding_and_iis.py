"""Tests for the relax-and-round heuristic solver, IIS extraction and statuses."""

import numpy as np
import pytest

from repro.ilp import rounding
from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits
from repro.ilp.iis import find_iis
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.rounding import RelaxAndRoundSolver
from repro.ilp.status import Solution, SolverStatus


def knapsack(values, weights, capacity) -> IlpModel:
    model = IlpModel()
    for i in range(len(values)):
        model.add_variable(f"x{i}", 0, 1)
    model.add_constraint({i: float(w) for i, w in enumerate(weights)}, ConstraintSense.LE, capacity)
    model.set_objective(ObjectiveSense.MAXIMIZE, {i: float(v) for i, v in enumerate(values)})
    return model


class TestRelaxAndRound:
    def test_returns_feasible_solution(self):
        model = knapsack([10, 13, 7, 8, 2], [5, 6, 4, 3, 1], 10)
        solution = RelaxAndRoundSolver().solve(model)
        assert solution.status is SolverStatus.FEASIBLE
        assert model.check_feasible(solution.values)

    def test_never_claims_optimality(self):
        model = knapsack([3, 2], [1, 1], 1)
        assert RelaxAndRoundSolver().solve(model).status is not SolverStatus.OPTIMAL

    def test_quality_close_to_exact_on_knapsack(self, rng):
        values = rng.integers(1, 50, 30).tolist()
        weights = rng.integers(1, 20, 30).tolist()
        capacity = int(0.5 * sum(weights))
        model = knapsack(values, weights, capacity)
        exact = BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-9)).solve(model)
        approximate = RelaxAndRoundSolver().solve(model)
        assert approximate.status is SolverStatus.FEASIBLE
        # LP-rounding on a knapsack is at most one item worse than optimal in
        # theory; allow a generous margin but require reasonable quality.
        assert approximate.objective_value >= 0.8 * exact.objective_value

    def test_infeasible_detected(self):
        model = IlpModel()
        model.add_variable("x", 0, 1)
        model.add_constraint({0: 1.0}, ConstraintSense.GE, 2)
        assert RelaxAndRoundSolver().solve(model).status is SolverStatus.INFEASIBLE

    def test_repair_handles_ge_constraints(self):
        # LP optimum is fractional; rounding down violates the GE constraint
        # and the greedy repair must push a variable back up.
        model = IlpModel()
        model.add_variable("x", 0, 3)
        model.add_variable("y", 0, 3)
        model.add_constraint({0: 2.0, 1: 3.0}, ConstraintSense.GE, 7)
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 1.0, 1: 1.0})
        solution = RelaxAndRoundSolver().solve(model)
        assert solution.status is SolverStatus.FEASIBLE
        assert model.check_feasible(solution.values)

    def test_repair_oscillation_bails_instead_of_livelocking(self, monkeypatch):
        """Regression: two coupled equalities used to make repair oscillate ±1.

        Rounding the LP optimum (0.5, 0.5) of ``x + y = 1, x - y = 0`` gives
        (0, 0); the greedy step then bounces between raising y (fixing the
        first row, breaking the second) and lowering it again, never reducing
        the total violation.  The repair loop must detect the stalled pass
        and give up instead of burning the whole pass budget.
        """
        model = IlpModel()
        model.add_variable("x", 0, 3)
        model.add_variable("y", 0, 3)
        model.add_constraint({0: 1.0, 1: 1.0}, ConstraintSense.EQ, 1, name="sum_one")
        model.add_constraint({0: 1.0, 1: -1.0}, ConstraintSense.EQ, 0, name="balance")
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 1.0, 1: 0.0})

        # A pass budget large enough that a livelock would dominate the test
        # run; the violation-progress check must bail long before it.
        monkeypatch.setattr(rounding, "_MAX_REPAIR_PASSES", 50_000)
        passes = 0
        original = RelaxAndRoundSolver._fix_constraint

        def counting_fix(self, model_, constraint, values):
            nonlocal passes
            passes += 1
            return original(self, model_, constraint, values)

        monkeypatch.setattr(RelaxAndRoundSolver, "_fix_constraint", counting_fix)
        solution = RelaxAndRoundSolver().solve(model)
        assert solution.status is SolverStatus.INFEASIBLE
        assert passes < 10

    def test_repair_multi_step_progress_still_allowed(self):
        """Repairs needing several passes (monotone progress) keep working."""
        model = IlpModel()
        model.add_variable("x", 0, 5)
        model.add_variable("y", 0, 5)
        model.add_constraint({0: 1.0, 1: 1.0}, ConstraintSense.GE, 6, name="floor")
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 1.0, 1: 1.0})
        repaired = RelaxAndRoundSolver()._repair(model, np.array([0.0, 0.0]))
        assert repaired is not None
        assert model.check_feasible(repaired)

    def test_black_box_protocol_with_direct_evaluator(self, recipes):
        """The evaluators accept any solver implementing the solve() protocol.

        A knapsack-style package query (cap on total kcal, maximise protein)
        is used because LP-rounding is reliable on that structure; the exact
        branch-and-bound solver is only one possible black box.
        """
        from repro.core.direct import DirectEvaluator
        from repro.core.validation import check_package
        from repro.paql.builder import query_over

        query = (
            query_over("recipes")
            .no_repetition()
            .count_at_most(5)
            .sum_at_most("kcal", 3.0)
            .maximize_sum("protein")
            .build()
        )
        evaluator = DirectEvaluator(solver=RelaxAndRoundSolver())
        package = evaluator.evaluate(recipes, query)
        assert check_package(package, query).feasible


class TestIis:
    def test_feasible_model_has_empty_iis(self):
        model = knapsack([1, 2], [1, 1], 2)
        assert find_iis(model) == []

    def test_single_conflicting_constraint(self):
        model = IlpModel()
        model.add_variable("x", 0, 1)
        model.add_constraint({0: 1.0}, ConstraintSense.GE, 5, name="too_big")
        assert find_iis(model) == ["too_big"]

    def test_conflicting_pair_found(self):
        model = IlpModel()
        model.add_variable("x", 0, 10)
        model.add_constraint({0: 1.0}, ConstraintSense.GE, 8, name="high")
        model.add_constraint({0: 1.0}, ConstraintSense.LE, 2, name="low")
        model.add_constraint({0: 1.0}, ConstraintSense.LE, 9, name="harmless")
        iis = find_iis(model)
        assert set(iis) == {"high", "low"}

    def test_iis_on_block_built_model(self):
        """The deletion filter handles models built through the block path,
        and its probes leave the model as it was."""
        model = IlpModel()
        for i in range(4):
            model.add_variable(f"x{i}", 0, 10)
        model.add_constraints(
            np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]]),
            [ConstraintSense.GE, ConstraintSense.LE, ConstraintSense.LE],
            [30.0, 10.0, 9.0],
            ["floor", "ceiling", "harmless"],
        )
        model.set_objective_vector(ObjectiveSense.MINIMIZE, np.array([1.0, 1.0, 0.0, 0.0]))
        form = model.to_matrix()
        assert set(find_iis(model)) == {"floor", "ceiling"}
        assert model.to_matrix() is form and model.num_constraints == 3


class TestSolutionAndStatus:
    def test_status_helpers(self):
        assert SolverStatus.OPTIMAL.has_solution
        assert SolverStatus.FEASIBLE.has_solution
        assert not SolverStatus.INFEASIBLE.has_solution
        assert SolverStatus.CAPACITY_EXCEEDED.is_failure
        assert not SolverStatus.OPTIMAL.is_failure

    def test_solution_value_of(self):
        solution = Solution(SolverStatus.OPTIMAL, np.array([1.0, 2.0]), 3.0)
        assert solution.value_of(1) == 2.0
        assert solution.value_of(9) == 0.0
        assert Solution.infeasible().value_of(0) == 0.0

    def test_integral_values(self):
        solution = Solution(SolverStatus.OPTIMAL, np.array([0.999999, 2.000001]), 3.0)
        assert solution.integral_values().tolist() == [1, 2]

    def test_factories(self):
        assert Solution.infeasible().status is SolverStatus.INFEASIBLE
        assert Solution.failure(SolverStatus.TIME_LIMIT).status is SolverStatus.TIME_LIMIT
