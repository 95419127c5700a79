"""Tests for IIS extraction and solver statuses."""

import numpy as np

from repro.ilp.iis import find_iis
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.status import Solution, SolverStatus


def knapsack(values, weights, capacity) -> IlpModel:
    model = IlpModel()
    for i in range(len(values)):
        model.add_variable(f"x{i}", 0, 1)
    model.add_constraint({i: float(w) for i, w in enumerate(weights)}, ConstraintSense.LE, capacity)
    model.set_objective(ObjectiveSense.MAXIMIZE, {i: float(v) for i, v in enumerate(values)})
    return model


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
