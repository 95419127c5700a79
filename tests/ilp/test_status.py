"""Tests for solver statuses and solutions."""

import numpy as np

from repro.ilp.status import Solution, SolverStatus


class TestSolutionAndStatus:
    def test_status_helpers(self):
        assert SolverStatus.OPTIMAL.has_solution
        assert SolverStatus.FEASIBLE.has_solution
        assert not SolverStatus.INFEASIBLE.has_solution

    def test_integral_values(self):
        solution = Solution(SolverStatus.OPTIMAL, np.array([0.999999, 2.000001]), 3.0)
        assert solution.integral_values().tolist() == [1, 2]

    def test_factories(self):
        assert Solution.infeasible().status is SolverStatus.INFEASIBLE
        assert Solution.failure(SolverStatus.TIME_LIMIT).status is SolverStatus.TIME_LIMIT
