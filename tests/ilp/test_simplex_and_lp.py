"""Tests for the revised simplex solver and the LP relaxation entry points.

The simplex implementation is cross-checked against the HiGHS oracle
(``oracle.py``) on both hand-crafted and randomly generated LPs (a
property-based consistency test).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ilp.lp_backend import solve_lp
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.simplex import SimplexStatus, solve_dense_simplex
from repro.ilp.status import SolverStatus

from .oracle import oracle_form_lp, oracle_ilp, oracle_lp


def simple_lp_model() -> IlpModel:
    """max 3x + 2y s.t. x + y <= 4, x <= 2, x,y >= 0 → optimum 10 at (2, 2)."""
    model = IlpModel()
    model.add_variable("x", is_integer=False)
    model.add_variable("y", is_integer=False)
    model.add_constraint({0: 1.0, 1: 1.0}, ConstraintSense.LE, 4)
    model.add_constraint({0: 1.0}, ConstraintSense.LE, 2)
    model.set_objective(ObjectiveSense.MAXIMIZE, {0: 3.0, 1: 2.0})
    return model


class TestSimplexDirect:
    def test_simple_maximisation(self):
        model = simple_lp_model()
        result = solve_lp(model)
        assert result.status is SolverStatus.OPTIMAL
        assert result.objective_value == pytest.approx(10.0)
        assert result.values == pytest.approx([2.0, 2.0])

    def test_equality_constraints(self):
        result = solve_dense_simplex(
            c=np.array([1.0, 1.0]),
            a_ub=np.empty((0, 2)),
            b_ub=np.empty(0),
            a_eq=np.array([[1.0, 2.0]]),
            b_eq=np.array([4.0]),
            bounds=[(0.0, None), (0.0, None)],
        )
        assert result.status is SimplexStatus.OPTIMAL
        assert result.objective == pytest.approx(2.0)  # y = 2, x = 0.

    def test_infeasible(self):
        result = solve_dense_simplex(
            c=np.array([1.0]),
            a_ub=np.array([[1.0], [-1.0]]),
            b_ub=np.array([1.0, -3.0]),  # x <= 1 and x >= 3.
            a_eq=np.empty((0, 1)),
            b_eq=np.empty(0),
            bounds=[(0.0, None)],
        )
        assert result.status is SimplexStatus.INFEASIBLE

    def test_infeasible_small_row_beside_a_large_one(self):
        """Phase 1 judges each row against its own right-hand side: the
        equality misses by 40 % of its rhs, which is still tiny beside the
        magnitude of the other row (found by the fuzz test)."""
        result = solve_dense_simplex(
            c=np.array([1.0]),
            a_ub=np.array([[1e4]]),
            b_ub=np.array([3e4]),
            a_eq=np.array([[1e-3]]),
            b_eq=np.array([5e-3]),  # x = 5, but x <= 3.
            bounds=[(0.0, 3.0)],
        )
        assert result.status is SimplexStatus.INFEASIBLE

    def test_unbounded(self):
        result = solve_dense_simplex(
            c=np.array([-1.0]),  # minimise -x with x unbounded above.
            a_ub=np.empty((0, 1)),
            b_ub=np.empty(0),
            a_eq=np.empty((0, 1)),
            b_eq=np.empty(0),
            bounds=[(0.0, None)],
        )
        assert result.status is SimplexStatus.UNBOUNDED

    def test_nonzero_lower_bounds(self):
        result = solve_dense_simplex(
            c=np.array([1.0, 1.0]),
            a_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([10.0]),
            a_eq=np.empty((0, 2)),
            b_eq=np.empty(0),
            bounds=[(2.0, 5.0), (1.0, None)],
        )
        assert result.status is SimplexStatus.OPTIMAL
        assert result.x == pytest.approx([2.0, 1.0])
        assert result.objective == pytest.approx(3.0)

    def test_upper_bounds_respected(self):
        result = solve_dense_simplex(
            c=np.array([-1.0]),
            a_ub=np.empty((0, 1)),
            b_ub=np.empty(0),
            a_eq=np.empty((0, 1)),
            b_eq=np.empty(0),
            bounds=[(0.0, 7.0)],
        )
        assert result.status is SimplexStatus.OPTIMAL
        assert result.x[0] == pytest.approx(7.0)


class TestBackendAgreement:
    def test_highs_and_simplex_agree_on_simple_model(self):
        model = simple_lp_model()
        reference = oracle_form_lp(model.to_matrix())
        assert reference.status == "optimal"
        assert solve_lp(model).objective_value == pytest.approx(reference.objective)

    def test_highs_reports_infeasible(self):
        model = IlpModel()
        model.add_variable("x", upper=1, is_integer=False)
        model.add_constraint({0: 1.0}, ConstraintSense.GE, 2)
        assert oracle_form_lp(model.to_matrix()).status == "infeasible"
        assert solve_lp(model).status is SolverStatus.INFEASIBLE

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        num_vars=st.integers(min_value=1, max_value=4),
        num_constraints=st.integers(min_value=1, max_value=4),
    )
    def test_random_lps_agree_with_highs(self, data, num_vars, num_constraints):
        """Property: on random bounded LPs, the simplex matches HiGHS.

        Variables are box-bounded so the LP is never unbounded; the two must
        agree on feasibility, and on the optimal objective value when
        feasible.
        """
        coefficient = st.integers(min_value=-5, max_value=5)
        c = np.array([data.draw(coefficient) for _ in range(num_vars)], dtype=float)
        a_ub = np.array(
            [[data.draw(coefficient) for _ in range(num_vars)] for _ in range(num_constraints)],
            dtype=float,
        )
        b_ub = np.array([data.draw(st.integers(min_value=-3, max_value=10)) for _ in range(num_constraints)], dtype=float)
        bounds = [(0.0, 5.0)] * num_vars

        simplex = solve_dense_simplex(c, a_ub, b_ub, np.empty((0, num_vars)), np.empty(0), bounds)

        reference = oracle_lp(c, a_ub, b_ub, bounds=bounds)
        assert simplex.status.value == reference.status
        if reference.status == "optimal":
            assert simplex.objective == pytest.approx(reference.objective, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        num_vars=st.integers(min_value=1, max_value=4),
        num_constraints=st.integers(min_value=1, max_value=4),
    )
    def test_random_warm_reoptimisations_agree_with_highs(self, data, num_vars, num_constraints):
        """Property: warm-started re-solves match HiGHS on the modified LP.

        Solve a random bounded LP cold, tighten one variable's bounds the way
        a branch-and-bound child would, then re-solve from the parent basis.
        The warm result must agree with a from-scratch HiGHS solve on both
        feasibility and the optimal objective.
        """
        coefficient = st.integers(min_value=-5, max_value=5)
        c = np.array([data.draw(coefficient) for _ in range(num_vars)], dtype=float)
        a_ub = np.array(
            [[data.draw(coefficient) for _ in range(num_vars)] for _ in range(num_constraints)],
            dtype=float,
        )
        b_ub = np.array(
            [data.draw(st.integers(min_value=-3, max_value=10)) for _ in range(num_constraints)],
            dtype=float,
        )
        bounds = [(0.0, 5.0)] * num_vars

        parent = solve_dense_simplex(c, a_ub, b_ub, np.empty((0, num_vars)), np.empty(0), bounds)
        if parent.status is not SimplexStatus.OPTIMAL:
            return

        branch_var = data.draw(st.integers(min_value=0, max_value=num_vars - 1))
        branch_up = data.draw(st.booleans())
        split = float(np.floor(parent.x[branch_var]))
        child_bounds = list(bounds)
        if branch_up:
            child_bounds[branch_var] = (min(split + 1.0, 5.0), 5.0)
        else:
            child_bounds[branch_var] = (0.0, max(split, 0.0))

        warm = solve_dense_simplex(
            c, a_ub, b_ub, np.empty((0, num_vars)), np.empty(0),
            child_bounds, warm_start=parent.basis,
        )

        reference = oracle_lp(c, a_ub, b_ub, bounds=child_bounds)
        assert warm.status.value == reference.status
        if reference.status == "optimal":
            assert warm.objective == pytest.approx(reference.objective, abs=1e-6)


class TestNumericalErrorStatus:
    """A corrupt/singular basis inverse must surface as NUMERICAL_ERROR, not
    masquerade as ITERATION_LIMIT (which callers treat as a pivot budget)."""

    def _force_refactor_failure(self, monkeypatch):
        from repro.ilp import simplex as simplex_mod

        monkeypatch.setattr(simplex_mod, "_REFACTOR_INTERVAL", 1)
        monkeypatch.setattr(
            simplex_mod._BoundedRevisedSimplex, "_refactorize", lambda self: False
        )

    def test_simplex_reports_numerical_error(self, monkeypatch):
        self._force_refactor_failure(monkeypatch)
        result = solve_dense_simplex(
            c=np.array([-3.0, -2.0]),
            a_ub=np.array([[1.0, 1.0], [1.0, 0.0]]),
            b_ub=np.array([4.0, 2.0]),
            a_eq=np.empty((0, 2)),
            b_eq=np.empty(0),
            bounds=[(0.0, None), (0.0, None)],
        )
        assert result.status is SimplexStatus.NUMERICAL_ERROR

    def test_lp_backend_maps_numerical_error(self, monkeypatch):
        from repro.ilp.lp_backend import solve_lp_form

        self._force_refactor_failure(monkeypatch)
        form = simple_lp_model().to_matrix()
        result = solve_lp_form(form)
        assert result.status is SolverStatus.NUMERICAL_ERROR
        assert SolverStatus.NUMERICAL_ERROR.is_failure
        assert not result.status.has_solution

    def test_branch_and_bound_retries_numerically_failed_warm_nodes(self, monkeypatch):
        """A NUMERICAL_ERROR on a warm-started node LP triggers a cold retry
        (counted in stats) instead of pruning the subtree or aborting."""
        import repro.ilp.branch_and_bound as bnb
        from repro.ilp.branch_and_bound import BranchAndBoundSolver
        from repro.ilp.lp_backend import LpResult

        model = IlpModel()
        for i, (value, weight) in enumerate([(10, 5), (13, 6), (7, 4), (8, 3)]):
            model.add_variable(f"x{i}", 0, 1)
        model.add_constraint(
            {0: 5.0, 1: 6.0, 2: 4.0, 3: 3.0}, ConstraintSense.LE, 10
        )
        model.set_objective(
            ObjectiveSense.MAXIMIZE, {0: 10.0, 1: 13.0, 2: 7.0, 3: 8.0}
        )

        real = bnb.solve_lp_form
        failed = []

        def flaky(form, warm_start=None):
            if warm_start is not None and not failed:
                failed.append(True)
                return LpResult(SolverStatus.NUMERICAL_ERROR, np.empty(0), float("nan"))
            return real(form, warm_start=warm_start)

        monkeypatch.setattr(bnb, "solve_lp_form", flaky)
        solution = BranchAndBoundSolver().solve(model)
        assert failed, "expected at least one warm-started node LP"
        assert solution.status is SolverStatus.OPTIMAL
        assert solution.stats.numerical_retries == 1
        assert solution.objective_value == pytest.approx(oracle_ilp(model).objective)
