"""Tests for the revised simplex solver and the LP relaxation entry points.

The simplex implementation is cross-checked against the HiGHS oracle
(``oracle.py``) on both hand-crafted and randomly generated LPs (a
property-based consistency test).  :class:`TestSignedMoveVector` holds the
pricing and ratio-test masks read off the signed move vector against the
status/bound masks they replaced, kept here as the reference.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ilp.lp_backend import solve_lp
from repro.ilp.matrix_form import MatrixForm
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.simplex import (
    _EPSILON,
    _PIVOT_EPSILON,
    AT_LOWER,
    AT_UPPER,
    BASIC,
    FREE,
    SimplexStatus,
    _BoundedRevisedSimplex,
    _WorkMatrix,
    solve_dense_simplex,
    solve_form_simplex,
)
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


# -- the signed move vector against the status/bound masks it replaced --------------

def reference_eligible_columns(status, lower, upper, d):
    movable = lower < upper
    at_lower = (status == AT_LOWER) & movable & (d < -_EPSILON)
    at_upper = (status == AT_UPPER) & movable & (d > _EPSILON)
    free = (status == FREE) & (np.abs(d) > _EPSILON)
    return np.nonzero(at_lower | at_upper | free)[0]


def reference_ratio_candidates(status, lower, upper, alpha, leaving_below):
    movable = lower < upper
    at_lower = (status == AT_LOWER) & movable
    at_upper = (status == AT_UPPER) & movable
    free = status == FREE
    if leaving_below:
        mask = (
            (at_lower & (alpha < -_PIVOT_EPSILON))
            | (at_upper & (alpha > _PIVOT_EPSILON))
            | (free & (np.abs(alpha) > _PIVOT_EPSILON))
        )
    else:
        mask = (
            (at_lower & (alpha > _PIVOT_EPSILON))
            | (at_upper & (alpha < -_PIVOT_EPSILON))
            | (free & (np.abs(alpha) > _PIVOT_EPSILON))
        )
    return np.nonzero(mask)[0]


def reference_install_flips(status, lower, upper, d):
    """``(to upper, to lower)`` index sets, or ``None`` for a rejected basis."""
    finite_lower, finite_upper = np.isfinite(lower), np.isfinite(upper)
    movable = (status != BASIC) & (lower != upper)
    flip_to_upper = movable & (status == AT_LOWER) & (d < -_EPSILON)
    flip_to_lower = movable & (status == AT_UPPER) & (d > _EPSILON)
    if np.any(flip_to_upper & ~finite_upper) or np.any(flip_to_lower & ~finite_lower):
        return None
    if np.any(movable & (status == FREE) & (np.abs(d) > _EPSILON)):
        return None
    return np.nonzero(flip_to_upper)[0], np.nonzero(flip_to_lower)[0]


def _values_near(rng, size, eps):
    """Reduced costs / pivot rows: zeros of both signs, ``±eps`` and its
    neighbouring floats, ordinary and large magnitudes."""
    pool = np.array([
        0.0, -0.0, eps, -eps, np.nextafter(eps, 1.0), -np.nextafter(eps, 1.0),
        np.nextafter(eps, 0.0), -np.nextafter(eps, 0.0), 1e-3, -1e-3, 2.5, -7.0, 1e9, -1e9,
    ])
    return np.where(rng.random(size) < 0.6, rng.choice(pool, size), rng.normal(0.0, 3.0, size))


def _random_solver(rng):
    """A solver whose statuses and bounds are drawn at random: FREE columns,
    ``l == u``, one-sided and two-sided infinite bounds (never crossed — the
    solver reports a crossing as infeasible before it prices)."""
    n, mu, me = int(rng.integers(1, 12)), int(rng.integers(0, 3)), int(rng.integers(0, 3))
    form = MatrixForm(
        c=rng.normal(size=n), a_ub=rng.normal(size=(mu, n)), b_ub=rng.normal(size=mu),
        a_eq=rng.normal(size=(me, n)), b_eq=rng.normal(size=me),
        bounds=(np.zeros(n), np.ones(n)), maximize=False,
    )
    solver = _BoundedRevisedSimplex(_WorkMatrix(form), np.zeros(n), np.ones(n))
    ncols = solver.ncols
    lower = rng.choice(np.array([-np.inf, -2.0, 0.0, 0.0, 1.5]), ncols)
    width = rng.choice(np.array([0.0, 0.0, 1.0, 2.5, np.inf]), ncols)
    above = np.where(np.isinf(lower), 0.0, lower) + width
    upper = np.where(np.isinf(lower), rng.choice(np.array([-1.0, 3.0, np.inf]), ncols), above)
    solver.lower, solver.upper = lower, upper
    solver.status = rng.choice(np.array([BASIC, AT_LOWER, AT_UPPER, FREE], dtype=np.int8), ncols)
    solver._set_moves()
    return solver


class TestSignedMoveVector:
    """Every index set the move vector yields is the parent's status/bound
    masks' (kept above verbatim), bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_masks_equal_the_status_bound_masks(self, seed):
        rng = np.random.default_rng(seed)
        solver = _random_solver(rng)
        status, lower, upper = solver.status, solver.lower, solver.upper
        ncols = solver.ncols

        d = _values_near(rng, ncols, _EPSILON)
        assert np.array_equal(
            solver._eligible_columns(d), reference_eligible_columns(status, lower, upper, d)
        )

        alpha = _values_near(rng, ncols, _PIVOT_EPSILON)
        for leaving_below in (True, False):
            assert np.array_equal(
                solver._ratio_candidates(alpha, leaving_below),
                reference_ratio_candidates(status, lower, upper, alpha, leaving_below),
            )

        flips = solver._dual_flips(d)
        expected = reference_install_flips(status, lower, upper, d)
        assert (flips is None) == (expected is None)
        if flips is not None:
            rising = solver.move[flips] > 0
            assert np.array_equal(flips[rising], expected[0])
            assert np.array_equal(flips[~rising], expected[1])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_status_updates_keep_the_vector_current(self, seed):
        """A pivot or flip writes one entry; a rebuild reads the same."""
        rng = np.random.default_rng(seed)
        solver = _random_solver(rng)
        for _ in range(20):
            j = int(rng.integers(solver.ncols))
            if rng.random() < 0.3:
                solver.status[j] = BASIC
                solver.move[j] = 0.0
            else:
                solver._set_status(j, int(rng.choice([AT_LOWER, AT_UPPER])))
        incremental = solver.move.copy()
        solver._set_moves()
        assert np.array_equal(incremental, solver.move)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_install_flips_negate_to_the_rebuilt_vector(self, seed):
        """The install flips statuses and negates their entries, as _try_install
        does before _dual starts; a rebuild from the flipped statuses agrees."""
        rng = np.random.default_rng(seed)
        solver = _random_solver(rng)
        flips = solver._dual_flips(_values_near(rng, solver.ncols, _EPSILON))
        if flips is None:
            return
        solver.status[flips] = np.where(solver.move[flips] > 0, AT_UPPER, AT_LOWER)
        solver.move[flips] = -solver.move[flips]
        incremental = solver.move.copy()
        solver._set_moves()
        assert np.array_equal(incremental, solver.move)

    @pytest.mark.parametrize("seed", range(5))
    def test_installed_basis_hands_dual_a_current_vector(self, seed):
        """An optimal basis with every nonbasic box column moved to its other
        bound: the install flips them back, and the vector it leaves for the
        dual is the one a rebuild reads."""
        rng = np.random.default_rng(seed)
        n = 12
        form = MatrixForm(
            c=rng.normal(size=n), a_ub=rng.random((3, n)), b_ub=np.full(3, 4.0),
            a_eq=np.ones((1, n)), b_eq=np.array([5.0]),
            bounds=(np.zeros(n), np.ones(n)), maximize=False,
        )
        basis = solve_form_simplex(form).basis
        status = basis.status.copy()
        swap = np.nonzero(status[:n] != BASIC)[0]
        status[swap] = np.where(status[swap] == AT_LOWER, AT_UPPER, AT_LOWER)
        solver = _BoundedRevisedSimplex(_WorkMatrix(form), *form.bounds)
        assert solver._try_install(dataclasses.replace(basis, status=status))
        assert np.array_equal(solver.status[swap], basis.status[swap])
        installed = solver.move.copy()
        solver._set_moves()
        assert np.array_equal(installed, solver.move)
