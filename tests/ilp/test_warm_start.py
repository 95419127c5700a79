"""Tests for warm-started reoptimisation and revised-simplex edge cases.

Covers the basis-reuse protocol end to end (simplex → lp_backend →
branch-and-bound), the degenerate/unbounded/equality-only corners of the
bounded revised simplex, and the fallback path for stale or corrupted bases.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.translator import translate_query
from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits
from repro.ilp.lp_backend import solve_lp_form
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.simplex import (
    SimplexBasis,
    SimplexStatus,
    solve_dense_simplex,
)
from repro.ilp.status import SolverStatus
from repro.workloads.galaxy import galaxy_table, galaxy_workload

from .oracle import oracle_ilp


def _knapsack_lp(n=6, seed=3):
    rng = np.random.default_rng(seed)
    c = -rng.integers(1, 10, n).astype(float)  # maximise value → minimise -value
    weights = rng.integers(1, 8, n).astype(float)
    a_ub = weights.reshape(1, -1)
    b_ub = np.array([float(weights.sum()) / 2.0])
    bounds = [(0.0, 1.0)] * n
    return c, a_ub, b_ub, np.empty((0, n)), np.empty(0), bounds


class TestWarmStartedReoptimisation:
    def test_warm_solve_matches_cold_after_bound_tightening(self):
        c, a_ub, b_ub, a_eq, b_eq, bounds = _knapsack_lp()
        cold_parent = solve_dense_simplex(c, a_ub, b_ub, a_eq, b_eq, bounds)
        assert cold_parent.status is SimplexStatus.OPTIMAL
        assert cold_parent.basis is not None

        # Branch: fix the most fractional variable down to 0 (a child node).
        fractional = int(np.argmax(np.abs(cold_parent.x - np.rint(cold_parent.x))))
        child_bounds = list(bounds)
        child_bounds[fractional] = (0.0, 0.0)

        warm = solve_dense_simplex(
            c, a_ub, b_ub, a_eq, b_eq, child_bounds, warm_start=cold_parent.basis
        )
        cold = solve_dense_simplex(c, a_ub, b_ub, a_eq, b_eq, child_bounds)
        assert warm.status is SimplexStatus.OPTIMAL
        assert warm.warm_started
        assert warm.objective == pytest.approx(cold.objective, abs=1e-8)
        assert warm.iterations <= cold.iterations

    def test_warm_solve_detects_child_infeasibility(self):
        # x + y <= 1; branching both variables up to >= 1 is infeasible.
        c = np.array([1.0, 1.0])
        a_ub = np.array([[1.0, 1.0]])
        b_ub = np.array([1.0])
        parent = solve_dense_simplex(
            c, a_ub, b_ub, np.empty((0, 2)), np.empty(0), [(0.0, 5.0), (0.0, 5.0)]
        )
        assert parent.status is SimplexStatus.OPTIMAL
        child = solve_dense_simplex(
            c, a_ub, b_ub, np.empty((0, 2)), np.empty(0),
            [(1.0, 5.0), (1.0, 5.0)], warm_start=parent.basis,
        )
        assert child.status is SimplexStatus.INFEASIBLE
        assert child.warm_started

    def test_stale_basis_falls_back_to_cold_solve(self):
        c, a_ub, b_ub, a_eq, b_eq, bounds = _knapsack_lp()
        # A basis exported from a completely different problem shape.
        stale = SimplexBasis(
            basic=np.array([0]),
            status=np.zeros(4, dtype=np.int8),
            num_structural=2,
            num_ub=1,
            num_eq=0,
        )
        result = solve_dense_simplex(c, a_ub, b_ub, a_eq, b_eq, bounds, warm_start=stale)
        assert result.status is SimplexStatus.OPTIMAL
        assert not result.warm_started

    def test_corrupted_basis_with_right_shape_falls_back(self):
        c, a_ub, b_ub, a_eq, b_eq, bounds = _knapsack_lp()
        n = len(c)
        ncols = n + 1 + 1  # structural + 1 slack + 1 artificial
        # Duplicate basic indices and inconsistent statuses.
        corrupted = SimplexBasis(
            basic=np.array([2]),
            status=np.full(ncols, 1, dtype=np.int8),  # nobody marked BASIC
            num_structural=n,
            num_ub=1,
            num_eq=0,
        )
        reference = solve_dense_simplex(c, a_ub, b_ub, a_eq, b_eq, bounds)
        result = solve_dense_simplex(c, a_ub, b_ub, a_eq, b_eq, bounds, warm_start=corrupted)
        assert result.status is SimplexStatus.OPTIMAL
        assert not result.warm_started
        assert result.objective == pytest.approx(reference.objective)

    def test_inconsistent_status_vector_falls_back(self):
        c, a_ub, b_ub, a_eq, b_eq, bounds = _knapsack_lp()
        n = len(c)
        ncols = n + 1 + 1
        # The BASIC marker sits on column 0 but the basic list names column 1.
        status = np.full(ncols, 1, dtype=np.int8)
        status[0] = 0
        bad = SimplexBasis(
            basic=np.array([1]), status=status, num_structural=n, num_ub=1, num_eq=0
        )
        result = solve_dense_simplex(c, a_ub, b_ub, a_eq, b_eq, bounds, warm_start=bad)
        assert result.status is SimplexStatus.OPTIMAL
        assert not result.warm_started


    def test_inverse_from_another_matrix_is_caught_by_the_residual_check(self):
        """A basis carries its solve's inverse; against a same-shape matrix with
        other coefficients that inverse is wrong, and trusting it would corrupt
        every FTRAN.  The install-time residual check reinverts instead."""
        c, a_ub, b_ub, a_eq, b_eq, bounds = _knapsack_lp()
        donor = solve_dense_simplex(c, a_ub, b_ub, a_eq, b_eq, bounds)
        assert donor.basis is not None and donor.basis._factor is not None
        assert donor.refactorizations == 0

        same_matrix = solve_dense_simplex(
            c, a_ub, b_ub, a_eq, b_eq, bounds, warm_start=donor.basis
        )
        assert same_matrix.warm_started
        assert same_matrix.refactorizations == 0  # the inherited inverse is trusted

        rescaled = a_ub * np.linspace(0.5, 3.0, a_ub.shape[1])
        warm = solve_dense_simplex(
            c, rescaled, b_ub, a_eq, b_eq, bounds, warm_start=donor.basis
        )
        cold = solve_dense_simplex(c, rescaled, b_ub, a_eq, b_eq, bounds)
        assert warm.status is SimplexStatus.OPTIMAL
        assert warm.warm_started
        assert warm.refactorizations == 1  # ... and the stale one is rebuilt
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


class TestSimplexEdgeCases:
    def test_beale_degenerate_cycling_example(self):
        """Beale's classic cycling LP: Dantzig pricing cycles, Bland must engage."""
        c = np.array([-0.75, 150.0, -0.02, 6.0])
        a_ub = np.array(
            [
                [0.25, -60.0, -1.0 / 25.0, 9.0],
                [0.5, -90.0, -1.0 / 50.0, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        b_ub = np.array([0.0, 0.0, 1.0])
        bounds = [(0.0, None)] * 4
        result = solve_dense_simplex(c, a_ub, b_ub, np.empty((0, 4)), np.empty(0), bounds)
        assert result.status is SimplexStatus.OPTIMAL
        assert result.objective == pytest.approx(-0.05)

    def test_unbounded_direction_blocked_by_finite_bounds(self):
        """The cost direction is unbounded in the cone but every variable is boxed."""
        c = np.array([-1.0, -2.0, -3.0])
        # A constraint that does not block growth (negative coefficients).
        a_ub = np.array([[-1.0, -1.0, -1.0]])
        b_ub = np.array([5.0])
        bounds = [(0.0, 4.0), (0.0, 3.0), (0.0, 2.0)]
        result = solve_dense_simplex(c, a_ub, b_ub, np.empty((0, 3)), np.empty(0), bounds)
        assert result.status is SimplexStatus.OPTIMAL
        assert result.x == pytest.approx([4.0, 3.0, 2.0])
        assert result.objective == pytest.approx(-16.0)

    def test_truly_unbounded_is_still_detected(self):
        c = np.array([-1.0, 0.0])
        a_ub = np.array([[0.0, 1.0]])
        b_ub = np.array([1.0])
        bounds = [(0.0, None), (0.0, None)]
        result = solve_dense_simplex(c, a_ub, b_ub, np.empty((0, 2)), np.empty(0), bounds)
        assert result.status is SimplexStatus.UNBOUNDED

    def test_equality_only_system(self):
        """No inequality rows at all: the basis is built purely from artificials."""
        c = np.array([2.0, 3.0, 1.0])
        a_eq = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
        b_eq = np.array([6.0, 1.0])
        bounds = [(0.0, None)] * 3
        result = solve_dense_simplex(c, np.empty((0, 3)), np.empty(0), a_eq, b_eq, bounds)
        assert result.status is SimplexStatus.OPTIMAL
        # x - y = 1, x + y + z = 6; cheapest is z as large as possible:
        # x = 1, y = 0, z = 5 → objective 2 + 0 + 5 = 7.
        assert result.objective == pytest.approx(7.0)
        assert result.x == pytest.approx([1.0, 0.0, 5.0])

    def test_equality_only_with_redundant_row(self):
        """A redundant equality leaves an artificial basic at zero — harmless."""
        c = np.array([1.0, 1.0])
        a_eq = np.array([[1.0, 1.0], [2.0, 2.0]])
        b_eq = np.array([4.0, 8.0])
        bounds = [(0.0, None), (0.0, None)]
        result = solve_dense_simplex(c, np.empty((0, 2)), np.empty(0), a_eq, b_eq, bounds)
        assert result.status is SimplexStatus.OPTIMAL
        assert result.objective == pytest.approx(4.0)

    def test_warm_start_after_redundant_row_solve(self):
        """A basis containing a (fixed-at-zero) artificial column warm-starts fine."""
        c = np.array([1.0, 1.0])
        a_eq = np.array([[1.0, 1.0], [2.0, 2.0]])
        b_eq = np.array([4.0, 8.0])
        parent = solve_dense_simplex(
            c, np.empty((0, 2)), np.empty(0), a_eq, b_eq, [(0.0, None), (0.0, None)]
        )
        child = solve_dense_simplex(
            c, np.empty((0, 2)), np.empty(0), a_eq, b_eq,
            [(3.0, None), (0.0, None)], warm_start=parent.basis,
        )
        assert child.status is SimplexStatus.OPTIMAL
        assert child.objective == pytest.approx(4.0)
        assert child.x[0] >= 3.0 - 1e-9


class TestBackendWarmStartProtocol:
    def test_lp_backend_passes_basis_through(self):
        model = IlpModel()
        model.add_variable("x", 0, 10, is_integer=False)
        model.add_variable("y", 0, 10, is_integer=False)
        model.add_constraint({0: 1.0, 1: 1.0}, ConstraintSense.LE, 8)
        model.set_objective(ObjectiveSense.MAXIMIZE, {0: 3.0, 1: 1.0})
        form = model.to_matrix()

        cold = solve_lp_form(form)
        assert cold.status is SolverStatus.OPTIMAL
        assert cold.basis is not None
        assert not cold.warm_start_used

        lower, upper = form.bound_arrays()
        upper = upper.copy()
        upper[0] = 5.0
        warm = solve_lp_form(form.with_bounds(lower, upper), warm_start=cold.basis)
        assert warm.status is SolverStatus.OPTIMAL
        assert warm.warm_start_used
        assert warm.objective_value == pytest.approx(5.0 * 3.0 + 3.0 * 1.0)


class TestBranchAndBoundBasisReuse:
    def _hard_knapsack(self, n=14, seed=11):
        rng = np.random.default_rng(seed)
        model = IlpModel("warm_knapsack")
        values = rng.integers(3, 30, n)
        weights = rng.integers(2, 15, n)
        for i in range(n):
            model.add_variable(f"x{i}", 0, 1)
        model.add_constraint(
            {i: float(w) for i, w in enumerate(weights)},
            ConstraintSense.LE,
            float(weights.sum()) * 0.4,
        )
        model.set_objective(
            ObjectiveSense.MAXIMIZE, {i: float(v) for i, v in enumerate(values)}
        )
        return model

    def test_warm_start_hits_accumulate_and_answers_match(self):
        model = self._hard_knapsack()
        warm = BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-9)).solve(model)
        reference = oracle_ilp(model)

        assert warm.status is SolverStatus.OPTIMAL
        assert reference.status == "optimal"
        assert warm.objective_value == pytest.approx(reference.objective)

        assert warm.stats.warm_start_hits > 0
        # Every non-root node warm-starts from its parent's basis.
        if warm.stats.lp_solves > 1:
            assert warm.stats.warm_start_rate >= 0.5

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_warm_trees_agree_with_the_oracle_on_random_knapsacks(self, seed):
        model = self._hard_knapsack(n=9, seed=seed)
        warm = BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-9)).solve(model)
        reference = oracle_ilp(model)
        assert warm.status.value == reference.status
        if warm.status is SolverStatus.OPTIMAL:
            assert warm.objective_value == pytest.approx(reference.objective)
            # A maximisation: the proven bound sits at or above the answer.
            assert warm.stats.gap <= 1e-9
            assert warm.stats.best_bound >= warm.objective_value - 1e-9

    def test_hit_rate_floor_on_galaxy_q1(self):
        """Galaxy Q1 at 800 rows branches; >= 90 % of its node LPs reoptimise
        from the parent basis.  The counts repeat exactly from run to run."""
        table = galaxy_table(800, seed=42)
        query = galaxy_workload(table, seed=42).query("Q1").query
        solver = BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-3, node_limit=2000))
        stats = solver.solve(translate_query(table, query).model).stats
        assert stats.lp_solves > 10
        assert stats.warm_start_rate >= 0.9


class TestMatrixFormCaching:
    def test_to_matrix_is_memoized_until_mutation(self):
        model = IlpModel()
        model.add_variable("x", 0, 5)
        model.add_constraint({0: 1.0}, ConstraintSense.LE, 4)
        first = model.to_matrix()
        assert model.to_matrix() is first

        model.add_constraint({0: 1.0}, ConstraintSense.GE, 1)
        second = model.to_matrix()
        assert second is not first
        assert second.a_ub.shape[0] == 2

        model.set_objective(ObjectiveSense.MINIMIZE, {0: 1.0})
        assert model.to_matrix() is not second

        third = model.to_matrix()
        model.add_variable("y", 0, 1)
        assert model.to_matrix() is not third
