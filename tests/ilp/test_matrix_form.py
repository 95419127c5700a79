"""Tests for the sparse-first MatrixForm IR.

Covers sparse/dense storage parity (same matrices, same solve results, both
matching the HiGHS oracle), the zero-copy structural sharing branch-and-bound relies on,
the O(1)/array fast paths on the model, the root-basis warm-start handoff
used by SKETCHREFINE's backtracking retries, and the pickling contract the
parallel solve plane relies on (per-process caches dropped, everything else
round-tripping bit-exactly).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse as sp

from repro.errors import SolverError
from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits
from repro.ilp.lp_backend import solve_lp_form
from repro.ilp.matrix_form import MatrixForm, choose_sparse
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.simplex import _WORK_CACHE_KEY
from repro.ilp.status import SolverStatus

from .oracle import oracle_form_lp

_SENSES = (ConstraintSense.LE, ConstraintSense.GE, ConstraintSense.EQ)


def _random_model(draw_values, n, constraints, objective, rhs_offsets):
    """Build an IlpModel from hypothesis-drawn raw data."""
    model = IlpModel("prop")
    for i in range(n):
        model.add_variable(f"x{i}", 0, 3)
    for number, (coefficients, sense_index, rhs_offset) in enumerate(
        zip(constraints, [s % 3 for s in rhs_offsets], rhs_offsets)
    ):
        coefficients = coefficients[:n]
        sense = _SENSES[sense_index]
        # Keep EQ/GE right-hand sides reachable so a healthy fraction of the
        # generated models is feasible.
        magnitude = float(sum(abs(c) for c in coefficients))
        rhs = (rhs_offset % 7) / 6.0 * max(magnitude, 1.0)
        if sense is ConstraintSense.EQ:
            rhs = round(rhs)
        model.add_constraint(
            {i: float(c) for i, c in enumerate(coefficients)}, sense, rhs
        )
    model.set_objective(
        ObjectiveSense.MAXIMIZE, {i: float(c) for i, c in enumerate(objective[:n])}
    )
    return model


@st.composite
def _models(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    num_constraints = draw(st.integers(min_value=0, max_value=4))
    coefficient = st.integers(min_value=-3, max_value=3)
    constraints = draw(
        st.lists(
            st.lists(coefficient, min_size=n, max_size=n),
            min_size=num_constraints,
            max_size=num_constraints,
        )
    )
    objective = draw(st.lists(coefficient, min_size=n, max_size=n))
    rhs_offsets = draw(
        st.lists(
            st.integers(min_value=0, max_value=20),
            min_size=num_constraints,
            max_size=num_constraints,
        )
    )
    return _random_model(draw, n, constraints, objective, rhs_offsets)


class TestStorageParity:
    def test_sparse_and_dense_exports_hold_the_same_matrices(self):
        model = IlpModel()
        for i in range(5):
            model.add_variable(f"x{i}", 0, 2)
        model.add_constraint({0: 1.0, 3: -2.0}, ConstraintSense.LE, 4)
        model.add_constraint({1: 1.0, 2: 1.0}, ConstraintSense.GE, 1)
        model.add_constraint({4: 3.0}, ConstraintSense.EQ, 3)
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 1.0, 4: -1.0})

        sparse_form = model.to_matrix(sparse=True)
        dense_form = model.to_matrix(sparse=False)
        assert sparse_form.is_sparse
        assert not dense_form.is_sparse
        assert sp.issparse(sparse_form.a_ub)
        np.testing.assert_allclose(sparse_form.a_ub.toarray(), dense_form.a_ub)
        np.testing.assert_allclose(sparse_form.a_eq.toarray(), dense_form.a_eq)
        np.testing.assert_allclose(sparse_form.c, dense_form.c)
        assert sparse_form.nnz == dense_form.nnz == 5
        np.testing.assert_array_equal(sparse_form.bounds, dense_form.bounds)

    @settings(max_examples=40, deadline=None)
    @given(model=_models())
    def test_random_models_solve_identically_through_both_storages(self, model):
        """The sparse path and the dense fallback agree with the oracle on
        status and objective."""
        for sparse in (True, False):
            form = model.to_matrix(sparse=sparse)
            result = solve_lp_form(form)
            reference = oracle_form_lp(form)
            assert result.status.value == reference.status, sparse
            if result.status is SolverStatus.OPTIMAL:
                assert result.objective_value == pytest.approx(reference.objective, abs=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(model=_models())
    def test_branch_and_bound_agrees_across_storages(self, model):
        limits = SolverLimits(relative_gap=1e-9, node_limit=2_000)
        values = {}
        for sparse in (True, False):
            clone = model.copy()
            clone.sparse_matrix = sparse
            assert clone.to_matrix().is_sparse is sparse
            solution = BranchAndBoundSolver(limits=limits).solve(clone)
            values[sparse] = (solution.status, solution.objective_value)
        assert values[True][0] is values[False][0]
        if values[True][0] is SolverStatus.OPTIMAL:
            assert values[True][1] == pytest.approx(values[False][1], abs=1e-6)


class TestZeroCopySharing:
    def _model(self, sparse):
        model = IlpModel()
        for i in range(6):
            model.add_variable(f"x{i}", 0, 1)
        model.add_constraint({i: float(i + 1) for i in range(6)}, ConstraintSense.LE, 9)
        model.add_constraint({0: 1.0, 5: 1.0}, ConstraintSense.GE, 1)
        model.set_objective(ObjectiveSense.MAXIMIZE, {i: 1.0 for i in range(6)})
        model.sparse_matrix = sparse
        return model

    @pytest.mark.parametrize("sparse", [True, False])
    def test_with_bounds_shares_constraint_buffers_and_cache(self, sparse):
        form = self._model(sparse).to_matrix()
        lower, upper = form.bound_arrays()
        upper[0] = 0.0
        child = form.with_bounds(lower, upper)
        assert child.a_ub is form.a_ub
        assert child.a_eq is form.a_eq
        assert child.c is form.c
        assert child.b_ub is form.b_ub
        assert child.cache is form.cache
        if sparse:
            grandchild = child.with_bounds(lower.copy(), upper.copy())
            assert grandchild.a_ub.data is form.a_ub.data
            assert grandchild.a_ub.indices is form.a_ub.indices
            assert grandchild.a_ub.indptr is form.a_ub.indptr

    @pytest.mark.parametrize("sparse", [True, False])
    def test_branch_and_bound_tree_assembles_one_working_matrix(self, sparse):
        """Every node of the tree shares the single cached simplex work matrix."""
        model = self._model(sparse)
        form = model.to_matrix()
        assert _WORK_CACHE_KEY not in form.cache
        solution = BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-9)).solve(model)
        assert solution.status is SolverStatus.OPTIMAL
        work = form.cache[_WORK_CACHE_KEY]
        assert work.sparse is sparse
        # A second solve (new tree, same model) reuses the same assembly.
        BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-9)).solve(model)
        assert form.cache[_WORK_CACHE_KEY] is work


class TestModelFastPaths:
    def test_add_constraint_arrays_validates(self):
        model = IlpModel()
        model.add_variable("x")
        model.add_variable("y")
        constraint = model.add_constraint_arrays(
            np.array([0, 1]), np.array([2.0, 0.0]), ConstraintSense.LE, 5
        )
        assert constraint.coefficients == {0: 2.0}
        with pytest.raises(SolverError):
            model.add_constraint_arrays(
                np.array([0, 0]), np.array([1.0, 1.0]), ConstraintSense.LE, 1
            )
        with pytest.raises(SolverError):
            model.add_constraint_arrays(
                np.array([7]), np.array([1.0]), ConstraintSense.LE, 1
            )
        with pytest.raises(SolverError):
            model.set_objective_arrays(
                ObjectiveSense.MINIMIZE, np.array([5]), np.array([1.0])
            )

    def test_variable_lookup_is_index_backed(self):
        model = IlpModel()
        for i in range(50):
            model.add_variable(f"x{i}")
        assert model.variable_by_name("x37").index == 37
        with pytest.raises(SolverError):
            model.variable_by_name("nope")

    def test_vectorised_evaluation_matches_manual(self):
        model = IlpModel()
        for i in range(4):
            model.add_variable(f"x{i}", 0, 10)
        constraint = model.add_constraint(
            {0: 1.5, 2: -2.0}, ConstraintSense.LE, 1.0
        )
        model.set_objective(ObjectiveSense.MINIMIZE, {1: 2.0, 3: -1.0})
        values = np.array([2.0, 3.0, 1.0, 4.0])
        assert constraint.evaluate(values) == pytest.approx(1.5 * 2.0 - 2.0 * 1.0)
        assert constraint.violation(values) == pytest.approx(0.0)
        assert model.objective_value(values) == pytest.approx(2.0 * 3.0 - 4.0)
        assert model.check_feasible(np.array([0.0, 0.0, 0.0, 0.0]))
        assert not model.check_feasible(np.array([2.0, 0.0, 0.0, 0.0]))  # constraint
        assert not model.check_feasible(np.array([0.5, 0.0, 0.0, 0.0]))  # integrality

    def test_choose_sparse_policy(self):
        # Tiny models always take the dense fallback.
        assert not choose_sparse(100, 5)
        # Large and sparse: CSR wins.
        assert choose_sparse(1_000_000, 10_000)
        # Large but fully dense: CSR's index overhead would lose; stay dense.
        assert not choose_sparse(1_000_000, 1_000_000)


class TestRootBasisHandoff:
    def _model(self):
        rng = np.random.default_rng(5)
        model = IlpModel("handoff")
        weights = rng.integers(2, 9, 12).astype(float)
        values = rng.integers(1, 20, 12).astype(float)
        for i in range(12):
            model.add_variable(f"x{i}", 0, 1)
        model.add_constraint(
            {i: w for i, w in enumerate(weights)}, ConstraintSense.LE, weights.sum() * 0.4
        )
        model.set_objective(ObjectiveSense.MAXIMIZE, {i: v for i, v in enumerate(values)})
        return model

    def test_solution_exports_root_basis_and_accepts_it_back(self):
        solver = BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-9))
        first = solver.solve(self._model())
        assert first.status is SolverStatus.OPTIMAL
        assert first.root_basis is not None

        # A related model (same shape, slightly shifted rhs) warm-starts its
        # root from the exported basis — this is the SKETCHREFINE retry path.
        retry_model = self._model()
        retry_model.constraints[0].rhs *= 0.95
        second = solver.solve(retry_model, warm_start=first.root_basis)
        assert second.status is SolverStatus.OPTIMAL
        assert second.stats.warm_start_hits >= 1

        # The warm-rooted tree must agree with a cold-rooted one.
        cold = BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-9)).solve(
            retry_model.copy()
        )
        assert second.objective_value == pytest.approx(cold.objective_value)


class TestPickling:
    """The pickling contract of the parallel solve plane.

    Forms, postsolve records, bases and models cross the process boundary
    when refine ILPs fan out to workers: derived per-process caches must be
    dropped (never aliased between processes), everything else must
    round-trip bit-exactly, and a re-solve of the round-tripped object must
    agree with the original.
    """

    def _model(self, num_vars=8, fixed=None):
        rng = np.random.default_rng(11)
        model = IlpModel("pickled")
        weights = rng.integers(1, 9, num_vars).astype(float)
        gains = rng.integers(1, 15, num_vars).astype(float)
        for i in range(num_vars):
            model.add_variable(f"x{i}", 2 if i == fixed else 0, 2)
        model.add_constraint(
            {i: w for i, w in enumerate(weights)}, ConstraintSense.LE, weights.sum() * 0.5
        )
        model.add_constraint({0: 1.0, num_vars - 1: 1.0}, ConstraintSense.GE, 1)
        model.set_objective(ObjectiveSense.MAXIMIZE, {i: g for i, g in enumerate(gains)})
        return model

    def _assert_matrix_equal(self, left, right):
        if sp.issparse(left):
            assert sp.issparse(right)
            np.testing.assert_array_equal(left.toarray(), right.toarray())
        else:
            np.testing.assert_array_equal(left, right)

    @pytest.mark.parametrize("sparse", [True, False])
    def test_matrix_form_round_trips_without_its_cache(self, sparse):
        model = self._model()
        model.sparse_matrix = sparse
        form = model.to_matrix()
        # Populate the per-process caches with a real solve before pickling.
        result = solve_lp_form(form)
        assert result.status is SolverStatus.OPTIMAL
        assert form.cache, "expected the solve to populate the working cache"

        clone = pickle.loads(pickle.dumps(form))
        assert clone.cache == {}
        assert form.cache, "pickling must not clear the original's cache"
        assert clone.is_sparse is form.is_sparse
        assert clone.maximize is form.maximize
        self._assert_matrix_equal(form.a_ub, clone.a_ub)
        self._assert_matrix_equal(form.a_eq, clone.a_eq)
        np.testing.assert_array_equal(form.c, clone.c)
        np.testing.assert_array_equal(form.b_ub, clone.b_ub)
        np.testing.assert_array_equal(form.b_eq, clone.b_eq)

        # The round-tripped form solves to the same optimum (rebuilding its
        # own working matrix from scratch).
        again = solve_lp_form(clone)
        assert again.status is SolverStatus.OPTIMAL
        assert again.objective_value == pytest.approx(result.objective_value)

    def test_postsolve_round_trips_and_restores_identically(self):
        from repro.ilp.presolve import presolve_form

        # Fix a variable so presolve genuinely reduces and the postsolve
        # record is non-trivial.
        form = self._model(fixed=3).to_matrix()
        integer_mask = np.ones(form.num_variables, dtype=bool)
        result = presolve_form(form, integer_mask)
        assert result.feasible and result.postsolve is not None
        postsolve = result.postsolve

        # Populate the lazy node-row cache, then check it is dropped.
        lower, upper = form.bound_arrays()
        postsolve.reduce_bounds(lower, upper)
        clone = pickle.loads(pickle.dumps(postsolve))
        assert clone._node_rows is None

        x_reduced = np.zeros(clone.num_reduced_vars)
        np.testing.assert_array_equal(postsolve.restore(x_reduced), clone.restore(x_reduced))
        reduced_l, reduced_u = postsolve.reduce_bounds(lower, upper)
        clone_l, clone_u = clone.reduce_bounds(lower, upper)
        np.testing.assert_array_equal(reduced_l, clone_l)
        np.testing.assert_array_equal(reduced_u, clone_u)

    def test_simplex_basis_round_trips(self):
        solver = BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-9))
        solution = solver.solve(self._model())
        basis = solution.root_basis
        assert basis is not None
        clone = pickle.loads(pickle.dumps(basis))
        np.testing.assert_array_equal(basis.basic, clone.basic)
        np.testing.assert_array_equal(basis.status, clone.status)
        assert clone.matches(basis.num_structural, basis.num_ub, basis.num_eq)

        # A warm start from the round-tripped basis behaves like the original.
        retry = self._model()
        retry.constraints[0].rhs *= 0.9
        warm = solver.solve(retry, warm_start=clone)
        cold = solver.solve(retry.copy())
        assert warm.status is cold.status
        assert warm.objective_value == pytest.approx(cold.objective_value)

    def test_ilp_model_round_trips_without_memo_caches(self):
        model = self._model()
        form = model.to_matrix()  # populate the model-level memo cache
        assert model._matrix_cache

        clone = pickle.loads(pickle.dumps(model))
        assert clone._matrix_cache == {}
        clone_form = clone.to_matrix()
        self._assert_matrix_equal(form.a_ub, clone_form.a_ub)
        self._assert_matrix_equal(form.a_eq, clone_form.a_eq)
        np.testing.assert_array_equal(form.c, clone_form.c)
        np.testing.assert_array_equal(form.b_ub, clone_form.b_ub)
        np.testing.assert_array_equal(form.b_eq, clone_form.b_eq)
        np.testing.assert_array_equal(clone_form.bounds, form.bounds)

        limits = SolverLimits(relative_gap=1e-9)
        original = BranchAndBoundSolver(limits=limits).solve(model)
        shipped = BranchAndBoundSolver(limits=limits).solve(clone)
        assert original.status is shipped.status
        np.testing.assert_array_equal(original.values, shipped.values)
        assert original.objective_value == shipped.objective_value
