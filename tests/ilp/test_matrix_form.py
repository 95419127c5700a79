"""Tests for the MatrixForm IR and the model's export to it.

Covers the export contract against literal matrices (row order, negation,
explicit zeros, padding, memoisation), the typed rejection of a constraint
matrix that is not a dense float array, the zero-copy structural sharing
branch-and-bound relies on, the form's runtime immutability (a frozen
dataclass over read-only arrays), the block and mapping entry points of the
model, and the absence of any basis handoff between separate solves.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse as sp

from repro.errors import SolverError
from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits
from repro.ilp.lp_backend import solve_lp, solve_lp_form
from repro.ilp.matrix_form import MatrixForm
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.simplex import _WORK_CACHE_KEY, solve_dense_simplex
from repro.ilp.status import Solution, SolverStatus

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


class TestExportContract:
    def _interleaved(self):
        model = IlpModel()
        for i in range(3):
            model.add_variable(f"x{i}", 0, 2)
        model.add_constraint({0: 1.0, 2: -2.0}, ConstraintSense.LE, 4, name="le0")
        model.add_constraint({1: 3.0}, ConstraintSense.EQ, 3, name="eq0")
        model.add_constraint({0: 1.0, 1: 0.0, 2: 5.0}, ConstraintSense.GE, 1, name="ge0")
        model.add_constraint({0: 7.0, 1: 1.0}, ConstraintSense.EQ, 0, name="eq1")
        model.add_constraint({2: 1.0}, ConstraintSense.LE, -6, name="le1")
        return model

    def test_rows_keep_model_order_and_ge_rows_are_negated(self):
        model = self._interleaved()
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 1.0, 2: -1.0})
        form = model.to_matrix()
        for matrix in (form.a_ub, form.a_eq):
            assert type(matrix) is np.ndarray and matrix.dtype == np.float64
        np.testing.assert_array_equal(
            form.a_ub, [[1.0, 0.0, -2.0], [-1.0, 0.0, -5.0], [0.0, 0.0, 1.0]]
        )
        np.testing.assert_array_equal(form.b_ub, [4.0, -1.0, -6.0])
        np.testing.assert_array_equal(form.a_eq, [[0.0, 3.0, 0.0], [7.0, 1.0, 0.0]])
        np.testing.assert_array_equal(form.b_eq, [3.0, 0.0])
        np.testing.assert_array_equal(form.c, [1.0, 0.0, -1.0])
        assert not form.maximize
        assert [c.name for c in model.constraints] == ["le0", "eq0", "ge0", "eq1", "le1"]

    def test_maximize_objective_is_negated(self):
        model = self._interleaved()
        model.set_objective(ObjectiveSense.MAXIMIZE, {0: 1.0, 2: -1.0})
        form = model.to_matrix()
        np.testing.assert_array_equal(form.c, [-1.0, 0.0, 1.0])
        assert form.maximize

    def test_explicit_zero_is_a_cell_but_not_a_coefficient(self):
        model = self._interleaved()
        assert model.to_matrix().a_ub[1, 1] == 0.0
        assert model.constraints[2].coefficients == {0: 1.0, 2: 5.0}
        assert model.constraints[2].nnz == 2
        assert model.constraint_nnz == 2 + 1 + 2 + 2 + 1
        assert model.to_matrix().nnz == model.constraint_nnz
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 0.0, 1: 2.0})
        assert model.objective.coefficients == {1: 2.0}

    def test_column_added_after_a_row_is_zero_padded(self):
        model = self._interleaved()
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 1.0})
        model.add_variable("late", 0, 1)
        model.add_variables(np.zeros(2), np.ones(2))
        form = model.to_matrix()
        assert form.a_ub.shape == (3, 6) and form.a_eq.shape == (2, 6)
        assert not form.a_ub[:, 3:].any() and not form.a_eq[:, 3:].any()
        np.testing.assert_array_equal(form.a_ub[:, :3], [[1, 0, -2], [-1, 0, -5], [0, 0, 1]])
        np.testing.assert_array_equal(form.c, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        model.add_constraint({3: 2.0, 5: 1.0}, ConstraintSense.LE, 1)
        np.testing.assert_array_equal(model.to_matrix().a_ub[3], [0, 0, 0, 2, 0, 1])

    def test_export_is_the_same_object_until_the_model_changes(self):
        model = self._interleaved()
        form = model.to_matrix()
        assert model.to_matrix() is form
        model.add_constraint({0: 1.0}, ConstraintSense.LE, 9)
        after_row = model.to_matrix()
        assert after_row is not form and model.to_matrix() is after_row
        model.add_variable("late")
        after_column = model.to_matrix()
        assert after_column is not after_row
        model.set_objective(ObjectiveSense.MAXIMIZE, {0: 1.0})
        assert model.to_matrix() is not after_column

    def test_model_arrays_are_read_only(self):
        model = self._interleaved()
        with pytest.raises(ValueError):
            model.constraints[0].row[0] = 9.0
        with pytest.raises(ValueError):
            model.objective.vector[0] = 9.0

    @settings(max_examples=40, deadline=None)
    @given(model=_models())
    def test_random_models_solve_to_the_oracle_optimum(self, model):
        form = model.to_matrix()
        result = solve_lp_form(form)
        reference = oracle_form_lp(form)
        assert result.status.value == reference.status
        if result.status is SolverStatus.OPTIMAL:
            assert result.objective_value == pytest.approx(reference.objective, abs=1e-6)


class TestTypedConstraintMatrices:
    """A constraint matrix that is not a 2-D float ndarray of the objective's
    width is rejected where the form is built, by field name."""

    def _rows(self):
        return (
            np.array([1.0, 1.0]),
            np.array([[1.0, 2.0]]), np.array([4.0]),
            np.empty((0, 2)), np.empty(0),
        )

    def _form(self, **override):
        c, a_ub, b_ub, a_eq, b_eq = self._rows()
        fields = dict(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
                      bounds=(np.zeros(2), np.ones(2)), maximize=False)
        return MatrixForm(**{**fields, **override})

    def test_a_well_typed_form_is_accepted(self):
        assert solve_lp_form(self._form()).status is SolverStatus.OPTIMAL

    @pytest.mark.parametrize("field", ["a_ub", "a_eq"])
    def test_csr_matrix_is_rejected(self, field):
        with pytest.raises(SolverError, match=f"MatrixForm.{field}"):
            self._form(**{field: sp.csr_matrix(np.array([[1.0, 2.0]]))})

    @pytest.mark.parametrize(
        "matrix",
        [np.array([[1.0, 2.0, 3.0]]), np.array([1.0, 2.0]), np.array([[1, 2]]), [[1.0, 2.0]]],
        ids=["wrong_width", "one_dimensional", "integer", "list"],
    )
    def test_wrong_shape_or_type_is_rejected(self, matrix):
        with pytest.raises(SolverError, match="MatrixForm.a_ub"):
            self._form(a_ub=matrix)
        with pytest.raises(SolverError, match="MatrixForm.a_eq"):
            self._form(a_eq=matrix)

    def test_the_simplex_entry_point_inherits_the_check(self):
        c, a_ub, b_ub, a_eq, b_eq = self._rows()
        bounds = [(0.0, 1.0), (0.0, 1.0)]
        with pytest.raises(SolverError, match="MatrixForm.a_ub"):
            solve_dense_simplex(c, sp.csr_matrix(a_ub), b_ub, a_eq, b_eq, bounds)
        with pytest.raises(SolverError, match="MatrixForm.a_eq"):
            solve_dense_simplex(c, a_ub, b_ub, np.empty((0, 3)), b_eq, bounds)


class TestZeroCopySharing:
    def _model(self):
        model = IlpModel()
        for i in range(6):
            model.add_variable(f"x{i}", 0, 1)
        model.add_constraint({i: float(i + 1) for i in range(6)}, ConstraintSense.LE, 9)
        model.add_constraint({0: 1.0, 5: 1.0}, ConstraintSense.GE, 1)
        model.set_objective(ObjectiveSense.MAXIMIZE, {i: 1.0 for i in range(6)})
        return model

    def test_with_bounds_shares_constraint_buffers_and_cache(self):
        form = self._model().to_matrix()
        lower, upper = form.bound_arrays()
        upper[0] = 0.0
        child = form.with_bounds(lower, upper)
        assert child.a_ub is form.a_ub
        assert child.a_eq is form.a_eq
        assert child.c is form.c
        assert child.b_ub is form.b_ub
        assert child.cache is form.cache

    def test_branch_and_bound_tree_assembles_one_working_matrix(self):
        """Every node of the tree shares the single cached simplex work matrix."""
        model = self._model()
        form = model.to_matrix()
        assert _WORK_CACHE_KEY not in form.cache
        solution = BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-9)).solve(model)
        assert solution.status is SolverStatus.OPTIMAL
        work = form.cache[_WORK_CACHE_KEY]
        # A second solve (new tree, same model) reuses the same assembly.
        BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-9)).solve(model)
        assert form.cache[_WORK_CACHE_KEY] is work


def _rebind_b_ub(form):
    form.b_ub = form.b_ub + 1.0


def _write_c(form):
    form.c[0] = 2.0


def _rebind_bounds(form):
    form.bounds = []


def _store_annotated(form):
    reduced: MatrixForm = form
    reduced.maximize = True


class TestImmutability:
    """A form enforces its own immutability: every store through it raises,
    whichever way it was made, while the caller's arrays and the ``cache``
    dict stay writable."""

    def _model(self):
        return TestZeroCopySharing()._model()

    def _arrays(self):
        return dict(
            c=np.array([1.0, 2.0]),
            a_ub=np.array([[1.0, 2.0]]), b_ub=np.array([4.0]),
            a_eq=np.array([[1.0, -1.0]]), b_eq=np.array([0.0]),
            bounds=(np.zeros(2), np.ones(2)),
        )

    def _built(self):
        return MatrixForm(**self._arrays(), maximize=False)

    def _exported(self):
        return self._model().to_matrix()

    def _node(self):
        form = self._model().to_matrix()
        lower, upper = form.bound_arrays()
        return form.with_bounds(lower, upper)

    @pytest.fixture(params=["MatrixForm", "to_matrix", "with_bounds"])
    def form(self, request):
        return {"MatrixForm": self._built, "to_matrix": self._exported,
                "with_bounds": self._node}[request.param]()

    @pytest.mark.parametrize(
        "store, error",
        [
            (_rebind_b_ub, dataclasses.FrozenInstanceError),
            (_write_c, ValueError),
            (_rebind_bounds, dataclasses.FrozenInstanceError),
            (_store_annotated, dataclasses.FrozenInstanceError),
        ],
        ids=["b_ub_rebind", "c_write", "bounds_rebind", "annotated_store"],
    )
    def test_every_store_raises(self, form, store, error):
        before = (form.b_ub.copy(), form.c.copy(), form.bounds, form.maximize)
        with pytest.raises(error):
            store(form)
        np.testing.assert_array_equal(form.b_ub, before[0])
        np.testing.assert_array_equal(form.c, before[1])
        assert form.bounds is before[2] and form.maximize is before[3]

    def test_every_array_is_read_only(self, form):
        arrays = [form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq, *form.bounds]
        assert not any(array.flags.writeable for array in arrays)
        with pytest.raises(ValueError):
            form.bounds[0][1] = 0.5
        with pytest.raises(ValueError):
            form.bounds[1][0] = 0.5
        with pytest.raises(ValueError):
            form.a_ub[0, 0] = 9.0
        with pytest.raises(ValueError):
            form.b_eq[...] = 9.0

    def test_cache_stays_writable_and_shared(self, form):
        form.cache["scratch"] = 1
        lower, upper = form.bound_arrays()
        assert form.with_bounds(lower, upper).cache["scratch"] == 1

    def test_callers_arrays_stay_writable(self):
        arrays = self._arrays()
        form = MatrixForm(**arrays, maximize=False)
        lower, upper = np.zeros(2), np.full(2, 3.0)
        node = form.with_bounds(lower, upper)
        for array in [*(arrays[k] for k in ("c", "a_ub", "b_ub", "a_eq", "b_eq")),
                      *arrays["bounds"], lower, upper]:
            assert array.flags.writeable
        # Views, not copies: branch-and-bound moves a node's bounds in place
        # after the node's LP, and the node's form sees the move.
        upper[1] = 2.0
        assert node.bounds[1][1] == 2.0
        arrays["c"][0] = 5.0
        assert form.c[0] == 5.0

    def test_read_only_arrays_are_held_as_they_are(self):
        frozen = self._arrays()
        for array in (frozen["c"], *frozen["bounds"]):
            array.flags.writeable = False
        built = MatrixForm(**frozen, maximize=False)
        assert built.c is frozen["c"]
        assert built.bounds[0] is frozen["bounds"][0]
        assert built.bounds[1] is frozen["bounds"][1]
        assert built.b_ub is not frozen["b_ub"] and built.b_ub.base is frozen["b_ub"]


class TestModelFastPaths:
    def test_add_constraints_takes_a_block_and_validates_it(self):
        model = IlpModel()
        model.add_variable("x")
        model.add_variable("y")
        block = np.array([[2.0, 0.0], [1.0, 1.0]])
        model.add_constraints(
            block, [ConstraintSense.LE, ConstraintSense.GE], [5.0, 1.0], ["cap", "floor"]
        )
        first, second = model.constraints
        assert first.coefficients == {0: 2.0} and second.coefficients == {0: 1.0, 1: 1.0}
        assert (second.name, second.sense, second.rhs) == ("floor", ConstraintSense.GE, 1.0)
        # The block is taken over, not copied, and frozen.
        assert np.shares_memory(first.row, block) and not block.flags.writeable
        with pytest.raises(SolverError, match="does not match 2 variables"):
            model.add_constraints(np.ones((1, 3)), [ConstraintSense.LE], [1.0], ["wide"])
        with pytest.raises(SolverError, match="does not match 2 variables"):
            model.add_constraints(np.ones(2), [ConstraintSense.LE], [1.0], ["flat"])
        with pytest.raises(SolverError, match="2 rows but 1 senses"):
            model.add_constraints(np.ones((2, 2)), [ConstraintSense.LE], [1.0, 2.0], ["a", "b"])
        with pytest.raises(SolverError, match="does not match 2 variables"):
            model.set_objective_vector(ObjectiveSense.MINIMIZE, np.ones(5))
        assert model.num_constraints == 2

    def test_mapping_input_is_validated(self):
        model = IlpModel()
        model.add_variable("x")
        model.add_variable("y")
        with pytest.raises(SolverError, match="unknown variable index"):
            model.add_constraint({7: 1.0}, ConstraintSense.LE, 1)
        with pytest.raises(SolverError, match="unknown variable index"):
            model.add_constraint({-1: 1.0}, ConstraintSense.LE, 1)
        with pytest.raises(SolverError, match="unknown variable index"):
            model.set_objective(ObjectiveSense.MINIMIZE, {5: 1.0})
        # 0 and 0.5 name the same column once truncated to an index.
        with pytest.raises(SolverError, match="duplicate variable indices"):
            model.add_constraint({0: 1.0, 0.5: 1.0}, ConstraintSense.LE, 1)
        assert model.num_constraints == 0

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
        assert model.objective_value(values) == pytest.approx(2.0 * 3.0 - 4.0)
        assert model.check_feasible(np.array([0.0, 0.0, 0.0, 0.0]))
        assert not model.check_feasible(np.array([2.0, 0.0, 0.0, 0.0]))  # constraint
        assert not model.check_feasible(np.array([0.5, 0.0, 0.0, 0.0]))  # integrality


class TestNoBasisHandoff:
    """A solve returns no basis and accepts none: branch-and-bound starts its
    root from the slack basis and carries bases only from parent to child."""

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

    def test_solution_carries_no_root_basis(self):
        solution = BranchAndBoundSolver().solve(self._model())
        assert solution.status is SolverStatus.OPTIMAL
        assert "root_basis" not in {f.name for f in dataclasses.fields(Solution)}
        assert not hasattr(solution, "root_basis")

    def test_branch_and_bound_takes_no_warm_start(self):
        with pytest.raises(TypeError, match="warm_start"):
            BranchAndBoundSolver().solve(self._model(), warm_start=None)

    def test_solve_lp_takes_no_warm_start(self):
        with pytest.raises(TypeError, match="warm_start"):
            solve_lp(self._model(), warm_start=None)

    def test_node_lps_still_start_from_their_parent(self):
        solution = BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-9)).solve(
            self._model()
        )
        stats = solution.stats
        assert solution.status is SolverStatus.OPTIMAL
        assert stats.nodes_explored > 1
        assert stats.warm_start_hits >= 1
