"""Tests for the ILP model container."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense, Variable


class TestVariables:
    def test_add_variable_assigns_index(self):
        model = IlpModel()
        x = model.add_variable("x")
        y = model.add_variable("y", lower=1, upper=3)
        assert (x.index, y.index) == (0, 1)
        assert model.num_variables == 2

    def test_duplicate_name_rejected(self):
        model = IlpModel()
        model.add_variable("x")
        with pytest.raises(SolverError):
            model.add_variable("x")

    def test_invalid_bounds_rejected(self):
        with pytest.raises(SolverError):
            Variable("x", lower=2.0, upper=1.0)

    def test_variable_by_name(self):
        model = IlpModel()
        model.add_variable("x")
        assert model.variable_by_name("x").index == 0
        with pytest.raises(SolverError):
            model.variable_by_name("missing")


class TestConstraints:
    def test_add_constraint_drops_zero_coefficients(self):
        model = IlpModel()
        model.add_variable("x")
        model.add_variable("y")
        constraint = model.add_constraint({0: 1.0, 1: 0.0}, ConstraintSense.LE, 5)
        assert constraint.coefficients == {0: 1.0}

    def test_unknown_variable_index_rejected(self):
        model = IlpModel()
        model.add_variable("x")
        with pytest.raises(SolverError):
            model.add_constraint({3: 1.0}, ConstraintSense.LE, 1)

    def test_constraint_evaluation_and_violation(self):
        model = IlpModel()
        model.add_variable("x")
        model.add_variable("y")
        le = model.add_constraint({0: 1.0, 1: 2.0}, ConstraintSense.LE, 5, name="le")
        ge = model.add_constraint({0: 1.0}, ConstraintSense.GE, 2, name="ge")
        eq = model.add_constraint({1: 1.0}, ConstraintSense.EQ, 1, name="eq")
        values = np.array([1.0, 1.0])
        assert le.evaluate(values) == 3.0
        assert le.is_satisfied(values)
        assert ge.violation(values) == 1.0
        assert eq.is_satisfied(values)
        assert not ge.is_satisfied(values)


class TestObjectiveAndFeasibility:
    def test_objective_evaluation(self):
        model = IlpModel()
        model.add_variable("x")
        model.add_variable("y")
        model.set_objective(ObjectiveSense.MAXIMIZE, {0: 2.0, 1: 3.0})
        assert model.objective_value(np.array([1.0, 2.0])) == 8.0

    def test_sense_better(self):
        assert ObjectiveSense.MINIMIZE.better(1.0, 2.0)
        assert ObjectiveSense.MAXIMIZE.better(2.0, 1.0)
        assert ObjectiveSense.MINIMIZE.worst_value == float("inf")

    def test_pure_feasibility_flag(self):
        model = IlpModel()
        model.add_variable("x")
        assert model.is_pure_feasibility
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 1.0})
        assert not model.is_pure_feasibility

    def test_check_feasible(self):
        model = IlpModel()
        model.add_variable("x", lower=0, upper=2)
        model.add_constraint({0: 1.0}, ConstraintSense.GE, 1)
        assert model.check_feasible(np.array([1.0]))
        assert not model.check_feasible(np.array([0.0]))     # Constraint violated.
        assert not model.check_feasible(np.array([3.0]))     # Upper bound violated.
        assert not model.check_feasible(np.array([1.5]))     # Integrality violated.
        assert not model.check_feasible(np.array([1.0, 2.0]))  # Wrong shape.

    def test_total_violation(self):
        model = IlpModel()
        model.add_variable("x")
        model.add_constraint({0: 1.0}, ConstraintSense.GE, 3)
        model.add_constraint({0: 1.0}, ConstraintSense.LE, 1)
        assert model.total_violation(np.array([2.0])) == 2.0


class TestDenseExportAndCopy:
    def test_dense_form_minimisation(self):
        model = IlpModel()
        model.add_variable("x", upper=4)
        model.add_variable("y")
        model.add_constraint({0: 1.0, 1: 1.0}, ConstraintSense.LE, 10)
        model.add_constraint({0: 1.0}, ConstraintSense.GE, 1)
        model.add_constraint({1: 2.0}, ConstraintSense.EQ, 4)
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 1.0, 1: 5.0})
        form = model.to_matrix()
        assert form.a_ub.shape == (2, 2)     # GE rows are negated into <= rows.
        assert form.a_eq.shape == (1, 2)
        lower, upper = form.bounds
        assert lower.tolist() == [0.0, 0.0]
        assert upper.tolist() == [4.0, np.inf]
        assert not form.maximize
        assert form.objective_from_min(7.0) == 7.0

    def test_dense_form_maximisation_negates(self):
        model = IlpModel()
        model.add_variable("x")
        model.set_objective(ObjectiveSense.MAXIMIZE, {0: 3.0})
        form = model.to_matrix()
        assert form.c[0] == -3.0
        assert form.objective_from_min(-6.0) == 6.0

    def test_copy_is_deep(self):
        model = IlpModel("original")
        model.add_variable("x", upper=1)
        model.add_constraint({0: 1.0}, ConstraintSense.LE, 1, name="cap")
        model.set_objective(ObjectiveSense.MAXIMIZE, {0: 1.0})
        clone = model.copy()
        clone.add_variable("y")
        clone.add_constraint({1: 1.0}, ConstraintSense.LE, 2)
        assert model.num_variables == 1
        assert model.num_constraints == 1
        assert clone.num_variables == 2
        assert repr(model).startswith("IlpModel")
