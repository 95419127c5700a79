"""Tests for the ILP model container."""

import numpy as np
import pytest

from repro.core.base_relations import compute_base_relation
from repro.core.translator import constraint_linear_rows, objective_linear, translate_query
from repro.db.expressions import col
from repro.errors import SolverError
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense, Variable
from repro.paql.builder import query_over
from repro.workloads.galaxy import galaxy_table, galaxy_workload


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

    def test_check_feasible(self):
        model = IlpModel()
        model.add_variable("x", lower=0, upper=2)
        model.add_constraint({0: 1.0}, ConstraintSense.GE, 1)
        assert model.check_feasible(np.array([1.0]))
        assert not model.check_feasible(np.array([0.0]))     # Constraint violated.
        assert not model.check_feasible(np.array([3.0]))     # Upper bound violated.
        assert not model.check_feasible(np.array([1.5]))     # Integrality violated.
        assert not model.check_feasible(np.array([1.0, 2.0]))  # Wrong shape.


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


class DictReference:
    """Per-row ``{column: coefficient}`` dicts and plain Python arithmetic:
    what the model's coefficient block must agree with."""

    def __init__(self, lower, upper, integer, rows, objective):
        self.lower, self.upper, self.integer = lower, upper, integer
        self.rows = rows            # [(coefficients, sense, rhs)]
        self.objective = objective  # coefficients

    @staticmethod
    def dot(coefficients, values) -> float:
        return sum(c * float(values[j]) for j, c in coefficients.items())

    def violation(self, row, values) -> float:
        coefficients, sense, rhs = row
        lhs = self.dot(coefficients, values)
        if sense is ConstraintSense.LE:
            return max(0.0, lhs - rhs)
        if sense is ConstraintSense.GE:
            return max(0.0, rhs - lhs)
        return abs(lhs - rhs)

    def check_feasible(self, values, tolerance=1e-6) -> bool:
        for value, low, up, integer in zip(values, self.lower, self.upper, self.integer):
            if value < low - tolerance or value > up + tolerance:
                return False
            if integer and abs(value - round(value)) > tolerance:
                return False
        return all(self.violation(row, values) <= tolerance for row in self.rows)


def _hand_built(rng):
    """A random model through the per-variable API, a third of the cells zero
    (left out of the dict, or handed in as an explicit 0.0)."""
    n, m = int(rng.integers(1, 9)), int(rng.integers(0, 5))
    upper = rng.integers(1, 5, n).astype(float)
    integer = rng.random(n) < 0.7
    model = IlpModel("hand")
    for j in range(n):
        model.add_variable(f"x{j}", 0.0, upper[j], is_integer=bool(integer[j]))
    senses = (ConstraintSense.LE, ConstraintSense.GE, ConstraintSense.EQ)

    def coefficients():
        cells = {j: float(rng.integers(-4, 5)) * 0.25 for j in range(n) if rng.random() < 0.8}
        return {j: c for j, c in cells.items() if c or rng.random() < 0.5}

    rows = []
    for _ in range(m):
        row = (coefficients(), senses[int(rng.integers(3))], float(rng.integers(-3, 8)))
        model.add_constraint(*row)
        rows.append(({j: c for j, c in row[0].items() if c}, row[1], row[2]))
    objective = coefficients()
    model.set_objective(ObjectiveSense.MAXIMIZE, objective)
    return model, DictReference(np.zeros(n), upper, integer, rows, objective)


def _translated(table, query):
    """The translator's model of ``query`` and the same rows as dicts."""
    model = translate_query(table, query).model
    eligible = compute_base_relation(table, query).eligible_indices
    rows = []
    for number, constraint in enumerate(query.global_constraints):
        for linear in constraint_linear_rows(table, eligible, constraint, f"global_{number}"):
            cells = {j: c for j, c in enumerate(linear.coefficients.tolist()) if c}
            rows.append((cells, linear.sense, float(linear.rhs)))
    _, objective = objective_linear(table, eligible, query)
    lower, upper, integer = model.bound_and_integrality_arrays()
    cells = {j: c for j, c in enumerate(objective.tolist()) if c}
    return model, DictReference(lower, upper, integer, rows, cells)


def _assert_agrees(model, reference, rng, trials=25):
    n = model.num_variables
    _, upper, _ = model.bound_and_integrality_arrays()
    cap = np.where(np.isfinite(upper), upper, 3.0)
    outcomes = set()
    for trial in range(trials):
        values = np.floor(rng.random(n) * (cap + 1.0)) * (rng.random(n) < 0.3)
        if trial % 5 == 4:  # off the integer grid and past a bound
            values = values + rng.random(n) * 0.75
        feasible = reference.check_feasible(values)
        outcomes.add(feasible)
        assert model.check_feasible(values) == feasible
        assert model.objective_value(values) == pytest.approx(
            reference.dot(reference.objective, values), rel=1e-12, abs=1e-12
        )
        for constraint, row in zip(model.constraints, reference.rows):
            assert constraint.coefficients == row[0]
            assert constraint.violation(values) == pytest.approx(
                reference.violation(row, values), rel=1e-12, abs=1e-12
            )
    return outcomes


class TestBlockAgainstDictReference:
    """``check_feasible``, ``objective_value`` and each constraint's violation read the
    model's coefficient block; a per-row dict written here says the same."""

    def test_hand_built_models(self):
        rng = np.random.default_rng(20260)
        outcomes = set()
        for _ in range(60):
            model, reference = _hand_built(rng)
            outcomes |= _assert_agrees(model, reference, rng)
        assert outcomes == {True, False}

    def test_translator_built_models(self, recipes):
        rng = np.random.default_rng(20261)
        galaxy = galaxy_table(400, seed=42)
        queries = [(galaxy, galaxy_workload(galaxy).query(name).query) for name in ("Q1", "Q4", "Q7")]
        queries.append((
            recipes,
            query_over("recipes").no_repetition().where(col("gluten") == "free").count_between(1, 40)
            .filtered_count_at_least(col("carbs") > 0, 2).avg_at_most("kcal", 0.8)
            .minimize_sum("saturated_fat").build(),
        ))
        outcomes = set()
        for table, query in queries:
            model, reference = _translated(table, query)
            assert model.num_constraints == len(reference.rows)
            outcomes |= _assert_agrees(model, reference, rng, trials=10)
        assert outcomes == {True, False}
