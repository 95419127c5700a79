"""Branch and bound against the HiGHS oracle on the model it is given.

:class:`BranchAndBoundSolver` solves every model as it comes: no bound
propagation, no column or row dropped before the root LP.  These are the
inputs where a reduction would have changed what the tree sees — crossed and
fractional bounds, rows infeasible or slack at the root, fixed and unbounded
columns, a COUNT row that decides every column — plus random PaQL-shaped
ILPs and the refine ILPs SKETCHREFINE builds on a Galaxy table
(``test_ilp_fuzz.py`` runs the LP fuzz families under all-integer, mixed and
continuous columns).  Each is held
against ``tests/ilp/oracle.py``: the same status, and when that is
``optimal`` the same objective to 1e-6 and a feasible assignment.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import PackageQueryEngine
from repro.core.sketchrefine import PartitionedQuery
from repro.errors import SolverError
from repro.ilp import branch_and_bound
from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits
from repro.ilp.lp_backend import solve_lp, solve_lp_form
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.status import SolverStatus
from repro.workloads.galaxy import galaxy_table

from .oracle import oracle_form_lp, oracle_ilp

OBJECTIVE_TOLERANCE = 1e-6
EXACT = SolverLimits(relative_gap=1e-9, node_limit=4_000)


def assert_matches_oracle(model: IlpModel, limits: SolverLimits = EXACT):
    """Solve ``model`` with warnings as errors; the oracle must agree."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solution = BranchAndBoundSolver(limits=limits).solve(model)
    reference = oracle_ilp(model)
    assert solution.status.value == reference.status
    if reference.status == "optimal":
        assert solution.objective_value == pytest.approx(
            reference.objective, rel=OBJECTIVE_TOLERANCE, abs=OBJECTIVE_TOLERANCE
        )
        assert model.check_feasible(solution.values)
    return solution


def _model(bounds, rows, objective, sense=ObjectiveSense.MAXIMIZE, is_integer=True) -> IlpModel:
    """``bounds``: ``(lower, upper)`` per column (``None``: no upper bound);
    ``rows``: ``({column: coefficient}, sense, rhs)``."""
    model = IlpModel()
    for j, (lower, upper) in enumerate(bounds):
        model.add_variable(f"x{j}", lower, upper, is_integer=is_integer)
    for coefficients, row_sense, rhs in rows:
        model.add_constraint(coefficients, row_sense, rhs)
    model.set_objective(sense, objective)
    return model


LE, GE, EQ = ConstraintSense.LE, ConstraintSense.GE, ConstraintSense.EQ


def budget_model() -> IlpModel:
    """0/1 knapsack where x0 and x5 can never fit and x4 is excluded."""
    return _model(
        [(0, 1)] * 6,
        [({0: 5.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 20.0}, LE, 4.0), ({4: 1.0}, LE, 0.0)],
        {i: float(i + 1) for i in range(6)},
    )


#: name -> (model builder, the optimum: an objective, or a status string).
EDGE_CASES = {
    "overweight_columns": (budget_model, 9.0),
    "row_infeasible_at_the_root": (
        lambda: _model([(0, 1)] * 2, [({0: 1.0, 1: 1.0}, GE, 3.0)], {0: 1.0},
                       ObjectiveSense.MINIMIZE),
        "infeasible",
    ),
    "rows_cross_a_bound": (
        lambda: _model([(0, 10)], [({0: 1.0}, LE, 2.0), ({0: 1.0}, GE, 5.0)], {0: 1.0},
                       ObjectiveSense.MINIMIZE, is_integer=False),
        "infeasible",
    ),
    "fractional_bounds_hold_no_integer": (
        lambda: _model([(0.3, 0.7), (0, 1)], [({0: 1.0, 1: 1.0}, LE, 2.0)], {0: 1.0, 1: 1.0}),
        "infeasible",
    ),
    "rows_that_can_never_bind": (
        lambda: _model([(0, 1)] * 2, [({0: 1.0, 1: 1.0}, LE, 5.0), ({0: 2.0}, LE, 6.0)],
                       {0: 1.0, 1: 2.0}),
        3.0,
    ),
    "column_fixed_by_its_bounds": (
        lambda: _model([(2, 2), (0, 5)], [({1: 1.0}, LE, 3.0)], {0: 10.0, 1: 1.0},
                       is_integer=False),
        23.0,
    ),
    "integer_columns_fixed_by_their_bounds": (
        lambda: _model([(1, 1), (0, 0), (0, 3)], [({0: 1.0, 1: 1.0, 2: 1.0}, LE, 2.5)],
                       {0: -4.0, 1: 9.0, 2: 2.0}),
        -2.0,
    ),
    "count_row_decides_every_column": (
        lambda: _model([(0, 1)] * 2, [({0: 1.0, 1: 1.0}, EQ, 2.0)], {0: 3.0, 1: 4.0},
                       ObjectiveSense.MINIMIZE),
        7.0,
    ),
    "fractional_bounds_on_integer_columns": (
        lambda: _model([(0.5, 2.7), (0.2, 1.9)], [({0: 1.0, 1: 1.0}, LE, 3.6)],
                       {0: 1.0, 1: 1.0}),
        3.0,
    ),
    "fractional_lower_bound_minimised": (
        lambda: _model([(0.5, 2.7)], [], {0: 1.0}, ObjectiveSense.MINIMIZE),
        1.0,
    ),
    "unbounded_column_capped_by_a_row": (
        lambda: _model([(0, None), (0, 1)], [({0: 2.0, 1: 1.0}, LE, 7.0)], {0: 1.0, 1: 0.5}),
        3.5,
    ),
    "unbounded_column_outside_every_row": (
        lambda: _model([(0, 3), (0, None)], [({0: 1.0}, LE, 2.0)], {0: 1.0, 1: 1.0},
                       ObjectiveSense.MINIMIZE),
        0.0,
    ),
    "equality_row_with_a_negative_coefficient": (
        lambda: _model([(0, 10), (0, 10)], [({0: 1.0, 1: -1.0}, EQ, 0.0)], {0: 1.0},
                       ObjectiveSense.MINIMIZE, is_integer=False),
        0.0,
    ),
    "infeasible_equality_pair": (
        # HiGHS' MIP presolve answers this one with "Solve error", so it also
        # pins the oracle's second attempt.
        lambda: _model(
            [(0, 2), (0, 1), (0, 1), (0, 1)],
            [({i: 1.0 for i in range(4)}, EQ, 2.0),
             ({0: 7.698, 1: 0.078, 2: 1.519, 3: 0.567}, EQ, 1.043)],
            {0: -0.453, 1: -0.216, 2: -2.02, 3: -0.232},
        ),
        "infeasible",
    ),
}


class TestEdgeCases:
    @pytest.mark.parametrize("name", EDGE_CASES)
    def test_branch_and_bound_matches_the_oracle(self, name):
        build, expected = EDGE_CASES[name]
        solution = assert_matches_oracle(build())
        if isinstance(expected, str):
            assert solution.status.value == expected
        else:
            assert solution.status is SolverStatus.OPTIMAL
            assert solution.objective_value == pytest.approx(expected)

    @pytest.mark.parametrize("name", EDGE_CASES)
    def test_lp_relaxation_matches_the_oracle(self, name):
        model = EDGE_CASES[name][0]()
        relaxation = solve_lp(model)
        reference = oracle_form_lp(model.to_matrix())
        assert relaxation.status.value == reference.status
        if reference.status == "optimal":
            assert relaxation.objective_value == pytest.approx(reference.objective, abs=1e-9)

    def test_crossed_bounds_are_refused_by_the_model_and_infeasible_at_a_node(self):
        """A model cannot hold them; a node LP's bounds (a branch, a fixing)
        can cross, and its LP says infeasible."""
        with pytest.raises(SolverError, match="upper bound"):
            IlpModel().add_variable("x", 2, 1)
        with pytest.raises(SolverError, match="below its lower bound"):
            IlpModel().add_variables(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
        form = budget_model().to_matrix()
        lower, upper = form.bound_arrays()
        lower[2], upper[2] = 1.0, 0.0
        assert solve_lp_form(form.with_bounds(lower, upper)).status is SolverStatus.INFEASIBLE

    def test_an_infeasible_root_takes_one_lp_and_no_branch(self):
        solution = BranchAndBoundSolver().solve(EDGE_CASES["row_infeasible_at_the_root"][0]())
        assert solution.status is SolverStatus.INFEASIBLE
        assert (solution.stats.nodes_explored, solution.stats.lp_solves) == (1, 1)

    def test_a_count_row_that_decides_every_column_is_answered_by_the_root_lp(self):
        solution = BranchAndBoundSolver().solve(EDGE_CASES["count_row_decides_every_column"][0]())
        assert solution.values.tolist() == [1.0, 1.0]
        assert (solution.stats.nodes_explored, solution.stats.lp_solves) == (1, 1)
        assert solution.stats.vars_fixed == 0

    def test_fractional_bounds_never_yield_a_fractional_incumbent(self):
        """The rounding heuristic clips to the bounds; a clip back onto a
        fractional bound must fail the integrality check, not win."""
        for sense in ObjectiveSense:
            model = _model([(0.5, 2.7), (0.2, 1.9)], [({0: 1.0, 1: 1.0}, LE, 3.6)],
                           {0: 1.0, 1: -1.0}, sense)
            solution = assert_matches_oracle(model)
            assert np.array_equal(solution.values, np.rint(solution.values))


class TestPresolveStub:
    """``presolve_form`` stays only because the benchmark's tracer wraps it."""

    def test_the_tracer_finds_it_in_the_module_and_it_returns_its_form(self):
        form = budget_model().to_matrix()
        assert vars(branch_and_bound)["presolve_form"](form) is form

    def test_a_solve_never_calls_it(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("presolve_form was called")

        monkeypatch.setattr(branch_and_bound, "presolve_form", refuse)
        assert BranchAndBoundSolver().solve(budget_model()).objective_value == 9.0


@st.composite
def paql_shaped_models(draw):
    """Random 0/1 package-query-shaped ILPs: COUNT row + SUM windows."""
    n = draw(st.integers(min_value=4, max_value=14))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    model = IlpModel()
    for i in range(n):
        model.add_variable(f"t{i}", 0, draw(st.sampled_from([1, 1, 2])))
    count = draw(st.integers(min_value=1, max_value=max(1, n // 2)))
    sense = draw(st.sampled_from([ConstraintSense.EQ, ConstraintSense.LE]))
    model.add_constraint({i: 1.0 for i in range(n)}, sense, float(count), name="count")
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        weights = rng.lognormal(0.0, 1.0, n).round(3)
        if draw(st.booleans()):
            # AVG-style linearisations subtract the bound from every
            # coefficient: mixed-sign rows.
            weights = weights - float(np.median(weights))
        direction = draw(st.sampled_from([ConstraintSense.LE, ConstraintSense.GE, ConstraintSense.EQ]))
        # Budgets around the expected package weight keep a mix of feasible
        # and infeasible instances, with some columns individually too heavy.
        budget = float(np.median(np.abs(weights)) * count * draw(st.floats(0.5, 2.0)))
        model.add_constraint(
            {i: float(w) for i, w in enumerate(weights)}, direction, budget, name=f"sum{k}"
        )
    objective = rng.normal(0.0, 1.0, n).round(3)
    sense = draw(st.sampled_from([ObjectiveSense.MAXIMIZE, ObjectiveSense.MINIMIZE]))
    model.set_objective(sense, {i: float(c) for i, c in enumerate(objective)})
    return model


class TestPaqlShapedProperties:
    @settings(max_examples=40, deadline=None)
    @given(model=paql_shaped_models())
    def test_ilp_solve_matches_the_oracle(self, model):
        assert_matches_oracle(model)

    @settings(max_examples=40, deadline=None)
    @given(model=paql_shaped_models())
    def test_lp_relaxation_matches_the_oracle(self, model):
        relaxation = solve_lp(model)
        reference = oracle_form_lp(model.to_matrix())
        assert relaxation.status.value == reference.status
        if reference.status == "optimal":
            assert relaxation.objective_value == pytest.approx(reference.objective, abs=1e-6)
            lower, upper, _ = model.bound_and_integrality_arrays()
            assert np.all(relaxation.values >= lower - 1e-6)
            assert np.all(relaxation.values <= upper + 1e-6)


@pytest.fixture(scope="module")
def galaxy_refine_models(refine_shaped_query):
    """Refine ILPs over the largest groups of a Galaxy partitioning: one
    group's tuples as 0/1 columns under a COUNT equality and two two-sided SUM
    rows, the rest of the package standing at the table's means."""
    table = galaxy_table(2_400, seed=42)
    engine = PackageQueryEngine()
    engine.register_table(table, name="galaxy")
    partitioning = engine.build_partitioning(
        "galaxy", ["petroMag_r", "redshift", "petroFlux_r"], size_threshold=250
    )
    cardinality = 300
    problem = PartitionedQuery.build(
        table, refine_shaped_query(table, "galaxy", cardinality), partitioning
    )
    largest = sorted(problem.eligible_groups, key=lambda gid: -len(problem.groups[gid]))[:6]
    models = []
    # The group's share of the package: a few tuples (its COUNT row binds a
    # few branches down) up to a third.
    for gid, share in zip(largest, (2, 4, 8, 16, 32, 64)):
        fixed = (cardinality - share) * problem.linearisation.constraint_matrix.mean(axis=1)
        models.append(problem.refine_model(gid, fixed))
    return models


@pytest.mark.parametrize("index", range(6))
def test_galaxy_refine_models_match_the_oracle(galaxy_refine_models, index):
    assert_matches_oracle(galaxy_refine_models[index], SolverLimits(relative_gap=1e-9))
