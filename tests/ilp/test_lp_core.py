"""A wide cold LP solved over a core of columns and certified by pricing.

:func:`~repro.ilp.lp_backend.solve_lp_form` solves a cold LP of more than
``4 * _CORE_COLUMNS`` columns over the cheapest ``_CORE_COLUMNS`` first, every
other column held at its lower bound, prices every column with the core's
duals, grows the core by the columns that price negative and solves again
until none does.  An infeasible core widens fourfold, up to the full LP.  The
answer must be the full LP's: the in-house simplex over all columns and HiGHS
agree with it, and the exported basis and reduced costs are those of an
optimal basis of the full LP.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.ilp.lp_backend as lp_backend
from repro.core.translator import translate_query
from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.lp_backend import _CORE_COLUMNS, solve_lp_form
from repro.ilp.matrix_form import MatrixForm
from repro.ilp.simplex import (
    AT_LOWER,
    AT_UPPER,
    BASIC,
    SimplexStatus,
    _BoundedRevisedSimplex,
    _EPSILON,
    _WorkMatrix,
)
from repro.ilp.status import SolverStatus
from repro.workloads.galaxy import galaxy_table, galaxy_workload

from .oracle import oracle_form_lp
from .test_cold_start import count_window_form

WIDTHS = (4 * _CORE_COLUMNS + 1, 2_500, 7_000, 20_000)


def knapsack_window_form(n: int, seed: int) -> MatrixForm:
    """Maximise value over columns boxed in ``[0, 1..3]`` with a SUM budget
    and a SUM floor on two weights, no COUNT row."""
    rng = np.random.default_rng(seed)
    value = rng.lognormal(0.0, 1.0, n).round(3)
    weight = rng.uniform(1.0, 10.0, size=(2, n)).round(3)
    k = 25.0
    return MatrixForm(
        c=-value, a_ub=np.vstack([weight[0], -weight[1]]),
        b_ub=np.array([6.0 * k, -4.0 * k]), a_eq=np.empty((0, n)), b_eq=np.empty(0),
        bounds=(np.zeros(n), rng.integers(1, 4, n).astype(float)), maximize=False,
    )


def mixed_rows_form(n: int, seed: int) -> MatrixForm:
    """Signed costs and ``<=``, ``>=`` (negated) and ``=`` rows of mixed sign
    around a feasible point off the lower bounds on 150 columns, with lower
    bounds of 0 or 1 on one column in five."""
    rng = np.random.default_rng(seed)
    lower = np.where(rng.random(n) < 0.2, 1.0, 0.0)
    upper = lower + rng.integers(1, 4, n)
    point = lower.copy()
    moved = rng.choice(n, 150, replace=False)
    point[moved] += rng.random(150) * (upper[moved] - lower[moved])
    a = rng.normal(0.0, 1.0, size=(5, n)).round(3)
    a[0] = 1.0
    at_point = a @ point
    slack = rng.uniform(1.0, 5.0, 4)
    return MatrixForm(
        c=rng.normal(0.0, 1.0, n).round(3),
        a_ub=np.vstack([a[1:3], -a[3:5]]),
        b_ub=np.concatenate([at_point[1:3] + slack[:2], -(at_point[3:5] - slack[2:])]),
        a_eq=a[:1], b_eq=at_point[:1], bounds=(lower, upper), maximize=False,
    )


FAMILIES = {
    "count_window": lambda n, seed: count_window_form(n, float(max(5, n // 400)), seed),
    "knapsack_window": knapsack_window_form,
    "mixed_rows": mixed_rows_form,
}


def full_solve(form: MatrixForm):
    """The simplex over every column, as a cold solve of a narrow LP runs."""
    return _BoundedRevisedSimplex(_WorkMatrix(form), *form.bounds).solve()


def assert_close(value: float, expected: float) -> None:
    assert abs(value - expected) <= 1e-9 * max(1.0, abs(expected)), (value, expected)


def assert_optimal_for_the_full_lp(form: MatrixForm, result) -> None:
    """``x`` meets bounds and rows, and the exported basis's nonbasic reduced
    costs have the sign of the bound each column sits at."""
    lower, upper = form.bounds
    x = result.values
    assert x.shape == (form.num_variables,)
    assert (x >= lower - 1e-7).all() and (x <= upper + 1e-7).all()
    assert (form.a_ub @ x <= form.b_ub + 1e-7 * np.maximum(1.0, np.abs(form.b_ub))).all()
    assert np.allclose(form.a_eq @ x, form.b_eq, rtol=0.0, atol=1e-7 * np.abs(form.b_eq).max(initial=1.0))
    d = result.reduced_costs
    status = result.basis.status[: form.num_variables]
    movable = lower < upper
    assert (d[(status == AT_LOWER) & movable] >= -_EPSILON).all()
    assert (d[(status == AT_UPPER) & movable] <= _EPSILON).all()
    assert np.array_equal(x[status == AT_LOWER], lower[status == AT_LOWER])
    assert np.count_nonzero(result.basis.status == BASIC) == len(result.basis.basic)
    assert (result.basis.status[result.basis.basic] == BASIC).all()


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("n", WIDTHS)
def test_the_core_optimum_is_the_full_lps(family, n):
    for seed in range(2):
        form = FAMILIES[family](n, seed)
        result = solve_lp_form(form)
        assert result.status is SolverStatus.OPTIMAL
        assert result.sift_rounds >= 1 and _CORE_COLUMNS <= result.core_columns
        assert not result.warm_start_used
        full = full_solve(form)
        assert full.status is SimplexStatus.OPTIMAL
        assert_close(result.objective_value, full.objective)
        assert_close(result.objective_value, oracle_form_lp(form).objective)
        assert_optimal_for_the_full_lp(form, result)


def test_the_core_is_the_cheapest_columns_and_one_round_certifies_it():
    """A COUNT window over 20 000 columns: the 300 most valuable columns hold
    the optimum."""
    form = count_window_form(20_000, 10.0, seed=3)
    result = solve_lp_form(form)
    assert (result.core_columns, result.sift_rounds) == (_CORE_COLUMNS, 1)
    cheapest = np.argsort(form.c, kind="stable")[:_CORE_COLUMNS]
    outside = np.setdiff1d(np.arange(form.num_variables), cheapest)
    assert (result.values[outside] == 0.0).all()
    assert (result.basis.status[outside] == AT_LOWER).all()


def test_an_infeasible_core_widens_fourfold():
    """The 300 cheapest columns carry no weight, so they cannot meet the
    ``>=`` row; the 1 200 cheapest can."""
    n = 2_000
    c = np.concatenate([np.linspace(-3.0, -2.0, _CORE_COLUMNS), np.linspace(-1.0, 0.0, n - _CORE_COLUMNS)])
    weight = np.concatenate([np.zeros(_CORE_COLUMNS), np.ones(n - _CORE_COLUMNS)])
    form = MatrixForm(
        c=c, a_ub=np.vstack([-weight, np.ones(n)]), b_ub=np.array([-20.0, 400.0]),
        a_eq=np.empty((0, n)), b_eq=np.empty(0), bounds=(np.zeros(n), np.ones(n)),
        maximize=False,
    )
    result = solve_lp_form(form)
    assert result.status is SolverStatus.OPTIMAL
    assert 4 * _CORE_COLUMNS <= result.core_columns < n and result.sift_rounds >= 1
    assert_close(result.objective_value, full_solve(form).objective)
    assert_close(result.objective_value, oracle_form_lp(form).objective)
    assert_optimal_for_the_full_lp(form, result)


def test_an_outside_column_that_prices_negative_joins_the_core():
    """The 300 most valuable columns weigh 10 a unit of value; every other is
    worth 9 and weighs 1, so under the budget's dual it prices negative."""
    n = 2_000
    value = np.concatenate([np.full(_CORE_COLUMNS, 10.0), np.full(n - _CORE_COLUMNS, 9.0)])
    weight = np.concatenate([np.full(_CORE_COLUMNS, 10.0), np.ones(n - _CORE_COLUMNS)])
    form = MatrixForm(
        c=-value, a_ub=weight[None, :], b_ub=np.array([50.0]), a_eq=np.empty((0, n)),
        b_eq=np.empty(0), bounds=(np.zeros(n), np.ones(n)), maximize=False,
    )
    result = solve_lp_form(form)
    assert result.sift_rounds >= 2
    assert result.core_columns > _CORE_COLUMNS
    assert_close(result.objective_value, -450.0)
    assert_close(result.objective_value, full_solve(form).objective)
    assert_optimal_for_the_full_lp(form, result)


def test_an_infeasible_lp_is_reported_only_once_the_core_holds_every_column(monkeypatch):
    n = 2_000
    form = MatrixForm(
        c=np.linspace(0.0, 1.0, n), a_ub=np.empty((0, n)), b_ub=np.empty(0),
        a_eq=np.ones((1, n)), b_eq=np.array([n + 1.0]), bounds=(np.zeros(n), np.ones(n)),
        maximize=False,
    )
    solved = []
    solve = lp_backend.solve_form_simplex

    def spied(core_form, warm_start=None):
        result = solve(core_form, warm_start=warm_start)
        solved.append((core_form.num_variables, result.status))
        return result

    monkeypatch.setattr(lp_backend, "solve_form_simplex", spied)
    result = solve_lp_form(form)
    assert result.status is SolverStatus.INFEASIBLE
    assert solved == [
        (_CORE_COLUMNS, SimplexStatus.INFEASIBLE),
        (4 * _CORE_COLUMNS, SimplexStatus.INFEASIBLE),
        (n, SimplexStatus.INFEASIBLE),
    ]
    assert (result.core_columns, result.sift_rounds) == (n, 0)


def test_an_unbounded_core_is_an_unbounded_lp():
    """Column 0 is the cheapest, has no upper bound and appears in no row."""
    n = 2_000
    c = np.linspace(0.0, 1.0, n)
    c[0] = -1.0
    a_ub = np.ones((1, n))
    a_ub[0, 0] = 0.0
    upper = np.ones(n)
    upper[0] = np.inf
    form = MatrixForm(
        c=c, a_ub=a_ub, b_ub=np.array([5.0]), a_eq=np.empty((0, n)), b_eq=np.empty(0),
        bounds=(np.zeros(n), upper), maximize=False,
    )
    result = solve_lp_form(form)
    assert result.status is SolverStatus.UNBOUNDED
    assert result.core_columns == _CORE_COLUMNS
    assert oracle_form_lp(form).status == "unbounded"


def test_outside_columns_held_at_nonzero_lower_bounds_shift_the_rows():
    """Every column has a lower bound of 1 or 2; the outside ones stay there
    and the core's right-hand sides account for them."""
    n = 3_000
    rng = np.random.default_rng(11)
    lower = rng.integers(1, 3, n).astype(float)
    upper = lower + 2.0
    weight = rng.uniform(1.0, 3.0, n).round(3)
    form = MatrixForm(
        c=-rng.lognormal(0.0, 1.0, n).round(3),
        a_ub=np.vstack([weight, -weight]), b_ub=np.array([weight @ lower + 40.0, -(weight @ lower + 10.0)]),
        a_eq=np.ones((1, n)), b_eq=np.array([lower.sum() + 20.0]), bounds=(lower, upper),
        maximize=False,
    )
    result = solve_lp_form(form)
    assert result.status is SolverStatus.OPTIMAL
    assert result.core_columns < n
    assert_close(result.objective_value, full_solve(form).objective)
    assert_close(result.objective_value, oracle_form_lp(form).objective)
    assert_optimal_for_the_full_lp(form, result)


def test_a_branching_ilp_over_a_core_root_warm_starts_every_node(monkeypatch):
    """``direct_mix``'s ``small.Q1`` (1 600 columns) branches; its children
    install the core's basis in the full column space."""
    table = galaxy_table(1_600, seed=42)
    model = translate_query(table, galaxy_workload(table).query("Q1").query).model
    assert model.num_variables > 4 * _CORE_COLUMNS
    solution = BranchAndBoundSolver().solve(model)
    stats = solution.stats
    assert stats.nodes_explored > 1
    assert stats.warm_start_hits == stats.lp_solves - 1
    assert stats.numerical_retries == 0
    assert (stats.core_columns, stats.sift_rounds) == (_CORE_COLUMNS, 1)

    monkeypatch.setattr(lp_backend, "_CORE_COLUMNS", model.num_variables)
    whole = BranchAndBoundSolver().solve(model)
    assert whole.stats.core_columns == 0
    assert np.array_equal(solution.integral_values(), whole.integral_values())
    assert solution.objective_value == whole.objective_value
