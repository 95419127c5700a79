"""The cold LP: dual simplex from the slack basis, long dual steps, and the
dual penalties that break branching ties.

A cold solve starts from the slack basis with every column at the bound its
cost prefers, which is dual feasible, and the dual simplex takes long
(bound-flipping) steps from there; a column without that bound sends the solve
two-phase, and ``SolveStats.two_phase_starts`` counts it.  Branch-and-bound
breaks most-fractional ties by each tied column's one-pivot dual penalty
(Driebeek), which must be a valid bound on what its children's LPs lose.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

import repro.ilp.branch_and_bound as branch_and_bound
from repro.core.engine import PackageQueryEngine
from repro.core.naive import ExhaustiveSearchEvaluator
from repro.core.validation import objective_value
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.lp_backend import solve_lp_form
from repro.ilp.matrix_form import MatrixForm
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.simplex import (
    SimplexStatus,
    _BoundedRevisedSimplex,
    _long_step,
    _WorkMatrix,
    branching_penalties,
    solve_form_simplex,
)
from repro.paql.builder import query_over
from repro.workloads.galaxy import galaxy_table, galaxy_workload

PARTITION_ATTRIBUTES = ["petroMag_r", "redshift", "petroFlux_r"]


def count_window_form(n: int, count: float, seed: int) -> MatrixForm:
    """Maximise a positive value over ``n`` 0/1 columns, with ``COUNT = count``
    and ``4 count <= SUM(weight) <= 6 count``."""
    rng = np.random.default_rng(seed)
    value = rng.lognormal(0.0, 1.0, n).round(3)
    weight = rng.uniform(0.0, 10.0, n).round(3)
    return MatrixForm(
        c=-value, a_ub=np.vstack([weight, -weight]), b_ub=np.array([6.0, -4.0]) * count,
        a_eq=np.ones((1, n)), b_eq=np.array([count]),
        bounds=(np.zeros(n), np.ones(n)), maximize=False,
    )


def highs_objective(form: MatrixForm) -> float:
    lower, upper = form.bounds
    result = linprog(
        form.c, A_ub=form.a_ub, b_ub=form.b_ub, A_eq=form.a_eq, b_eq=form.b_eq,
        bounds=np.column_stack([lower, upper]), method="highs",
    )
    assert result.status == 0
    return float(result.fun)


class TestSlackStart:
    def test_a_wide_count_window_takes_a_few_long_steps(self):
        """Every column starts at its upper bound, 4 990 over the COUNT: the
        first dual step flips thousands of them back at once."""
        form = count_window_form(5_000, 10.0, seed=5)
        solver = _BoundedRevisedSimplex(_WorkMatrix(form), *form.bounds)
        flips: list[tuple[int, int]] = []
        flip, dual = solver._flip, solver._dual
        dual_iterations = []

        def recorded_flip(cols):
            flips.append((solver.iterations, len(cols)))
            flip(cols)

        def counted_dual():
            before = solver.iterations
            status = dual()
            dual_iterations.append(solver.iterations - before)
            return status

        solver._flip, solver._dual = recorded_flip, counted_dual
        result = solver.solve()
        assert result.status is SimplexStatus.OPTIMAL and not result.two_phase
        assert dual_iterations and dual_iterations[0] <= 6
        assert flips[0][0] == 1 and flips[0][1] >= 1_000
        expected = highs_objective(form)
        assert abs(result.objective - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_a_maximised_column_without_an_upper_bound_goes_two_phase(self):
        form = MatrixForm(
            c=np.array([-1.0, -1.0, 0.0]),
            a_ub=np.array([[2.0, -1.0, 1.0], [-1.0, 2.0, 1.0]]), b_ub=np.array([3.0, 3.0]),
            a_eq=np.empty((0, 3)), b_eq=np.empty(0),
            bounds=(np.zeros(3), np.full(3, np.inf)), maximize=False,
        )
        result = solve_form_simplex(form)
        assert result.status is SimplexStatus.OPTIMAL and result.two_phase
        assert result.objective == pytest.approx(highs_objective(form), abs=1e-9)


class TestLongStep:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_the_step_is_the_first_breakpoint_that_absorbs_the_infeasibility(self, seed):
        """Against the definition over a full sort.  Integer capacities keep
        every partial sum exact, so the two ends of the order agree."""
        rng = np.random.default_rng(seed)
        size = int(rng.choice([1, 5, 40, 300, 3_000]))
        ratios = rng.integers(0, max(2, size // 2), size).astype(float)
        capacities = rng.integers(0, 4, size).astype(float)
        if rng.random() < 0.2:
            capacities[rng.integers(size)] = np.inf
        infeasibility = float(rng.integers(1, int(np.nansum(capacities[np.isfinite(capacities)])) + 3))

        order = np.argsort(ratios, kind="stable")
        reached = np.cumsum(capacities[order]) >= infeasibility
        expected = ratios[order[reached.argmax()]] if reached.any() else ratios.max()
        assert _long_step(ratios, capacities, infeasibility) == expected

    def test_a_nan_infeasibility_takes_the_smallest_ratio(self):
        ratios = np.array([3.0, 1.0, 2.0])
        assert _long_step(ratios, np.array([1.0, 1.0, 1.0]), float("nan")) == 1.0


# -- branching ties --------------------------------------------------------------------

def count_constrained_form(rng) -> MatrixForm:
    """A random 0/1 LP with a COUNT equality and one or two SUM rows, some
    columns already fixed as a branch-and-bound node fixes them, and on one
    instance in five a last, FREE zero-cost column in the SUM rows."""
    n = int(rng.integers(4, 30))
    count = float(rng.integers(1, n))
    weights = rng.integers(1, 20, size=(int(rng.integers(1, 3)), n)).astype(float)
    budgets = np.median(weights, axis=1) * count * rng.uniform(0.6, 1.4, len(weights))
    lower, upper = np.zeros(n), np.ones(n)
    fixed = rng.random(n) < 0.15
    lower[fixed] = upper[fixed] = rng.integers(0, 2, int(fixed.sum()))
    c, a_eq = rng.integers(-9, 10, n).astype(float), np.ones((1, n))
    if rng.random() < 0.2:
        weights = np.column_stack([weights, rng.integers(-5, 6, len(weights))])
        c, a_eq = np.append(c, 0.0), np.append(a_eq, 0.0)[None, :]
        lower, upper = np.append(lower, -np.inf), np.append(upper, np.inf)
    return MatrixForm(
        c=c, a_ub=weights, b_ub=budgets.round(1), a_eq=a_eq, b_eq=np.array([count]),
        bounds=(lower, upper), maximize=False,
    )


class TestBranchingPenalties:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(seed=345)  # a nonbasic FREE column moves the tied rows: penalty 0
    @example(seed=259)  # a child with no column to move: infinite penalty
    def test_each_child_loses_at_least_its_penalty(self, seed):
        form = count_constrained_form(np.random.default_rng(seed))
        parent = solve_lp_form(form)
        if parent.status.value != "optimal":
            return
        x = parent.values
        fractional = np.nonzero((np.abs(x - np.rint(x)) > 1e-6) & np.isfinite(form.bounds[0]))[0]
        if not fractional.size:
            return
        fractions = x[fractional] - np.floor(x[fractional])
        down, up = branching_penalties(
            form, parent.basis, parent.reduced_costs, parent.slack_reduced_costs,
            fractional, fractions,
        )
        assert (down >= 0).all() and (up >= 0).all()
        for j, down_penalty, up_penalty in zip(fractional, down, up):
            for penalty, bound_index, value in (
                (down_penalty, 1, np.floor(x[j])), (up_penalty, 0, np.ceil(x[j]))
            ):
                bounds = [b.copy() for b in form.bounds]
                bounds[bound_index][j] = value
                child = solve_lp_form(form.with_bounds(*bounds), warm_start=parent.basis)
                if child.status.value == "infeasible":
                    continue
                assert child.objective_value >= parent.objective_value + penalty - 1e-9

    def test_a_count_row_tie_goes_to_the_larger_penalty(self, monkeypatch):
        """Maximise 6x0 + 5x1 + x2 + 2x3 over 0/1 columns with COUNT = 2 and
        7x0 + 6x1 + 6x2 + 2x3 <= 12.  The LP optimum is (1, 0.75, 0, 0.25): x1
        and x3 tie at 0.25 from x.5.  Raising x1 costs 0.2 per unit (penalty
        0.05), lowering x3 costs 1 per unit (penalty 0.25), so the tree
        branches on x3 although x1 comes first."""
        model = IlpModel("tie")
        for j in range(4):
            model.add_variable(f"x{j}", 0, 1)
        model.add_constraint({j: 1.0 for j in range(4)}, ConstraintSense.EQ, 2.0)
        model.add_constraint({0: 7.0, 1: 6.0, 2: 6.0, 3: 2.0}, ConstraintSense.LE, 12.0)
        model.set_objective(ObjectiveSense.MAXIMIZE, {0: 6.0, 1: 5.0, 2: 1.0, 3: 2.0})

        root = solve_lp_form(model.to_matrix())
        assert np.allclose(root.values, [1.0, 0.75, 0.0, 0.25])
        down, up = branching_penalties(
            model.to_matrix(), root.basis, root.reduced_costs, root.slack_reduced_costs,
            np.array([1, 3]), np.array([0.75, 0.25]),
        )
        assert np.minimum(down, up) == pytest.approx([0.05, 0.25])

        chosen = []
        choose = BranchAndBoundSolver._choose_branch_variable

        def recorded(*args):
            chosen.append(choose(*args))
            return chosen[-1]

        monkeypatch.setattr(BranchAndBoundSolver, "_choose_branch_variable", staticmethod(recorded))
        solution = BranchAndBoundSolver().solve(model)
        assert chosen[0] == 3
        assert solution.objective_value == pytest.approx(8.0)  # x0 and x3


# -- the benchmark's queries --------------------------------------------------------------

@pytest.fixture(scope="module")
def galaxy_engine():
    """The benchmark's two Galaxy tables at data seed 42, the large one
    partitioned as ``sketch_20k`` partitions it, and its queries."""
    engine = PackageQueryEngine()
    queries = {}
    for name, rows in (("small", 1_600), ("large", 20_000)):
        table = galaxy_table(rows, seed=42)
        engine.register_table(table, name=name)
        for workload_query in galaxy_workload(table).queries:
            queries[f"{name}.{workload_query.name}"] = dataclasses.replace(
                workload_query.query, relation=name
            )
    engine.build_partitioning("large", PARTITION_ATTRIBUTES, size_threshold=250)
    return engine, queries, table


DIRECT_MIX = ("small.Q1", "small.Q3", "small.Q4", "small.Q5", "small.Q6", "large.Q3", "large.Q5")
SKETCH_20K = tuple(f"large.Q{i}" for i in range(1, 7))


class TestBenchmarkQueries:
    def test_direct_mix_root_lps_take_at_most_ten_iterations(self, galaxy_engine, monkeypatch):
        """13 to 154 pivots from the all-artificial basis; 2 to 8 from the slack basis."""
        engine, queries, _ = galaxy_engine
        cold = []

        def spied(form, warm_start=None):
            result = solve_lp_form(form, warm_start)
            if warm_start is None:
                cold.append(result)
            return result

        monkeypatch.setattr(branch_and_bound, "solve_lp_form", spied)
        for name in DIRECT_MIX:
            cold.clear()
            result = engine.execute(queries[name], method="direct", cache="bypass")
            assert result.details["direct_stats"].solve_stats.two_phase_starts == 0
            assert len(cold) == 1 and cold[0].iterations <= 10, name

    def test_no_benchmark_op_goes_two_phase(self, galaxy_engine, refine_shaped_query):
        """``sketch_20k``'s ops (``update_requery_20k`` asks two of them) and
        ``refine_20k``'s."""
        engine, queries, large = galaxy_engine
        for name in SKETCH_20K:
            stats = engine.execute(queries[name], method="sketchrefine", cache="bypass").details[
                "sketchrefine_stats"
            ]
            assert stats.solver_lp_solves and stats.two_phase_starts == 0, name
        for cardinality in (200, 500, 1_000):
            query = refine_shaped_query(large, "large", cardinality)
            stats = engine.execute(query, method="sketchrefine", cache="bypass").details[
                "sketchrefine_stats"
            ]
            assert stats.two_phase_starts == 0, cardinality

    def test_a_maximising_query_without_repeat_goes_two_phase(self):
        """Without REPEAT the maximised columns have no upper bound, and each
        row mixes signs, so no single row bounds a column; together the rows
        cap the package at six tuples."""
        table = Table(
            Schema.numeric(["a", "b", "c"]),
            {"a": [1.0, 1.0, 0.0, 2.0], "b": [2.0, -1.0, 1.0, 3.0], "c": [-1.0, 2.0, 1.0, 2.0]},
            name="mixed",
        )
        engine = PackageQueryEngine()
        engine.register_table(table, name="mixed")
        query = query_over("mixed").sum_at_most("b", 3).sum_at_most("c", 3).maximize_sum("a").build()
        result = engine.execute(query, method="direct", cache="bypass")
        assert result.details["direct_stats"].solve_stats.two_phase_starts >= 1
        enumerated = ExhaustiveSearchEvaluator().evaluate(table, query)
        assert result.objective == objective_value(enumerated, query) == 6.0
