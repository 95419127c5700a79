"""Tests for the branch-and-bound ILP solver.

Correctness is checked against brute-force enumeration on small instances,
including a hypothesis property test over random 0/1 knapsack problems, plus
targeted tests for statuses and limits, and
for the bound and gap a solve reports beside its answer.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.translator import translate_query
from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.status import SolverStatus
from repro.workloads.galaxy import galaxy_table, galaxy_workload

from .oracle import oracle_ilp


def knapsack_model(values, weights, capacity) -> IlpModel:
    model = IlpModel("knapsack")
    for i in range(len(values)):
        model.add_variable(f"x{i}", 0, 1)
    model.add_constraint({i: float(w) for i, w in enumerate(weights)}, ConstraintSense.LE, capacity)
    model.set_objective(ObjectiveSense.MAXIMIZE, {i: float(v) for i, v in enumerate(values)})
    return model


def brute_force_knapsack(values, weights, capacity) -> float:
    best = 0.0
    for selection in itertools.product([0, 1], repeat=len(values)):
        weight = sum(w * s for w, s in zip(weights, selection))
        if weight <= capacity:
            best = max(best, sum(v * s for v, s in zip(values, selection)))
    return best


class TestCorrectness:
    def test_knapsack_optimum(self, fast_solver):
        model = knapsack_model([10, 13, 7, 8, 2], [5, 6, 4, 3, 1], 10)
        solution = fast_solver.solve(model)
        assert solution.status is SolverStatus.OPTIMAL
        assert solution.objective_value == pytest.approx(23.0)
        assert model.check_feasible(solution.values)

    def test_minimisation(self, fast_solver):
        # Cover demand of 5 units with items of size 3 and 2, minimising cost.
        model = IlpModel()
        model.add_variable("threes", 0, None)
        model.add_variable("twos", 0, None)
        model.add_constraint({0: 3.0, 1: 2.0}, ConstraintSense.GE, 5)
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 4.0, 1: 3.0})
        solution = fast_solver.solve(model)
        assert solution.status is SolverStatus.OPTIMAL
        assert solution.objective_value == pytest.approx(7.0)  # one of each.

    def test_equality_constraint(self, fast_solver):
        model = IlpModel()
        for i in range(4):
            model.add_variable(f"x{i}", 0, 1)
        model.add_constraint({i: 1.0 for i in range(4)}, ConstraintSense.EQ, 2)
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 5.0, 1: 1.0, 2: 3.0, 3: 2.0})
        solution = fast_solver.solve(model)
        assert solution.objective_value == pytest.approx(3.0)
        assert solution.integral_values().sum() == 2

    def test_infeasible_model(self, fast_solver):
        model = IlpModel()
        model.add_variable("x", 0, 1)
        model.add_constraint({0: 1.0}, ConstraintSense.GE, 2)
        assert fast_solver.solve(model).status is SolverStatus.INFEASIBLE

    def test_integer_infeasible_but_lp_feasible(self, fast_solver):
        # 2x = 3 has an LP solution (x = 1.5) but no integer solution.
        model = IlpModel()
        model.add_variable("x", 0, 5)
        model.add_constraint({0: 2.0}, ConstraintSense.EQ, 3)
        assert fast_solver.solve(model).status is SolverStatus.INFEASIBLE

    def test_unbounded_model(self, fast_solver):
        model = IlpModel()
        model.add_variable("x", 0, None)
        model.set_objective(ObjectiveSense.MAXIMIZE, {0: 1.0})
        assert fast_solver.solve(model).status is SolverStatus.UNBOUNDED

    def test_empty_model(self, fast_solver):
        solution = fast_solver.solve(IlpModel())
        assert solution.status is SolverStatus.OPTIMAL
        assert solution.objective_value == 0.0
        assert solution.stats.wall_time_seconds > 0.0

    def test_feasibility_problem_without_objective(self, fast_solver):
        model = IlpModel()
        model.add_variable("x", 0, 3)
        model.add_constraint({0: 1.0}, ConstraintSense.GE, 2)
        solution = fast_solver.solve(model)
        assert solution.status is SolverStatus.OPTIMAL
        assert model.check_feasible(solution.values)

    def test_mixed_integer_continuous(self, fast_solver):
        model = IlpModel()
        model.add_variable("x", 0, 10, is_integer=True)
        model.add_variable("y", 0, 10, is_integer=False)
        model.add_constraint({0: 1.0, 1: 1.0}, ConstraintSense.LE, 5.5)
        model.set_objective(ObjectiveSense.MAXIMIZE, {0: 2.0, 1: 1.0})
        solution = fast_solver.solve(model)
        # x should take the largest integer (5), y the remaining 0.5.
        assert solution.values[0] == pytest.approx(5.0)
        assert solution.values[1] == pytest.approx(0.5, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=7),
        weights_seed=st.integers(min_value=0, max_value=10_000),
        capacity_fraction=st.floats(min_value=0.2, max_value=0.9),
    )
    def test_random_knapsacks_match_brute_force(self, values, weights_seed, capacity_fraction):
        rng = np.random.default_rng(weights_seed)
        weights = rng.integers(1, 15, len(values)).tolist()
        capacity = max(1, int(capacity_fraction * sum(weights)))
        model = knapsack_model(values, weights, capacity)
        solver = BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-9))
        solution = solver.solve(model)
        assert solution.status is SolverStatus.OPTIMAL
        assert solution.objective_value == pytest.approx(
            brute_force_knapsack(values, weights, capacity)
        )
        assert model.check_feasible(solution.values)


class TestConfigurations:
    def test_the_default_search_reaches_the_optimum(self):
        model = knapsack_model([6, 5, 4, 3, 2, 1], [4, 3, 3, 2, 2, 1], 8)
        solver = BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-9))
        solution = solver.solve(model)
        assert solution.objective_value == pytest.approx(
            brute_force_knapsack([6, 5, 4, 3, 2, 1], [4, 3, 3, 2, 2, 1], 8)
        )


    def test_the_rounding_heuristic_has_no_switch(self):
        with pytest.raises(TypeError, match="enable_rounding_heuristic"):
            BranchAndBoundSolver(enable_rounding_heuristic=False)


class TestLimits:
    def test_capacity_limit_on_variables(self):
        model = knapsack_model([1] * 20, [1] * 20, 10)
        solver = BranchAndBoundSolver(limits=SolverLimits(max_variables=10))
        solution = solver.solve(model)
        assert solution.status is SolverStatus.CAPACITY_EXCEEDED
        assert not solution.has_solution

    def test_capacity_limit_on_constraints(self):
        model = knapsack_model([1, 2], [1, 1], 2)
        solver = BranchAndBoundSolver(limits=SolverLimits(max_constraints=0))
        assert solver.solve(model).status is SolverStatus.CAPACITY_EXCEEDED

    def test_node_limit_returns_best_incumbent(self):
        rng = np.random.default_rng(0)
        values = rng.integers(1, 100, 40).tolist()
        weights = rng.integers(1, 50, 40).tolist()
        model = knapsack_model(values, weights, int(0.4 * sum(weights)))
        solver = BranchAndBoundSolver(limits=SolverLimits(node_limit=3, relative_gap=0.0))
        solution = solver.solve(model)
        assert solution.status in (SolverStatus.FEASIBLE, SolverStatus.TIME_LIMIT, SolverStatus.OPTIMAL)
        if solution.has_solution:
            assert model.check_feasible(solution.values)

    def test_stats_are_populated(self, fast_solver):
        model = knapsack_model([10, 13, 7, 8, 2], [5, 6, 4, 3, 1], 10)
        solution = fast_solver.solve(model)
        assert solution.stats.nodes_explored >= 1
        assert solution.stats.lp_solves >= 1
        assert solution.stats.wall_time_seconds >= 0.0

    def test_root_unbounded_exit_reports_its_wall_time(self, fast_solver):
        """Maximise ``x0 + x1`` subject to ``x0 - x1 <= 3``: the root LP is
        unbounded, and the exit that says so times the solve like every other."""
        model = IlpModel()
        model.add_variable("x0", 0, None)
        model.add_variable("x1", 0, None)
        model.add_constraint({0: 1.0, 1: -1.0}, ConstraintSense.LE, 3)
        model.set_objective(ObjectiveSense.MAXIMIZE, {0: 1.0, 1: 1.0})
        solution = fast_solver.solve(model)
        assert solution.status is SolverStatus.UNBOUNDED
        assert solution.stats.lp_solves == 1
        assert solution.stats.wall_time_seconds > 0.0


def assert_bound_on_the_right_side(model: IlpModel, bound: float, value: float) -> None:
    """No solution can be better than ``bound``, so ``value`` is not."""
    slack = 1e-9 * max(1.0, abs(value))
    if model.objective.sense is ObjectiveSense.MINIMIZE:
        assert bound <= value + slack
    else:
        assert bound >= value - slack


class TestProvenBound:
    """``stats.best_bound`` is what the tree proved, not the last LP it solved."""

    @pytest.fixture(scope="class")
    def galaxy_models(self):
        table = galaxy_table(1_600, seed=42)
        workload = galaxy_workload(table, seed=42)
        return {
            name: translate_query(table, workload.query(name).query).model
            for name in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6")
        }

    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"])
    def test_optimal_means_the_gap_is_closed(self, galaxy_models, name):
        model = galaxy_models[name]
        limits = SolverLimits()
        solution = BranchAndBoundSolver(limits=limits).solve(model)
        assert solution.status is SolverStatus.OPTIMAL
        assert solution.stats.gap <= limits.relative_gap
        assert_bound_on_the_right_side(
            model, solution.stats.best_bound, solution.objective_value
        )

    @pytest.mark.parametrize("name", ["Q1", "Q2"])
    def test_node_limit_bound_covers_the_open_nodes(self, galaxy_models, name):
        """Q1 maximises and Q2 minimises, and neither closes in two nodes
        (Q1 closes in three): the optimum may sit under a node still open, so
        the bound must cover it."""
        model = galaxy_models[name]
        solution = BranchAndBoundSolver(limits=SolverLimits(node_limit=2)).solve(model)
        assert solution.status is SolverStatus.FEASIBLE
        assert_bound_on_the_right_side(
            model, solution.stats.best_bound, oracle_ilp(model).objective
        )
        assert_bound_on_the_right_side(
            model, solution.stats.best_bound, solution.objective_value
        )
        assert solution.stats.gap > 0.0


class TestInheritedBound:
    """A node queued before the incumbent improved may already be decided by
    the bound it inherited from its parent: it is counted, not solved."""

    def test_decided_nodes_are_dropped_without_an_lp(self):
        dropped = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            values = rng.integers(10, 100, 25).tolist()
            weights = rng.integers(5, 50, 25).tolist()
            model = knapsack_model(values, weights, int(0.4 * sum(weights)))
            solution = BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-9)).solve(model)
            reference = oracle_ilp(model)
            assert solution.status.value == reference.status == "optimal"
            assert solution.objective_value == pytest.approx(reference.objective)
            assert solution.stats.lp_solves <= solution.stats.nodes_explored
            dropped += solution.stats.nodes_explored - solution.stats.lp_solves
        # Best-bound search pops the nodes the final incumbent decided.
        assert dropped > 0


class TestReducedCostFixing:
    """A column is fixed only when moving it off its bound costs more than the
    gap to the incumbent plus a relative slack: a move that costs exactly the
    gap leads to an equal-objective optimum, and ties must survive.

    The instance: pick 2 of 7 tuples with ``SUM(b) <= 9``, maximising
    ``SUM(a)``.  Its optima are tuples {1, 3} and {1, 6}, both 12.0.  Once
    the tree holds an incumbent of 12.0, a node branches with tuple 3 out of
    its LP at a reduced cost of exactly the gap, 1.5: the optimum {1, 3} lies
    one unit of tuple 3 away."""

    A = [7.0, 7.0, 4.0, 5.0, 4.0, 2.0, 5.0]
    B = [8.0, 2.0, 5.0, 7.0, 3.0, 9.0, 4.0]
    TIED = 3

    def model(self) -> IlpModel:
        model = IlpModel("ties")
        for j in range(len(self.A)):
            model.add_variable(f"x{j}", 0, 1)
        model.add_constraint({j: 1.0 for j in range(len(self.A))}, ConstraintSense.EQ, 2.0)
        model.add_constraint(dict(enumerate(self.B)), ConstraintSense.LE, 9.0)
        model.set_objective(ObjectiveSense.MAXIMIZE, dict(enumerate(self.A)))
        return model

    @pytest.fixture
    def fixings(self, monkeypatch):
        """Solve the instance, recording each fixing call's inputs and the
        bounds it left: ``(solution, [(lp, incumbent, lower, upper)])``."""
        calls = []
        fix = BranchAndBoundSolver._fix_by_reduced_costs

        def recorded(lower, upper, lp_result, integer_mask, incumbent_value):
            moved = fix(lower, upper, lp_result, integer_mask, incumbent_value)
            calls.append((lp_result, incumbent_value, lower.copy(), upper.copy()))
            return moved

        monkeypatch.setattr(BranchAndBoundSolver, "_fix_by_reduced_costs", staticmethod(recorded))
        solution = BranchAndBoundSolver().solve(self.model())
        return solution, calls

    def tied_calls(self, calls) -> list:
        """The calls where the tied tuple sits out at a reduced cost equal to the gap."""
        tied = []
        for lp_result, incumbent_value, lower, upper in calls:
            gap = abs(incumbent_value - lp_result.objective_value)
            if lp_result.values[self.TIED] == 0.0 and abs(lp_result.reduced_costs[self.TIED]) == gap:
                tied.append((lp_result, incumbent_value, lower, upper))
        return tied

    def test_a_reduced_cost_equal_to_the_gap_fixes_nothing(self, fixings):
        solution, calls = fixings
        assert solution.status is SolverStatus.OPTIMAL
        assert solution.objective_value == 12.0
        tied = self.tied_calls(calls)
        assert tied, "the tree should meet the tie"
        for _, incumbent_value, _, upper in tied:
            assert incumbent_value == 12.0
            assert upper[self.TIED] == 1.0  # the optimum {1, 3} stays reachable

    def test_a_reduced_cost_past_the_gap_and_slack_fixes_the_column(self, fixings):
        _, calls = fixings
        lp_result, incumbent_value, _, _ = self.tied_calls(calls)[0]
        lower, upper, integer_mask = self.model().bound_and_integrality_arrays()
        lower, upper = lower.copy(), upper.copy()
        # A better incumbent by 1e-3: the same move now costs more than gap + slack.
        BranchAndBoundSolver._fix_by_reduced_costs(
            lower, upper, lp_result, integer_mask, incumbent_value + 1e-3
        )
        assert upper[self.TIED] == 0.0

    def test_the_solver_and_naive_enumeration_agree_on_the_tie(self):
        from repro.core.engine import PackageQueryEngine
        from repro.dataset.schema import Schema
        from repro.dataset.table import Table
        from repro.paql.builder import query_over

        table = Table(
            Schema.numeric(["a", "b"]), {"a": np.array(self.A), "b": np.array(self.B)},
            name="ties",
        )
        engine = PackageQueryEngine()
        engine.register_table(table, name="ties")
        query = (
            query_over("ties").no_repetition().count_equals(2)
            .sum_at_most("b", 9.0).maximize_sum("a").build()
        )
        naive = engine.execute(query, method="naive", cache="bypass")
        direct = engine.execute(query, method="direct", cache="bypass")
        assert naive.objective == direct.objective == 12.0
