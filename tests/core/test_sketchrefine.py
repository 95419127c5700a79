"""Tests for the SKETCHREFINE evaluator (Section 4)."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.base_relations import compute_base_relation
from repro.core.direct import DirectEvaluator
from repro.core.engine import PackageQueryEngine
from repro.core.sketchrefine import (
    PartitionedQuery,
    SketchRefineEvaluator,
    run_solve_task,
)
from repro.core.translator import constraint_linear_rows, objective_linear
from repro.core.validation import check_package, objective_value
from repro.db.expressions import col
from repro.errors import EvaluationError, InfeasiblePackageQueryError
from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.status import SolverStatus
from repro.paql.builder import query_over
from repro.partition.quadtree import QuadTreePartitioner
from repro.workloads.galaxy import galaxy_table, galaxy_workload
from repro.workloads.recipes import meal_planner_query, recipes_table


@pytest.fixture(scope="module")
def recipes_with_partitioning():
    table = recipes_table(num_rows=200, seed=11)
    partitioning = QuadTreePartitioner(size_threshold=25).partition(
        table, ["kcal", "saturated_fat", "protein", "carbs"]
    )
    return table, partitioning


class TestBasicBehaviour:
    def test_produces_feasible_package(self, recipes_with_partitioning, fast_solver):
        table, partitioning = recipes_with_partitioning
        query = meal_planner_query()
        evaluator = SketchRefineEvaluator(solver=fast_solver)
        package = evaluator.evaluate(table, query, partitioning)
        assert check_package(package, query).feasible
        assert package.cardinality == 3

    def test_objective_close_to_direct(self, recipes_with_partitioning, fast_solver):
        table, partitioning = recipes_with_partitioning
        query = meal_planner_query()
        direct = DirectEvaluator(solver=fast_solver).evaluate(table, query)
        sketch = SketchRefineEvaluator(solver=fast_solver).evaluate(table, query, partitioning)
        # Minimisation: SKETCHREFINE may be worse but not wildly so on this data.
        ratio = objective_value(sketch, query) / objective_value(direct, query)
        assert ratio < 3.0

    def test_maximisation_query(self, recipes_with_partitioning, fast_solver):
        table, partitioning = recipes_with_partitioning
        query = (
            query_over("recipes")
            .no_repetition()
            .count_equals(5)
            .sum_at_most("kcal", 4.0)
            .maximize_sum("protein")
            .build()
        )
        direct = DirectEvaluator(solver=fast_solver).evaluate(table, query)
        sketch = SketchRefineEvaluator(solver=fast_solver).evaluate(table, query, partitioning)
        assert check_package(sketch, query).feasible
        assert objective_value(sketch, query) <= objective_value(direct, query) + 1e-6
        assert objective_value(sketch, query) >= 0.3 * objective_value(direct, query)

    def test_base_predicate_respected(self, recipes_with_partitioning, fast_solver):
        table, partitioning = recipes_with_partitioning
        query = meal_planner_query()
        package = SketchRefineEvaluator(solver=fast_solver).evaluate(table, query, partitioning)
        gluten = table.column("gluten")
        assert all(gluten[i] == "free" for i in package.indices)

    def test_repetition_constraint_respected(self, recipes_with_partitioning, fast_solver):
        table, partitioning = recipes_with_partitioning
        query = (
            query_over("recipes")
            .repeat(1)
            .count_equals(4)
            .sum_at_most("kcal", 4.0)
            .minimize_sum("saturated_fat")
            .build()
        )
        package = SketchRefineEvaluator(solver=fast_solver).evaluate(table, query, partitioning)
        assert package.max_multiplicity <= 2
        assert check_package(package, query).feasible

    def test_filtered_aggregate_constraint(self, recipes_with_partitioning, fast_solver):
        table, partitioning = recipes_with_partitioning
        query = (
            query_over("recipes")
            .no_repetition()
            .count_equals(4)
            .filtered_count_at_least(col("protein") >= 20, 2)
            .minimize_sum("saturated_fat")
            .build()
        )
        package = SketchRefineEvaluator(solver=fast_solver).evaluate(table, query, partitioning)
        assert check_package(package, query).feasible

    def test_avg_constraint(self, recipes_with_partitioning, fast_solver):
        table, partitioning = recipes_with_partitioning
        query = (
            query_over("recipes")
            .no_repetition()
            .count_between(3, 6)
            .avg_at_most("kcal", 0.8)
            .maximize_sum("protein")
            .build()
        )
        package = SketchRefineEvaluator(solver=fast_solver).evaluate(table, query, partitioning)
        assert check_package(package, query).feasible

    def test_stats_recorded(self, recipes_with_partitioning, fast_solver):
        table, partitioning = recipes_with_partitioning
        evaluator = SketchRefineEvaluator(solver=fast_solver)
        evaluator.evaluate(table, meal_planner_query(), partitioning)
        stats = evaluator.last_stats
        assert stats.num_groups == partitioning.num_groups
        assert stats.groups_in_sketch >= 1
        assert stats.refine_queries >= stats.groups_in_sketch
        assert stats.total_seconds >= stats.sketch_seconds

    def test_refine_leaves_the_global_rng_alone(self, recipes_with_partitioning, fast_solver):
        table, partitioning = recipes_with_partitioning
        np.random.seed(123)
        expected = np.random.random(4)
        np.random.seed(123)
        evaluator = SketchRefineEvaluator(solver=fast_solver)
        package = evaluator.evaluate(table, meal_planner_query(), partitioning)
        assert evaluator.last_stats.refine_queries >= 1
        assert np.array_equal(np.random.random(4), expected)
        # Nor does the answer depend on the global stream's state.
        np.random.seed(7)
        again = evaluator.evaluate(table, meal_planner_query(), partitioning)
        assert again.same_contents(package)


def _refine_like_model(task_id: int, shift: float = 0.0) -> IlpModel:
    """A small knapsack-shaped ILP like one refine group's Q[G_j]."""
    rng = np.random.default_rng(task_id)
    num_vars = 10
    weights = rng.integers(1, 9, num_vars).astype(float)
    gains = rng.integers(1, 20, num_vars).astype(float)
    model = IlpModel(name=f"task_{task_id}")
    for i in range(num_vars):
        model.add_variable(f"t_{i}", 0, 2)
    model.add_constraint(
        {i: w for i, w in enumerate(weights)},
        ConstraintSense.LE,
        weights.sum() * 0.4 + shift,
    )
    model.add_constraint({0: 1.0, num_vars - 1: 1.0}, ConstraintSense.GE, 1)
    model.set_objective(ObjectiveSense.MAXIMIZE, {i: g for i, g in enumerate(gains)})
    return model


def _exact_solve_signature(solution):
    """Everything a refine solve hands back that the merge or the stats read."""
    stats = solution.stats
    return (
        solution.status,
        solution.values.tobytes(),
        repr(solution.objective_value),
        stats.nodes_explored,
        stats.lp_solves,
        stats.simplex_iterations,
        stats.warm_start_hits,
        stats.refactorizations,
    )


class TestRunSolveTask:
    """``run_solve_task`` is a plain solver call: same answers, no hidden state."""

    @pytest.mark.parametrize("task_id", range(6))
    def test_cold_solve_equals_a_plain_solve(self, fast_solver, task_id):
        solution = run_solve_task(fast_solver, _refine_like_model(task_id))
        assert solution.status is SolverStatus.OPTIMAL
        plain = fast_solver.solve(_refine_like_model(task_id))
        assert _exact_solve_signature(solution) == _exact_solve_signature(plain)

    @pytest.mark.parametrize("task_id", range(6))
    def test_retry_equals_a_fresh_solve(self, fast_solver, task_id):
        # A retry of the same group differs only in its right-hand sides; the
        # first solve leaves nothing behind that the retry could start from.
        fast_solver.solve(_refine_like_model(task_id))
        retry = run_solve_task(fast_solver, _refine_like_model(task_id, shift=-3.0))
        fresh = BranchAndBoundSolver(limits=fast_solver.limits).solve(
            _refine_like_model(task_id, shift=-3.0)
        )
        assert _exact_solve_signature(retry) == _exact_solve_signature(fresh)

    def test_takes_no_basis(self, fast_solver):
        with pytest.raises(TypeError):
            run_solve_task(fast_solver, _refine_like_model(0), None)

    def test_results_are_independent_of_the_global_rng(self, fast_solver):
        baseline = run_solve_task(fast_solver, _refine_like_model(5))
        np.random.seed(987654)
        np.random.random(1000)
        perturbed = run_solve_task(fast_solver, _refine_like_model(5))
        assert _exact_solve_signature(perturbed) == _exact_solve_signature(baseline)

    def test_leaves_the_global_rng_alone(self, fast_solver):
        np.random.seed(31)
        expected = np.random.random(4)
        np.random.seed(31)
        run_solve_task(fast_solver, _refine_like_model(2))
        assert np.array_equal(np.random.random(4), expected)

    def test_repeated_execution_is_stable_despite_warm_caches(self, fast_solver):
        # Re-solving one model object exercises its memo caches (matrix
        # form, simplex working matrix); a warm solve must not drift from
        # the cold one.
        model = _refine_like_model(1)
        first = run_solve_task(fast_solver, model)
        second = run_solve_task(fast_solver, model)
        assert _exact_solve_signature(second) == _exact_solve_signature(first)


class TestRemovedConfigKnobs:
    """The hybrid-sketch order seed and the backtracking cap are constants,
    and the hybrid sketch is always on: nothing configures SKETCHREFINE."""

    def test_evaluator_takes_no_refine_order_seed(self):
        with pytest.raises(TypeError, match="refine_order_seed"):
            SketchRefineEvaluator(refine_order_seed=1)

    def test_evaluator_takes_no_backtracking_cap(self):
        with pytest.raises(TypeError, match="max_backtracks"):
            SketchRefineEvaluator(max_backtracks=10)

    def test_evaluator_takes_no_config(self):
        with pytest.raises(TypeError, match="config"):
            SketchRefineEvaluator(config=None)

    def test_engine_takes_no_sketchrefine_config(self):
        with pytest.raises(TypeError, match="sketchrefine_config"):
            PackageQueryEngine(sketchrefine_config=None)


class TestRemovedWorkerKnobs:
    """Refine rounds run in-process and nothing selects a worker count."""

    def test_engine_takes_no_worker_count(self):
        with pytest.raises(TypeError, match="workers"):
            PackageQueryEngine(workers=2)

    def test_evaluator_takes_no_worker_count(self):
        with pytest.raises(TypeError, match="workers"):
            SketchRefineEvaluator(workers=2)

    def test_evaluator_takes_no_pool(self):
        with pytest.raises(TypeError, match="pool"):
            SketchRefineEvaluator(pool=None)

    def test_evaluate_takes_no_worker_count(self, recipes_with_partitioning, fast_solver):
        table, partitioning = recipes_with_partitioning
        with pytest.raises(TypeError, match="workers"):
            SketchRefineEvaluator(solver=fast_solver).evaluate(
                table, meal_planner_query(), partitioning, workers=2
            )

    def test_workers_environment_variable_is_not_read(
        self, monkeypatch, recipes_with_partitioning, fast_solver
    ):
        table, partitioning = recipes_with_partitioning
        baseline = SketchRefineEvaluator(solver=fast_solver)
        package = baseline.evaluate(table, meal_planner_query(), partitioning)
        monkeypatch.setenv("REPRO_WORKERS", "4")
        evaluator = SketchRefineEvaluator(solver=fast_solver)
        assert evaluator.evaluate(table, meal_planner_query(), partitioning).same_contents(package)
        stats = evaluator.last_stats
        assert (stats.refine_workers, stats.refine_parallel_tasks) == (1, 0)
        assert stats.refine_queries == baseline.last_stats.refine_queries

    def test_importing_the_engine_does_not_load_multiprocessing(self):
        code = (
            "import sys, repro.core.engine; "
            "print(any(m == 'multiprocessing' or m.startswith('multiprocessing.') "
            "for m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.strip() == "False"


def reference_sketch_or_refine(table, query, partitioning, hybrid_group=None, refine=None):
    """The sketch (plain or hybrid) or one refine ILP, one variable and one dict at a time.

    A tuple column carries the tuple's own coefficient, a group column the
    mean over the group's eligible tuples; ``refine=(gid, fixed)`` asks for
    group ``gid``'s refine ILP with ``fixed`` taken off the right-hand sides.
    """
    eligible = set(compute_base_relation(table, query).eligible_indices.tolist())
    cap = query.max_multiplicity
    members = {
        gid: [int(row) for row in partitioning.group_rows(gid) if int(row) in eligible]
        for gid in range(partitioning.num_groups)
    }
    columns: list[list[int]] = []  # the table rows each column averages over
    model = IlpModel()
    for gid, rows in members.items():
        if not rows or (refine is not None and gid != refine[0]):
            continue
        if refine is not None or gid == hybrid_group:
            for row in rows:
                model.add_variable(f"t_{row}", 0.0, None if cap is None else float(cap))
                columns.append([row])
        else:
            model.add_variable(f"g_{gid}", 0.0, None if cap is None else float(len(rows) * cap))
            columns.append(rows)

    def column_means(per_tuple):
        means = [float(np.mean(per_tuple[rows])) for rows in columns]
        return {j: value for j, value in enumerate(means) if value}

    all_rows = np.arange(table.num_rows)
    fixed = iter(refine[1]) if refine is not None else None
    for number, constraint in enumerate(query.global_constraints):
        name = constraint.name or f"global_{number}"
        for linear in constraint_linear_rows(table, all_rows, constraint, name):
            rhs = linear.rhs - (next(fixed) if fixed is not None else 0.0)
            model.add_constraint(column_means(linear.coefficients), linear.sense, rhs, name=linear.name)
    sense, coefficients = objective_linear(table, all_rows, query)
    model.set_objective(sense, column_means(coefficients))
    return model


class TestModelsAgainstPerVariableReference:
    """Sketch, hybrid sketch and refine ILPs equal their per-variable assembly.

    Group means are summed in another order by the reference (one 1-D mean
    per coefficient), hence a relative tolerance of a few ulps; tuple columns
    and right-hand sides are exact.
    """

    QUERIES = {
        "meal_planner": meal_planner_query,
        "repeat_avg": lambda: (
            query_over("recipes").repeat(1).count_between(3, 6).avg_at_most("kcal", 0.8)
            .filtered_count_at_least(col("carbs") > 0, 2).maximize_sum("protein").build()
        ),
        "no_objective": lambda: (
            query_over("recipes").where(col("gluten") == "free").count_equals(4)
            .sum_at_most("saturated_fat", 3.0).build()
        ),
    }

    @pytest.mark.parametrize("name", list(QUERIES))
    def test_sketch_hybrid_and_refine(self, recipes_with_partitioning, name, assert_same_ilp):
        table, partitioning = recipes_with_partitioning
        query = self.QUERIES[name]()
        problem = PartitionedQuery.build(table, query, partitioning)
        assert_same_ilp(
            problem.sketch_model(), reference_sketch_or_refine(table, query, partitioning), 1e-13
        )
        for gid in (problem.eligible_groups[0], problem.eligible_groups[-1]):
            assert_same_ilp(
                problem.sketch_model(hybrid_group=gid),
                reference_sketch_or_refine(table, query, partitioning, hybrid_group=gid),
                1e-13,
            )
            fixed = np.linspace(0.25, 1.0, problem.linearisation.num_constraints)
            assert_same_ilp(
                problem.refine_model(gid, fixed),
                reference_sketch_or_refine(table, query, partitioning, refine=(gid, fixed)),
                0.0,
            )


class TestInfeasibilityHandling:
    def test_truly_infeasible_query(self, recipes_with_partitioning, fast_solver):
        table, partitioning = recipes_with_partitioning
        query = (
            query_over("recipes").no_repetition().count_equals(3).sum_at_most("kcal", 0.01).build()
        )
        with pytest.raises(InfeasiblePackageQueryError):
            SketchRefineEvaluator(solver=fast_solver).evaluate(table, query, partitioning)

    def test_no_eligible_tuple(self, recipes_with_partitioning, fast_solver):
        table, partitioning = recipes_with_partitioning
        query = (
            query_over("recipes")
            .where(col("gluten") == "no-such-label")
            .count_equals(1)
            .build()
        )
        with pytest.raises(InfeasiblePackageQueryError):
            SketchRefineEvaluator(solver=fast_solver).evaluate(table, query, partitioning)

    def test_hybrid_sketch_recovers_tight_queries(self, fast_solver):
        """A query only satisfiable by extreme tuples defeats the plain sketch
        (centroids are too average) but the hybrid sketch, always on, finds it."""
        table = recipes_table(num_rows=150, seed=23)
        partitioning = QuadTreePartitioner(size_threshold=30).partition(
            table, ["kcal", "saturated_fat"]
        )
        kcal = table.numeric_column("kcal")
        two_smallest = float(np.sort(kcal)[:2].sum())
        query = (
            query_over("recipes")
            .no_repetition()
            .count_equals(2)
            .sum_between("kcal", two_smallest - 1e-9, two_smallest + 0.02)
            .minimize_sum("saturated_fat")
            .build()
        )
        evaluator = SketchRefineEvaluator(solver=fast_solver)
        problem = PartitionedQuery.build(table, query, partitioning)
        assert evaluator._solve_sketch_model(problem, hybrid_group=None) is None
        direct = DirectEvaluator(solver=fast_solver).evaluate(table, query)
        assert check_package(direct, query).feasible
        package = evaluator.evaluate(table, query, partitioning)
        assert check_package(package, query).feasible
        assert evaluator.last_stats.used_hybrid_sketch

    def test_hybrid_fallback_leaves_the_group_order_alone(self, fast_solver):
        """The hybrid fallback tries the groups in a shuffled order, but it must
        shuffle a copy: the sketch solutions are read back by zipping the
        eligible groups, ascending, with the sketch columns."""
        table = recipes_table(num_rows=150, seed=23)
        partitioning = QuadTreePartitioner(size_threshold=30).partition(
            table, ["kcal", "saturated_fat"]
        )
        two_smallest = float(np.sort(table.numeric_column("kcal"))[:2].sum())
        query = (
            query_over("recipes")
            .no_repetition()
            .count_equals(2)
            .sum_between("kcal", two_smallest - 1e-9, two_smallest + 0.02)
            .minimize_sum("saturated_fat")
            .build()
        )
        evaluator = SketchRefineEvaluator(solver=fast_solver)
        problem = PartitionedQuery.build(table, query, partitioning)
        ascending = list(range(partitioning.num_groups))
        assert list(problem.eligible_groups) == ascending
        multiplicities, assignments, used_hybrid = evaluator._sketch(problem)
        assert used_hybrid
        assert list(problem.eligible_groups) == ascending
        assert sorted(multiplicities) == ascending
        assert assignments == {4: {10: 1, 137: 1}}

        package = evaluator.evaluate(table, query, partitioning)
        assert evaluator.last_stats.used_hybrid_sketch
        # The fallback's package when it tries the groups in a shuffled copy.
        assert package.indices.tolist() == [10, 137]
        assert package.multiplicities.tolist() == [1, 1]

    def test_wrong_partitioning_table_rejected(self, recipes_with_partitioning, fast_solver):
        table, partitioning = recipes_with_partitioning
        other = recipes_table(num_rows=50, seed=1)
        with pytest.raises(EvaluationError):
            SketchRefineEvaluator(solver=fast_solver).evaluate(
                other, meal_planner_query(), partitioning
            )


class TestPartitioningVariants:
    @pytest.mark.parametrize("size_threshold", [10, 40, 120])
    def test_quality_across_partition_sizes(self, fast_solver, size_threshold):
        table = recipes_table(num_rows=160, seed=31)
        partitioning = QuadTreePartitioner(size_threshold=size_threshold).partition(
            table, ["kcal", "saturated_fat"]
        )
        query = meal_planner_query()
        package = SketchRefineEvaluator(solver=fast_solver).evaluate(table, query, partitioning)
        assert check_package(package, query).feasible

    def test_partitioning_on_subset_of_query_attributes(self, fast_solver):
        """Coverage < 1 (partitioning misses the objective attribute) still works."""
        table = recipes_table(num_rows=160, seed=37)
        partitioning = QuadTreePartitioner(size_threshold=25).partition(table, ["kcal"])
        query = meal_planner_query()
        package = SketchRefineEvaluator(solver=fast_solver).evaluate(table, query, partitioning)
        assert check_package(package, query).feasible

    def test_single_group_degenerates_to_direct(self, fast_solver):
        table = recipes_table(num_rows=80, seed=41)
        partitioning = QuadTreePartitioner(size_threshold=1000).partition(table, ["kcal"])
        assert partitioning.num_groups == 1
        query = meal_planner_query()
        direct = DirectEvaluator(solver=fast_solver).evaluate(table, query)
        sketch = SketchRefineEvaluator(solver=fast_solver).evaluate(table, query, partitioning)
        # With one group the refine query is the full problem: same optimum.
        assert objective_value(sketch, query) == pytest.approx(
            objective_value(direct, query), rel=1e-3
        )


class _BlackBoxSolver:
    """Branch and bound behind the black-box contract, its Solution passed through."""

    def __init__(self):
        self.inner = BranchAndBoundSolver()

    def solve(self, model):
        return self.inner.solve(model)


class TestRefineRetries:
    """A deferred group's retry is a plain solve of its rebuilt model: no
    basis is carried from its first solve."""

    #: The package objective of this instance at 0054bd3, whose retries
    #: started from the group's cached root basis.
    CACHED_BASIS_OBJECTIVE = 221.69554000000002

    @pytest.fixture(scope="class")
    def deferring_instance(self):
        """Galaxy Q2 at 2 400 rows: the merge defers a group to a second round."""
        table = galaxy_table(2400, seed=42)
        workload = galaxy_workload(table, seed=42)
        partitioning = QuadTreePartitioner(size_threshold=100).partition(
            table, workload.workload_attributes
        )
        return table, workload.query("Q2").query, partitioning

    def test_retry_starts_from_the_slack_basis(self, deferring_instance):
        table, query, partitioning = deferring_instance
        evaluator = SketchRefineEvaluator()
        package = evaluator.evaluate(table, query, partitioning)
        stats = evaluator.last_stats
        assert stats.refine_rounds > 1 and stats.merge_deferrals >= 1
        assert check_package(package, query).feasible
        # Every cold LP, each retry's root included, went dual from the slack
        # basis.
        assert stats.two_phase_starts == 0
        assert objective_value(package, query) == pytest.approx(
            self.CACHED_BASIS_OBJECTIVE, rel=1e-12
        )

    def test_black_box_solver_gets_the_same_package(self, deferring_instance):
        """The evaluator holds no solver state, so branch and bound behind the
        black-box contract answers as the default solver does."""
        table, query, partitioning = deferring_instance
        default = SketchRefineEvaluator().evaluate(table, query, partitioning)
        evaluator = SketchRefineEvaluator(solver=_BlackBoxSolver())
        package = evaluator.evaluate(table, query, partitioning)
        assert evaluator.last_stats.refine_rounds > 1
        assert package.same_contents(default)

    def test_a_second_evaluation_repeats_the_first(self, deferring_instance):
        """Nothing from the first evaluation's retries seeds the second: the
        same evaluator returns the same package with the same solver work."""
        table, query, partitioning = deferring_instance
        evaluator = SketchRefineEvaluator()
        first = evaluator.evaluate(table, query, partitioning)
        before = evaluator.last_stats
        second = evaluator.evaluate(table, query, partitioning)
        after = evaluator.last_stats
        assert second.same_contents(first)
        for name in ("refine_rounds", "merge_deferrals", "solver_lp_solves",
                     "solver_simplex_iterations", "solver_nodes_explored",
                     "solver_warm_start_hits", "two_phase_starts"):
            assert getattr(after, name) == getattr(before, name), name
        assert not hasattr(after, "refine_retry_warm_starts")


class _NodeRecordingSolver(BranchAndBoundSolver):
    """The default solver, recording the nodes of every solve it runs."""

    def __init__(self):
        super().__init__()
        self.nodes: list[int] = []

    def solve(self, model):
        solution = super().solve(model)
        self.nodes.append(solution.stats.nodes_explored)
        return solution


class TestRefineTreeSize:
    """The sketch and refine trees of the benchmark's ``refine_20k`` shape at
    data seed 42.  The node counts repeat exactly, so they are guarded as
    counts."""

    @pytest.fixture(scope="class")
    def refine_run(self, refine_shaped_query):
        """``cardinality -> (SketchRefineStats, nodes of each solve)`` on the
        benchmark's table and partitioning."""
        table = galaxy_table(20_000, seed=42)
        solver = _NodeRecordingSolver()
        engine = PackageQueryEngine(solver=solver)
        engine.register_table(table, name="galaxy")
        engine.build_partitioning(
            "galaxy", ["petroMag_r", "redshift", "petroFlux_r"], size_threshold=250
        )

        def run(cardinality: int):
            solver.nodes = []
            query = refine_shaped_query(table, "galaxy", cardinality)
            result = engine.execute(query, method="sketchrefine", cache="bypass")
            return result.details["sketchrefine_stats"], solver.nodes

        return run

    def test_penalty_ties_keep_the_thousand_tuple_tree_under_80_nodes(self, refine_run):
        """The solves of ``large.c1000`` that branched explore 67 nodes with
        branching ties broken by dual penalty (the heavy refine ILP alone 57);
        the other 19 solves are answered by their root LP.  When the last
        bits of the LP values broke the ties, the whole run explored 104."""
        stats, nodes = refine_run(1_000)
        assert stats.solver_lp_solves > 50, "the refine trees should branch"
        assert sum(count for count in nodes if count > 1) <= 80

    def test_reduced_cost_fixing_keeps_the_refine_trees_small(self, refine_run):
        """The sketch and refine trees of ``large.c1000`` explore 86 nodes
        and those of ``large.c500`` 84 with reduced-cost fixing; the
        objective-cutoff row it replaced left 250 and 158 (behind a root
        presolve that has since gone)."""
        assert refine_run(1_000)[0].solver_nodes_explored <= 120
        assert refine_run(500)[0].solver_nodes_explored <= 90
