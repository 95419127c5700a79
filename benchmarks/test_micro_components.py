"""Micro-benchmarks of the individual substrates.

Not a paper artefact, but useful for tracking the cost of each pipeline stage
independently: PaQL parsing, PaQL→ILP translation, base-relation filtering,
LP relaxation solving, full ILP solving, quad-tree partitioning, the
partitioned query SKETCH and REFINE are built from, one refine-heavy
SKETCHREFINE query, whose branch-and-bound node count rides along so the
cost per node can be read off, and one maintained table update.  These run as normal repeated pytest-benchmark
measurements (unlike the figure drivers, which run once).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base_relations import compute_base_relation
from repro.core.direct import DirectEvaluator
from repro.core.sketchrefine import PartitionedQuery, SketchRefineEvaluator
from repro.core.engine import PackageQueryEngine
from repro.core.translator import translate_query
from repro.db.catalog import Database
from repro.db.expressions import col
from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits
from repro.ilp.lp_backend import solve_lp, solve_lp_form
from repro.paql.builder import query_over
from repro.paql.parser import parse_paql
from repro.partition.quadtree import QuadTreePartitioner
from repro.workloads.galaxy import galaxy_table, galaxy_workload
from repro.workloads.recipes import MEAL_PLANNER_PAQL, recipes_table


@pytest.fixture(scope="module")
def galaxy_fixture():
    table = galaxy_table(800, seed=42)
    workload = galaxy_workload(table, seed=42)
    return table, workload


@pytest.mark.benchmark(group="micro-paql")
def test_parse_paql_speed(benchmark):
    query = benchmark(parse_paql, MEAL_PLANNER_PAQL)
    assert query.relation == "recipes"


@pytest.mark.benchmark(group="micro-translate")
def test_translate_query_speed(benchmark, galaxy_fixture):
    table, workload = galaxy_fixture
    query = workload.query("Q1").query
    translation = benchmark(translate_query, table, query)
    assert translation.num_variables == table.num_rows


@pytest.mark.benchmark(group="micro-base-relation")
def test_base_relation_speed(benchmark):
    table = recipes_table(2000, seed=3)
    query = parse_paql(MEAL_PLANNER_PAQL)
    base = benchmark(compute_base_relation, table, query)
    assert 0 < base.num_eligible < table.num_rows


@pytest.mark.benchmark(group="micro-lp")
def test_lp_relaxation_speed(benchmark, galaxy_fixture):
    table, workload = galaxy_fixture
    translation = translate_query(table, workload.query("Q5").query)
    solution = benchmark(solve_lp, translation.model)
    assert solution.has_solution


@pytest.mark.benchmark(group="micro-ilp")
def test_ilp_solve_speed(benchmark, galaxy_fixture):
    table, workload = galaxy_fixture
    query = workload.query("Q5").query
    solver = BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-3, node_limit=2000))
    evaluator = DirectEvaluator(solver=solver)
    package = benchmark.pedantic(
        evaluator.evaluate, args=(table, query), rounds=3, iterations=1
    )
    assert package.cardinality == 3


@pytest.mark.benchmark(group="micro-lp-cold-vs-warm")
def test_cold_root_lp_speed(benchmark):
    """The 20 000-column root LP of ``direct_mix``'s ``large.Q3`` at data
    seed 42: solved over a core of the 300 cheapest columns, a dual simplex
    from the slack basis in 2 pivots (75 two-phase over all 20 000), and
    certified by one pricing pass over every column."""
    table = galaxy_table(20_000, seed=42)
    form = translate_query(table, galaxy_workload(table).query("Q3").query).model.to_matrix()
    result = benchmark(solve_lp_form, form)
    assert result.status.has_solution and not result.two_phase_start
    benchmark.extra_info["iterations"] = result.iterations
    benchmark.extra_info["core_columns"] = result.core_columns
    benchmark.extra_info["sift_rounds"] = result.sift_rounds


@pytest.mark.benchmark(group="micro-lp-cold-vs-warm")
def test_lp_cold_solve_speed_simplex(benchmark, galaxy_fixture):
    """Cold revised-simplex solve of a branch-and-bound child LP."""
    table, workload = galaxy_fixture
    translation = translate_query(table, workload.query("Q1").query)
    form = translation.model.to_matrix()
    parent = solve_lp_form(form)
    assert parent.status.has_solution
    lower, upper = form.bound_arrays()
    branch = int(np.argmax(np.abs(parent.values - np.rint(parent.values))))
    child_upper = upper.copy()
    child_upper[branch] = np.floor(parent.values[branch])
    child = form.with_bounds(lower, child_upper)

    result = benchmark(solve_lp_form, child)
    assert result.status.has_solution
    assert not result.warm_start_used


@pytest.mark.benchmark(group="micro-lp-cold-vs-warm")
def test_lp_warm_reoptimisation_speed_simplex(benchmark, galaxy_fixture):
    """The same child LP, reoptimised from the parent basis (dual simplex)."""
    table, workload = galaxy_fixture
    translation = translate_query(table, workload.query("Q1").query)
    form = translation.model.to_matrix()
    parent = solve_lp_form(form)
    assert parent.status.has_solution
    lower, upper = form.bound_arrays()
    branch = int(np.argmax(np.abs(parent.values - np.rint(parent.values))))
    child_upper = upper.copy()
    child_upper[branch] = np.floor(parent.values[branch])
    child = form.with_bounds(lower, child_upper)

    result = benchmark(solve_lp_form, child, parent.basis)
    assert result.status.has_solution
    assert result.warm_start_used


@pytest.mark.benchmark(group="micro-ilp-simplex-warm")
def test_ilp_simplex_backend_with_basis_reuse(benchmark, galaxy_fixture):
    """Full branch and bound with warm-started node LPs."""
    table, workload = galaxy_fixture
    translation = translate_query(table, workload.query("Q1").query)

    def solve():
        solver = BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-3, node_limit=2000))
        return solver.solve(translation.model)

    solution = benchmark.pedantic(solve, rounds=3, iterations=1)
    assert solution.has_solution
    if solution.stats.lp_solves > 1:
        assert solution.stats.warm_start_rate >= 0.7


@pytest.mark.benchmark(group="micro-partition")
def test_quadtree_partitioning_speed(benchmark, galaxy_fixture):
    table, workload = galaxy_fixture
    partitioner = QuadTreePartitioner(size_threshold=max(1, table.num_rows // 10))
    partitioning = benchmark.pedantic(
        partitioner.partition, args=(table, workload.workload_attributes), rounds=3, iterations=1
    )
    assert partitioning.satisfies_size_threshold(max(1, table.num_rows // 10))


@pytest.mark.benchmark(group="micro-partition")
def test_partitioned_query_build_speed(benchmark):
    # The sketch_20k shape of benchmarks/e2e: 20 000 Galaxy rows, tau = 250.
    table = galaxy_table(20_000, seed=42)
    partitioning = QuadTreePartitioner(size_threshold=250).partition(
        table, ["petroMag_r", "redshift", "petroFlux_r"]
    )
    query = galaxy_workload(table, seed=42).query("Q1").query
    problem = benchmark(PartitionedQuery.build, table, query, partitioning)
    assert partitioning.num_groups == 288
    assert problem.means.num_columns == partitioning.num_groups


class _NodeCountingSolver(BranchAndBoundSolver):
    """The default solver, adding up the nodes of every solve it runs."""

    nodes = 0

    def solve(self, model):
        solution = super().solve(model)
        self.nodes += solution.stats.nodes_explored
        return solution


@pytest.mark.benchmark(group="micro-sketchrefine")
def test_refine_query_speed(benchmark):
    """The refine_20k ``c1000`` shape of benchmarks/e2e: 20 000 Galaxy rows,
    tau = 250, a 1 000-tuple package straddling many groups.  Nearly all of
    it is refine branch and bound, so time / nodes is the cost of a node."""
    table = galaxy_table(20_000, seed=42)
    partitioning = QuadTreePartitioner(size_threshold=250).partition(
        table, ["petroMag_r", "redshift", "petroFlux_r"]
    )
    mean_z = float(np.mean(table.numeric_column("redshift")))
    mean_mag = float(np.mean(table.numeric_column("petroMag_r")))
    cardinality = 1_000
    query = (
        query_over(table.name, name=f"refine_c{cardinality}")
        .no_repetition()
        .count_equals(cardinality)
        .sum_between("redshift", 0.7 * mean_z * cardinality, 1.3 * mean_z * cardinality)
        .sum_between("petroMag_r", 0.9 * mean_mag * cardinality, 1.1 * mean_mag * cardinality)
        .maximize_sum("petroFlux_r")
        .build()
    )
    solver = _NodeCountingSolver()
    evaluator = SketchRefineEvaluator(solver=solver)

    def evaluate():
        solver.nodes = 0
        return evaluator.evaluate(table, query, partitioning)

    package = benchmark.pedantic(evaluate, rounds=3, iterations=1)
    assert package.cardinality == cardinality
    benchmark.extra_info["nodes"] = solver.nodes
    benchmark.extra_info["lp_solves"] = evaluator.last_stats.solver_lp_solves
    assert 0 < evaluator.last_stats.solver_lp_solves <= solver.nodes


@pytest.mark.benchmark(group="micro-update")
def test_update_speed(benchmark, tmp_path):
    """The update_requery_20k shape of benchmarks/e2e: one maintained delta of
    10 inserts and 10 deletes on 20 000 Galaxy rows partitioned at tau = 250,
    through ``PackageQueryEngine.update_table`` — column copy, maintenance,
    WAL append and fsync, and the notify of a cache holding one SKETCHREFINE
    answer."""
    table = galaxy_table(20_000, seed=42)
    engine = PackageQueryEngine(database=Database(wal=tmp_path / "update.wal"))
    engine.register_table(table)
    engine.build_partitioning(
        table.name, ["petroMag_r", "redshift", "petroFlux_r"], size_threshold=250
    )
    query = galaxy_workload(table, seed=42).query("Q3").query
    assert engine.execute(query, method="sketchrefine").details["cache"]["status"] == "miss"
    rng = np.random.default_rng(7)

    def next_delta():
        live_rows = engine.table(table.name).num_rows
        insert = table.take(rng.choice(table.num_rows, 10, replace=False))
        delete = np.sort(rng.choice(live_rows, 10, replace=False))
        return (table.name,), {"insert": insert, "delete": delete, "policy": "maintain"}

    try:
        result = benchmark.pedantic(engine.update_table, setup=next_delta, rounds=30)
    finally:
        engine.database.wal.close()
    assert result.table.num_rows == table.num_rows
    assert "default" in result.maintained
    assert len(engine.cache) == 1


@pytest.mark.benchmark(group="micro-expressions")
def test_predicate_evaluation_speed(benchmark):
    table = recipes_table(5000, seed=3)
    predicate = (col("gluten") == "free") & (col("kcal") < 1.0) & (col("protein") >= 10)
    mask = benchmark(predicate.evaluate, table)
    assert mask.dtype == np.bool_
