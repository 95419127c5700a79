#!/usr/bin/env python3
"""Quickstart: the paper's meal-planner example (Example 1 / query Q).

A dietitian wants three gluten-free meals, between 2.0 and 2.5 thousand
calories in total, minimising saturated fat.  This script shows the three ways
to run that package query:

1. PaQL text through the engine (the paper's interface),
2. the programmatic query builder,
3. the individual pieces (translation to an ILP, DIRECT evaluation) for users
   who want to see what happens under the hood.

Run with::

    python examples/quickstart.py

Pass ``--time`` to additionally print a per-phase wall-clock breakdown
(parse, translate, solve) and the LP-solve / warm-start counters of the
bundled solver, so the effect of basis reuse is visible without running the
pytest benchmarks.

Pass ``--workers N`` to run the query again through SKETCHREFINE with its
refine phase fanned out over ``N`` worker processes (the parallel solve
plane).  The answer is bit-identical for every worker count — only the
timing changes::

    python examples/quickstart.py --workers 4
"""

import argparse
import time

from repro import PackageQueryEngine
from repro.core import DirectEvaluator, translate_query
from repro.workloads.recipes import MEAL_PLANNER_PAQL, meal_planner_query, recipes_table


def timing_report(num_rows: int = 150, seed: int = 7) -> None:
    """Per-phase timings and LP-solve counters for the meal-planner query."""
    from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits
    from repro.paql.parser import parse_paql

    recipes = recipes_table(num_rows=num_rows, seed=seed)

    t0 = time.perf_counter()
    query = parse_paql(MEAL_PLANNER_PAQL)
    t1 = time.perf_counter()
    translation = translate_query(recipes, query)
    t2 = time.perf_counter()
    solution = BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-6)).solve(
        translation.model
    )
    t3 = time.perf_counter()
    stats = solution.stats

    print("=== Timing breakdown (--time) ===")
    print(f"parse PaQL            : {(t1 - t0) * 1000:8.2f} ms")
    print(f"translate to ILP      : {(t2 - t1) * 1000:8.2f} ms "
          f"({translation.num_variables} vars, {translation.model.num_constraints} constraints)")
    print(
        f"solve                 : {(t3 - t2) * 1000:8.2f} ms  "
        f"status={solution.status.value}  nodes={stats.nodes_explored}  "
        f"lp_solves={stats.lp_solves}  simplex_iters={stats.simplex_iterations}"
        f"  warm_start_hits={stats.warm_start_hits} ({stats.warm_start_rate:.0%})"
    )
    print()


def parallel_report(workers: int, num_rows: int = 600, seed: int = 7) -> None:
    """SKETCHREFINE with the refine batches fanned out over worker processes."""
    recipes = recipes_table(num_rows=num_rows, seed=seed)
    query = meal_planner_query()

    print(f"=== Parallel refine (--workers {workers}) ===")
    objectives = {}
    for count in (1, workers):
        engine = PackageQueryEngine(workers=count)
        engine.register_table(recipes)
        engine.build_partitioning("recipes", ["kcal", "saturated_fat"], size_threshold=50)
        result = engine.execute(query, method="sketchrefine", cache="bypass")
        stats = result.details["sketchrefine_stats"]
        objectives[count] = result.objective
        print(
            f"workers={count}: refine {stats.refine_seconds * 1000:7.1f} ms  "
            f"({stats.refine_queries} refine ILPs, "
            f"{stats.refine_parallel_tasks} in worker processes, "
            f"{stats.refine_rounds} rounds)"
        )
    assert objectives[1] == objectives[workers], "parallel answer diverged"
    print(f"objective identical at both worker counts: {objectives[1]:.2f}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--time",
        action="store_true",
        help="print per-phase wall-clock timings and LP-solve counts",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="also run SKETCHREFINE with N refine worker processes "
        "(bit-identical answer, parallel refine phase)",
    )
    args = parser.parse_args()

    if args.time:
        timing_report()
    if args.workers is not None and args.workers > 1:
        parallel_report(args.workers)

    recipes = recipes_table(num_rows=150, seed=7)

    # ------------------------------------------------------------------ PaQL text
    engine = PackageQueryEngine()
    engine.register_table(recipes)
    result = engine.execute(MEAL_PLANNER_PAQL)

    print("=== Meal plan from PaQL text ===")
    print(MEAL_PLANNER_PAQL.strip())
    print()
    plan = result.materialize()
    for row in plan.rows():
        print(f"  {row['name']:<24} kcal={row['kcal']:.3f}  sat_fat={row['saturated_fat']:.2f}")
    print(f"total kcal        = {result.package.sum('kcal'):.3f}")
    print(f"total sat. fat    = {result.objective:.2f}  (minimised)")
    print(f"evaluation method = {result.method.value}, {result.wall_seconds * 1000:.1f} ms")
    print()

    # --------------------------------------------------------- programmatic builder
    query = meal_planner_query()
    result_built = engine.execute(query, method="direct")
    assert abs(result_built.objective - result.objective) < 1e-6
    print("=== Same query via the builder API ===")
    print(f"objective matches the PaQL run: {result_built.objective:.2f}")
    print()

    # ------------------------------------------------------------- under the hood
    translation = translate_query(recipes, query)
    print("=== Under the hood ===")
    print(f"ILP variables   : {translation.num_variables} (one per gluten-free recipe)")
    print(f"ILP constraints : {translation.model.num_constraints}")
    package = DirectEvaluator().evaluate(recipes, query)
    print(f"DIRECT objective: {package.sum('saturated_fat'):.2f}")


if __name__ == "__main__":
    main()
