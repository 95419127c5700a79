"""Generic benchmark runners.

These helpers execute one workload query with one evaluation method under a
controlled configuration, capturing wall-clock time, the objective value and
any failure — exactly the measurements the paper reports (Section 5.1,
"Metrics"): response time excludes materialising the answer package, and
failures (solver out of capacity / time) are recorded rather than raised.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.direct import DirectEvaluator
from repro.core.naive import NaiveSelfJoinEvaluator
from repro.core.sketchrefine import SketchRefineEvaluator
from repro.core.validation import objective_value
from repro.dataset.table import Table
from repro.errors import ReproError
from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits
from repro.bench.results import MethodRun
from repro.paql.ast import ObjectiveDirection, PackageQuery
from repro.partition.partitioning import Partitioning
from repro.partition.quadtree import QuadTreePartitioner
from repro.workloads.specs import Workload, WorkloadQuery


@dataclass
class BenchmarkConfig:
    """Configuration shared by all experiment drivers.

    The defaults are laptop-scale versions of the paper's settings: the size
    threshold is 10 % of the dataset, the partitioning uses the workload
    attributes with no radius condition, and DIRECT runs against a solver with
    a capacity limit emulating CPLEX's memory ceiling (the paper's DIRECT
    failures in Figure 5).
    """

    galaxy_rows: int = 1_200
    tpch_rows: int = 1_600
    seed: int = 42
    size_threshold_fraction: float = 0.10
    solver_time_limit: float = 60.0
    solver_node_limit: int = 5_000
    solver_relative_gap: float = 1e-3
    direct_max_variables: int | None = None
    fractions: tuple[float, ...] = (0.10, 0.40, 0.70, 1.00)

    def solver(self, max_variables: int | None = None) -> BranchAndBoundSolver:
        """A fresh solver honouring the configured limits."""
        limits = SolverLimits(
            time_limit_seconds=self.solver_time_limit,
            node_limit=self.solver_node_limit,
            relative_gap=self.solver_relative_gap,
            max_variables=max_variables if max_variables is not None else self.direct_max_variables,
        )
        return BranchAndBoundSolver(limits=limits)


def scaled_fractions(table: Table, fractions: tuple[float, ...], seed: int) -> dict[float, np.ndarray]:
    """Row-index subsets for each dataset fraction.

    The paper derives smaller data sizes by randomly removing tuples from the
    full dataset (and from its partitions, which preserves the size condition);
    returning index subsets lets both the table and the partitioning be
    restricted consistently.
    """
    rng = np.random.default_rng(seed)
    permutation = rng.permutation(table.num_rows)
    subsets = {}
    for fraction in fractions:
        count = max(1, int(round(fraction * table.num_rows)))
        subsets[fraction] = np.sort(permutation[:count])
    return subsets


def build_partitioning(
    table: Table,
    attributes: list[str],
    config: BenchmarkConfig,
    size_threshold: int | None = None,
    radius_limit: float | None = None,
) -> Partitioning:
    """Build the offline partitioning used by a whole experiment."""
    tau = size_threshold or max(1, int(config.size_threshold_fraction * table.num_rows))
    partitioner = QuadTreePartitioner(size_threshold=tau, radius_limit=radius_limit)
    return partitioner.partition(table, attributes)


def run_method(
    table: Table,
    workload_query: WorkloadQuery,
    method: str,
    dataset: str,
    config: BenchmarkConfig,
    partitioning: Partitioning | None = None,
    parameters: dict | None = None,
) -> MethodRun:
    """Evaluate one query with one method, capturing failures as data."""
    query = workload_query.query
    parameters = dict(parameters or {})
    parameters.setdefault("direction", _direction_label(query))

    start = time.perf_counter()
    try:
        if method == "direct":
            evaluator = DirectEvaluator(solver=config.solver())
            package = evaluator.evaluate(table, query)
        elif method == "sketchrefine":
            if partitioning is None:
                raise ReproError("sketchrefine requires a partitioning")
            evaluator = SketchRefineEvaluator(solver=config.solver(max_variables=None))
            package = evaluator.evaluate(table, query, partitioning)
        elif method == "naive":
            evaluator = NaiveSelfJoinEvaluator()
            package = evaluator.evaluate(table, query)
        else:
            raise ReproError(f"unknown method {method!r}")
    except ReproError as error:
        return MethodRun(
            dataset=dataset,
            query_name=workload_query.name,
            method=method,
            wall_seconds=time.perf_counter() - start,
            failed=True,
            failure_reason=f"{type(error).__name__}: {error}",
            parameters=parameters,
        )

    elapsed = time.perf_counter() - start
    return MethodRun(
        dataset=dataset,
        query_name=workload_query.name,
        method=method,
        wall_seconds=elapsed,
        objective=objective_value(package, query),
        feasible=True,
        parameters=parameters,
    )


def restrict_workload_query(workload_query: WorkloadQuery, relation: str) -> WorkloadQuery:
    """Return a copy of the workload query pointing at a different relation name."""
    query = workload_query.query
    renamed = PackageQuery(
        relation=relation,
        package_alias=query.package_alias,
        relation_alias=query.relation_alias,
        repeat=query.repeat,
        base_predicate=query.base_predicate,
        global_constraints=list(query.global_constraints),
        objective=query.objective,
        name=query.name,
    )
    return WorkloadQuery(workload_query.name, renamed, workload_query.description)


def _direction_label(query: PackageQuery) -> str:
    if query.objective is None:
        return "none"
    return (
        "maximize"
        if query.objective.direction is ObjectiveDirection.MAXIMIZE
        else "minimize"
    )
