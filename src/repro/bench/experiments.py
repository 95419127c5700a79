"""One driver function per paper artefact (figure / table).

Every function returns an :class:`~repro.bench.results.ExperimentResult` whose
rows mirror what the corresponding figure or table in the paper reports.  The
drivers are deliberately deterministic (seeded through
:class:`~repro.bench.harness.BenchmarkConfig`) and laptop-scale; EXPERIMENTS.md
records how the measured shapes compare with the paper's.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.harness import (
    BenchmarkConfig,
    build_partitioning,
    restrict_workload_query,
    run_method,
    scaled_fractions,
)
from repro.bench.results import ExperimentResult, MethodRun, QueryScalingResult
from repro.core.direct import DirectEvaluator
from repro.core.sketchrefine import SketchRefineEvaluator
from repro.core.validation import approximation_ratio, objective_value
from repro.db.expressions import col
from repro.errors import ReproError
from repro.paql.ast import ObjectiveDirection
from repro.paql.builder import query_over
from repro.partition.kdtree import KdTreePartitioner
from repro.partition.kmeans import KMeansPartitioner
from repro.partition.quadtree import QuadTreePartitioner
from repro.partition.radius import approximation_factor, omega_for_epsilon
from repro.workloads.galaxy import galaxy_table, galaxy_workload
from repro.workloads.specs import Workload, WorkloadQuery
from repro.workloads.tpch import query_projection, tpch_table, tpch_workload


# ---------------------------------------------------------------------------
# Figure 1 — naïve SQL self-join formulation vs ILP formulation
# ---------------------------------------------------------------------------

def figure1_sql_vs_ilp(
    num_tuples: int = 100,
    cardinalities: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7),
    config: BenchmarkConfig | None = None,
) -> ExperimentResult:
    """Figure 1: runtime of the SQL-style self-join plan vs the ILP formulation.

    The paper runs this on a 100-tuple SDSS sample; the self-join runtime grows
    exponentially with the package cardinality while the ILP formulation stays
    flat.
    """
    config = config or BenchmarkConfig()
    table = galaxy_table(num_tuples, seed=config.seed)
    mean_redshift = float(np.mean(table.numeric_column("redshift")))

    result = ExperimentResult(
        name="figure1",
        description="SQL self-join formulation vs ILP formulation, runtime vs package cardinality",
    )
    scaling = QueryScalingResult("galaxy-sample", "cardinality-sweep", "cardinality")

    for cardinality in cardinalities:
        query = (
            query_over("galaxy", name=f"fig1_k{cardinality}")
            .no_repetition()
            .count_equals(cardinality)
            .sum_at_most("redshift", mean_redshift * cardinality * 1.5)
            .minimize_sum("extinction_r")
            .build()
        )
        workload_query = WorkloadQuery(f"k={cardinality}", query)
        for method in ("naive", "direct"):
            run = run_method(
                table, workload_query, method, "galaxy-sample", config,
                parameters={"cardinality": cardinality},
            )
            scaling.runs.append(run)

    result.query_results.append(scaling)
    result.add_table(
        "figure1_rows",
        [
            {
                "cardinality": run.parameters["cardinality"],
                "method": "SQL self-join" if run.method == "naive" else "ILP formulation",
                "seconds": run.wall_seconds,
                "failed": run.failed,
            }
            for run in scaling.runs
        ],
    )
    return result


# ---------------------------------------------------------------------------
# Figure 3 — per-query TPC-H table sizes
# ---------------------------------------------------------------------------

def figure3_tpch_sizes(config: BenchmarkConfig | None = None) -> ExperimentResult:
    """Figure 3: size of the per-query NULL-projected TPC-H tables."""
    config = config or BenchmarkConfig()
    table = tpch_table(config.tpch_rows, seed=config.seed)
    workload = tpch_workload(table, seed=config.seed)

    rows = []
    for workload_query in workload.queries:
        projection = query_projection(table, workload_query.query)
        rows.append(
            {
                "query": workload_query.name,
                "attributes": ", ".join(sorted(workload_query.attributes)),
                "tuples": projection.num_rows,
                "fraction_of_prejoined": round(projection.num_rows / table.num_rows, 3),
            }
        )
    result = ExperimentResult(
        name="figure3",
        description="Per-query table sizes after projecting away NULL rows of the pre-joined table",
    )
    result.add_table("figure3_rows", rows)
    return result


# ---------------------------------------------------------------------------
# Figure 4 — offline partitioning time
# ---------------------------------------------------------------------------

def figure4_partitioning_time(config: BenchmarkConfig | None = None) -> ExperimentResult:
    """Figure 4: offline partitioning time for Galaxy and TPC-H.

    As in the paper: workload attributes, τ = 10 % of the dataset size, no
    radius condition.
    """
    config = config or BenchmarkConfig()
    rows = []
    for dataset, table, workload in _both_workloads(config):
        tau = max(1, int(config.size_threshold_fraction * table.num_rows))
        start = time.perf_counter()
        partitioning = QuadTreePartitioner(size_threshold=tau).partition(
            table, workload.workload_attributes
        )
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "dataset": dataset,
                "dataset_size": table.num_rows,
                "size_threshold": tau,
                "num_groups": partitioning.num_groups,
                "partitioning_seconds": elapsed,
            }
        )
    result = ExperimentResult(
        name="figure4", description="Offline partitioning time (workload attributes, τ=10 %, no radius)"
    )
    result.add_table("figure4_rows", rows)
    return result


# ---------------------------------------------------------------------------
# Figures 5 and 6 — scalability on Galaxy and TPC-H
# ---------------------------------------------------------------------------

def figure5_galaxy_scalability(config: BenchmarkConfig | None = None) -> ExperimentResult:
    """Figure 5: DIRECT vs SKETCHREFINE runtime and approximation ratio on Galaxy."""
    config = config or BenchmarkConfig()
    table = galaxy_table(config.galaxy_rows, seed=config.seed)
    workload = galaxy_workload(table, seed=config.seed)
    return _scalability_experiment("figure5", "galaxy", table, workload, config)


def figure6_tpch_scalability(config: BenchmarkConfig | None = None) -> ExperimentResult:
    """Figure 6: DIRECT vs SKETCHREFINE runtime and approximation ratio on TPC-H."""
    config = config or BenchmarkConfig()
    table = tpch_table(config.tpch_rows, seed=config.seed)
    workload = tpch_workload(table, seed=config.seed)
    return _scalability_experiment("figure6", "tpch", table, workload, config, project_nulls=True)


def _scalability_experiment(
    name: str,
    dataset: str,
    table,
    workload: Workload,
    config: BenchmarkConfig,
    project_nulls: bool = False,
) -> ExperimentResult:
    result = ExperimentResult(
        name=name,
        description=f"{dataset} scalability: runtime vs dataset fraction "
        f"(τ = {int(config.size_threshold_fraction * 100)} % of the data, workload attributes)",
    )
    full_partitioning = build_partitioning(table, workload.workload_attributes, config)
    subsets = scaled_fractions(table, config.fractions, config.seed)

    for workload_query in workload.queries:
        scaling = QueryScalingResult(dataset, workload_query.name, "fraction")
        for fraction in config.fractions:
            rows = subsets[fraction]
            fraction_partitioning = full_partitioning.restricted_to_rows(rows)
            fraction_table = fraction_partitioning.table
            query = restrict_workload_query(workload_query, fraction_table.name)
            if project_nulls:
                mask = ~np.any(
                    np.isnan(fraction_table.numeric_matrix(sorted(workload_query.attributes))),
                    axis=1,
                )
                keep = np.nonzero(mask)[0]
                fraction_partitioning = fraction_partitioning.restricted_to_rows(keep)
                fraction_table = fraction_partitioning.table
            parameters = {"fraction": fraction}
            scaling.runs.append(
                run_method(fraction_table, query, "direct", dataset, config, parameters=parameters)
            )
            scaling.runs.append(
                run_method(
                    fraction_table, query, "sketchrefine", dataset, config,
                    partitioning=fraction_partitioning, parameters=parameters,
                )
            )
        result.query_results.append(scaling)
    return result


# ---------------------------------------------------------------------------
# Figures 7 and 8 — effect of the partition size threshold τ
# ---------------------------------------------------------------------------

def figure7_galaxy_tau_sweep(
    config: BenchmarkConfig | None = None,
    fraction: float = 0.30,
    thresholds: tuple[float, ...] = (0.5, 0.25, 0.10, 0.05, 0.02),
) -> ExperimentResult:
    """Figure 7: impact of τ on Galaxy (paper uses 30 % of the data)."""
    config = config or BenchmarkConfig()
    table = galaxy_table(config.galaxy_rows, seed=config.seed)
    workload = galaxy_workload(table, seed=config.seed)
    subset = scaled_fractions(table, (fraction,), config.seed)[fraction]
    sub_table = table.take(subset, name=table.name)
    sub_workload = Workload(workload.name, sub_table, workload.queries)
    return _tau_sweep_experiment("figure7", "galaxy", sub_table, sub_workload, thresholds, config)


def figure8_tpch_tau_sweep(
    config: BenchmarkConfig | None = None,
    thresholds: tuple[float, ...] = (0.5, 0.25, 0.10, 0.05, 0.02),
) -> ExperimentResult:
    """Figure 8: impact of τ on TPC-H (paper uses the full dataset)."""
    config = config or BenchmarkConfig()
    table = tpch_table(config.tpch_rows, seed=config.seed)
    workload = tpch_workload(table, seed=config.seed)
    return _tau_sweep_experiment(
        "figure8", "tpch", table, workload, thresholds, config, project_nulls=True
    )


def _tau_sweep_experiment(
    name: str,
    dataset: str,
    table,
    workload: Workload,
    thresholds: tuple[float, ...],
    config: BenchmarkConfig,
    project_nulls: bool = False,
) -> ExperimentResult:
    result = ExperimentResult(
        name=name,
        description=f"{dataset}: impact of the partition size threshold τ on SKETCHREFINE",
    )
    for workload_query in workload.queries:
        scaling = QueryScalingResult(dataset, workload_query.name, "size_threshold")
        query_table = table
        if project_nulls:
            query_table = table.drop_nulls(sorted(workload_query.attributes))
        query = restrict_workload_query(workload_query, query_table.name)
        baseline = run_method(
            query_table, query, "direct", dataset, config, parameters={"size_threshold": 0}
        )
        for threshold_fraction in thresholds:
            tau = max(1, int(threshold_fraction * query_table.num_rows))
            partitioning = build_partitioning(
                query_table, workload.workload_attributes, config, size_threshold=tau
            )
            parameters = {"size_threshold": tau}
            baseline_copy = MethodRun(
                dataset=baseline.dataset,
                query_name=baseline.query_name,
                method="direct",
                wall_seconds=baseline.wall_seconds,
                objective=baseline.objective,
                feasible=baseline.feasible,
                failed=baseline.failed,
                failure_reason=baseline.failure_reason,
                parameters={**parameters, "direction": baseline.parameters.get("direction")},
            )
            scaling.runs.append(baseline_copy)
            scaling.runs.append(
                run_method(
                    query_table, query, "sketchrefine", dataset, config,
                    partitioning=partitioning, parameters=parameters,
                )
            )
        result.query_results.append(scaling)
    return result


# ---------------------------------------------------------------------------
# Figure 9 — partitioning coverage
# ---------------------------------------------------------------------------

def figure9_coverage(
    config: BenchmarkConfig | None = None,
    dataset: str = "galaxy",
    query_name: str = "Q1",
    coverages: tuple[float, ...] | None = None,
) -> ExperimentResult:
    """Figure 9: runtime-increase ratio vs partitioning coverage.

    Coverage is the number of partitioning attributes divided by the number of
    query attributes: below 1 the partitioning covers only a subset of the
    query attributes, above 1 it additionally covers attributes the query does
    not use.
    """
    config = config or BenchmarkConfig()
    if dataset == "galaxy":
        table = galaxy_table(config.galaxy_rows, seed=config.seed)
        workload = galaxy_workload(table, seed=config.seed)
        extra_attributes = [a for a in table.schema.numeric_names]
    else:
        table = tpch_table(config.tpch_rows, seed=config.seed)
        workload = tpch_workload(table, seed=config.seed)
        extra_attributes = [a for a in table.schema.numeric_names]

    workload_query = workload.query(query_name)
    query_attributes = sorted(workload_query.attributes)
    if dataset != "galaxy":
        # TPC-H queries run on their non-NULL projection (Figure 3 protocol).
        table = table.drop_nulls(query_attributes)
    non_query = [a for a in extra_attributes if a not in query_attributes]

    if coverages is None:
        coverages = (0.5, 1.0, 2.0, 3.0) if len(non_query) >= 2 * len(query_attributes) else (0.5, 1.0, 2.0)

    result = ExperimentResult(
        name="figure9",
        description="Runtime increase/decrease ratio of SKETCHREFINE vs partitioning coverage",
    )
    scaling = QueryScalingResult(dataset, query_name, "coverage")
    tau = max(1, int(config.size_threshold_fraction * table.num_rows))

    baseline_seconds: float | None = None
    rows = []
    for coverage in coverages:
        attribute_count = max(1, int(round(coverage * len(query_attributes))))
        if attribute_count <= len(query_attributes):
            attributes = query_attributes[:attribute_count]
        else:
            attributes = query_attributes + non_query[: attribute_count - len(query_attributes)]
        partitioning = QuadTreePartitioner(size_threshold=tau).partition(table, attributes)
        query = restrict_workload_query(workload_query, table.name)
        run = run_method(
            table, query, "sketchrefine", dataset, config,
            partitioning=partitioning,
            parameters={"coverage": round(len(attributes) / len(query_attributes), 2)},
        )
        scaling.runs.append(run)
        if abs(coverage - 1.0) < 1e-9:
            baseline_seconds = run.wall_seconds
        rows.append(
            {
                "coverage": round(len(attributes) / len(query_attributes), 2),
                "partitioning_attributes": len(attributes),
                "seconds": run.wall_seconds,
                "failed": run.failed,
            }
        )

    if baseline_seconds:
        for row in rows:
            row["time_increase_ratio"] = (
                row["seconds"] / baseline_seconds if not row["failed"] else None
            )
    result.query_results.append(scaling)
    result.add_table("figure9_rows", rows)
    return result


# ---------------------------------------------------------------------------
# Ablations beyond the paper's figures
# ---------------------------------------------------------------------------

def radius_ablation(
    config: BenchmarkConfig | None = None,
    dataset: str = "tpch",
    query_name: str = "Q2",
    epsilon: float = 1.0,
) -> ExperimentResult:
    """Section 5.2.1 note: enforcing a radius limit fixes the one bad TPC-H ratio.

    The paper reports that TPC-H Q2 (a minimisation query) had a poor
    approximation ratio with size-threshold-only partitioning, and that
    re-running with a radius limit derived from ε = 1.0 achieved a perfect
    ratio.  This ablation reproduces that comparison.
    """
    config = config or BenchmarkConfig()
    if dataset == "tpch":
        table = tpch_table(config.tpch_rows, seed=config.seed)
        workload = tpch_workload(table, seed=config.seed)
    else:
        table = galaxy_table(config.galaxy_rows, seed=config.seed)
        workload = galaxy_workload(table, seed=config.seed)
    workload_query = workload.query(query_name)
    attributes = sorted(workload_query.attributes)
    table = table.drop_nulls(attributes)
    query = restrict_workload_query(workload_query, table.name)
    tau = max(1, int(config.size_threshold_fraction * table.num_rows))

    direction = (
        workload_query.query.objective.direction
        if workload_query.query.objective
        else ObjectiveDirection.MINIMIZE
    )

    rows = []
    scaling = QueryScalingResult(dataset, query_name, "partitioning")
    baseline = run_method(table, query, "direct", dataset, config, parameters={"partitioning": "none"})
    scaling.runs.append(baseline)

    size_only = QuadTreePartitioner(size_threshold=tau).partition(table, attributes)
    run_size_only = run_method(
        table, query, "sketchrefine", dataset, config,
        partitioning=size_only, parameters={"partitioning": "size-threshold-only"},
    )
    scaling.runs.append(run_size_only)

    omega = omega_for_epsilon(size_only.representatives, attributes, epsilon, direction)
    radius_limited = QuadTreePartitioner(size_threshold=tau, radius_limit=omega).partition(
        table, attributes
    )
    run_radius = run_method(
        table, query, "sketchrefine", dataset, config,
        partitioning=radius_limited, parameters={"partitioning": f"radius(eps={epsilon})"},
    )
    scaling.runs.append(run_radius)

    for run in (baseline, run_size_only, run_radius):
        rows.append(
            {
                "configuration": run.parameters["partitioning"],
                "method": run.method,
                "seconds": run.wall_seconds,
                "objective": run.objective,
                "failed": run.failed,
            }
        )
    result = ExperimentResult(
        name="radius_ablation",
        description=f"{dataset} {query_name}: size-threshold-only vs radius-limited partitioning",
    )
    result.query_results.append(scaling)
    result.add_table("radius_rows", rows)
    return result


def approximation_bound_study(
    config: BenchmarkConfig | None = None,
    epsilons: tuple[float, ...] = (0.1, 0.25, 0.5),
    num_rows: int = 400,
) -> ExperimentResult:
    """Theorem 3 check: SKETCHREFINE stays within the (1±ε)^6 bound of DIRECT.

    For each ε the dataset is partitioned with the radius limit of Equation (1)
    and the empirical approximation ratio is compared against the theoretical
    factor.
    """
    config = config or BenchmarkConfig()
    table = galaxy_table(num_rows, seed=config.seed)
    workload = galaxy_workload(table, seed=config.seed)
    workload_query = workload.query("Q5")
    attributes = sorted(workload_query.attributes)
    query = restrict_workload_query(workload_query, table.name)
    direction = workload_query.query.objective.direction

    direct_run = run_method(table, query, "direct", "galaxy", config, parameters={"epsilon": 0.0})
    rows = []
    for epsilon in epsilons:
        seed_partitioning = QuadTreePartitioner(
            size_threshold=max(1, int(config.size_threshold_fraction * num_rows))
        ).partition(table, attributes)
        omega = omega_for_epsilon(seed_partitioning.representatives, attributes, epsilon, direction)
        partitioning = QuadTreePartitioner(
            size_threshold=max(1, int(config.size_threshold_fraction * num_rows)),
            radius_limit=omega,
        ).partition(table, attributes)
        run = run_method(
            table, query, "sketchrefine", "galaxy", config,
            partitioning=partitioning, parameters={"epsilon": epsilon},
        )
        bound = approximation_factor(epsilon, direction)
        worst = 1.0 / bound if direction is ObjectiveDirection.MAXIMIZE else bound
        observed = float("nan")
        if run.succeeded and direct_run.succeeded:
            observed = approximation_ratio(run.objective, direct_run.objective, direction)
        rows.append(
            {
                "epsilon": epsilon,
                "radius_limit": omega,
                "groups": partitioning.num_groups,
                "observed_ratio": observed,
                "theoretical_worst_ratio": worst,
                "within_bound": bool(observed <= worst + 1e-6) if not np.isnan(observed) else None,
            }
        )
    result = ExperimentResult(
        name="approximation_bounds",
        description="Empirical check of the (1±ε)^6 approximation guarantee (Theorem 3)",
    )
    result.add_table("bound_rows", rows)
    return result


def partitioner_comparison(
    config: BenchmarkConfig | None = None,
    num_rows: int = 1_000,
) -> ExperimentResult:
    """Ablation: quad-tree vs k-d tree vs k-means partitioning (Section 4.1 discussion)."""
    config = config or BenchmarkConfig()
    table = galaxy_table(num_rows, seed=config.seed)
    workload = galaxy_workload(table, seed=config.seed)
    attributes = workload.workload_attributes
    tau = max(1, int(config.size_threshold_fraction * num_rows))

    partitioners = {
        "quadtree": QuadTreePartitioner(size_threshold=tau),
        "kdtree": KdTreePartitioner(size_threshold=tau),
        "kmeans": KMeansPartitioner(size_threshold=tau, seed=config.seed),
    }
    rows = []
    workload_query = workload.query("Q1")
    query = restrict_workload_query(workload_query, table.name)
    direct_run = run_method(table, query, "direct", "galaxy", config, parameters={"partitioner": "none"})
    for name, partitioner in partitioners.items():
        start = time.perf_counter()
        partitioning = partitioner.partition(table, attributes)
        build_seconds = time.perf_counter() - start
        run = run_method(
            table, query, "sketchrefine", "galaxy", config,
            partitioning=partitioning, parameters={"partitioner": name},
        )
        ratio = float("nan")
        if run.succeeded and direct_run.succeeded:
            ratio = approximation_ratio(
                run.objective, direct_run.objective, query.query.objective.direction
            )
        rows.append(
            {
                "partitioner": name,
                "groups": partitioning.num_groups,
                "max_group_size": int(partitioning.group_sizes().max()),
                "build_seconds": build_seconds,
                "query_seconds": run.wall_seconds,
                "approx_ratio": ratio,
                "satisfies_tau": partitioning.satisfies_size_threshold(tau),
            }
        )
    result = ExperimentResult(
        name="partitioner_comparison",
        description="Quad-tree vs k-d tree vs k-means offline partitioning",
    )
    result.add_table("partitioner_rows", rows)
    return result


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _both_workloads(config: BenchmarkConfig):
    galaxy = galaxy_table(config.galaxy_rows, seed=config.seed)
    yield "galaxy", galaxy, galaxy_workload(galaxy, seed=config.seed)
    tpch = tpch_table(config.tpch_rows, seed=config.seed)
    yield "tpch", tpch, tpch_workload(tpch, seed=config.seed)
