"""Tests for the benchmark harness infrastructure (results, runners, reporting)."""

import math

import pytest

from repro.bench import experiments
from repro.bench.harness import (
    BenchmarkConfig,
    build_partitioning,
    restrict_workload_query,
    run_method,
    scaled_fractions,
)
from repro.bench.reporting import render_series, render_table, summarize_speedups
from repro.bench.results import ExperimentResult, MethodRun, QueryScalingResult
from repro.paql.ast import ObjectiveDirection
from repro.workloads.recipes import meal_planner_query, recipes_table
from repro.workloads.specs import WorkloadQuery


@pytest.fixture
def config() -> BenchmarkConfig:
    return BenchmarkConfig(
        galaxy_rows=100, tpch_rows=100, solver_time_limit=10.0,
        solver_node_limit=500, fractions=(0.5, 1.0),
    )


@pytest.fixture
def recipes_query() -> WorkloadQuery:
    return WorkloadQuery("meal", meal_planner_query(), "running example")


class TestResults:
    def _runs(self):
        return [
            MethodRun("d", "Q1", "direct", 10.0, objective=100.0, feasible=True,
                      parameters={"fraction": 1.0, "direction": "minimize"}),
            MethodRun("d", "Q1", "sketchrefine", 1.0, objective=120.0, feasible=True,
                      parameters={"fraction": 1.0, "direction": "minimize"}),
            MethodRun("d", "Q1", "direct", 4.0, objective=50.0, feasible=True,
                      parameters={"fraction": 0.5, "direction": "minimize"}),
            MethodRun("d", "Q1", "sketchrefine", 2.0, objective=50.0, feasible=True,
                      parameters={"fraction": 0.5, "direction": "minimize"}),
        ]

    def test_approximation_ratios(self):
        result = QueryScalingResult("d", "Q1", "fraction", self._runs())
        ratios = sorted(result.approximation_ratios())
        assert ratios == [pytest.approx(1.0), pytest.approx(1.2)]
        assert result.mean_approximation_ratio() == pytest.approx(1.1)
        assert result.median_approximation_ratio() == pytest.approx(1.1)

    def test_maximisation_ratio_orientation(self):
        runs = [
            MethodRun("d", "Q", "direct", 1.0, objective=100.0, feasible=True,
                      parameters={"fraction": 1.0, "direction": "maximize"}),
            MethodRun("d", "Q", "sketchrefine", 1.0, objective=80.0, feasible=True,
                      parameters={"fraction": 1.0, "direction": "maximize"}),
        ]
        result = QueryScalingResult("d", "Q", "fraction", runs)
        assert result.approximation_ratios() == [pytest.approx(1.25)]

    def test_zero_objectives(self):
        """Both zero reads 1.0; a zero denominator alone has no ratio."""
        runs = []
        for fraction, direction, direct, sketch in [
            (0.25, "minimize", 0.0, 0.0),
            (0.5, "minimize", 0.0, 3.0),
            (1.0, "maximize", 3.0, 0.0),
        ]:
            parameters = {"fraction": fraction, "direction": direction}
            runs.append(MethodRun("d", "Q", "direct", 1.0, objective=direct, feasible=True,
                                  parameters=parameters))
            runs.append(MethodRun("d", "Q", "sketchrefine", 1.0, objective=sketch, feasible=True,
                                  parameters=parameters))
        result = QueryScalingResult("d", "Q", "fraction", runs)
        assert result.approximation_ratios() == [1.0]

    def test_speedup_geometric_mean(self):
        result = QueryScalingResult("d", "Q1", "fraction", self._runs())
        assert result.speedup() == pytest.approx(math.sqrt(10.0 * 2.0))

    def test_failed_runs_excluded(self):
        runs = self._runs()
        runs[0].failed = True
        result = QueryScalingResult("d", "Q1", "fraction", runs)
        assert len(result.approximation_ratios()) == 1

    def test_empty_results_give_nan(self):
        result = QueryScalingResult("d", "Q1", "fraction", [])
        assert math.isnan(result.mean_approximation_ratio())
        assert math.isnan(result.speedup())

    def test_experiment_result_lookup(self):
        experiment = ExperimentResult("exp", "test")
        experiment.query_results.append(QueryScalingResult("d", "Q1", "fraction"))
        assert experiment.result_for("Q1").query_name == "Q1"
        with pytest.raises(KeyError):
            experiment.result_for("Q9")
        experiment.add_table("rows", [{"a": 1}])
        assert experiment.tables["rows"] == [{"a": 1}]


class TestRatioExperiments:
    """The experiments' ratio columns survive a zero objective in either
    orientation: a zero denominator reads infinity, both zero read 1.0."""

    @pytest.fixture
    def objectives(self, monkeypatch):
        """Fake ``run_method`` returning ``objectives[method]``, over a Galaxy
        workload whose queries optimise in ``objectives["direction"]``."""
        objectives = {}
        real_workload = experiments.galaxy_workload

        def galaxy_workload(table, seed):
            workload = real_workload(table, seed=seed)
            for workload_query in workload.queries:
                workload_query.query.objective.direction = objectives["direction"]
            return workload

        def run_method(table, query, method, dataset, config, partitioning=None, parameters=None):
            return MethodRun(dataset, query.name, method, 0.01, objective=objectives[method],
                             feasible=True, parameters=dict(parameters or {}))

        monkeypatch.setattr(experiments, "galaxy_workload", galaxy_workload)
        monkeypatch.setattr(experiments, "run_method", run_method)
        return objectives

    # (direction, DIRECT objective, SKETCHREFINE objective, expected ratio)
    CASES = [
        (ObjectiveDirection.MAXIMIZE, 5.0, 0.0, math.inf),
        (ObjectiveDirection.MINIMIZE, 0.0, 5.0, math.inf),
        (ObjectiveDirection.MAXIMIZE, 0.0, 0.0, 1.0),
        (ObjectiveDirection.MINIMIZE, 0.0, 0.0, 1.0),
    ]

    @pytest.mark.parametrize("direction, direct, sketch, expected", CASES)
    def test_partitioner_comparison(self, objectives, direction, direct, sketch, expected):
        objectives.update(direction=direction, direct=direct, sketchrefine=sketch)
        config = BenchmarkConfig(seed=1)
        result = experiments.partitioner_comparison(config, num_rows=200)
        rows = result.tables["partitioner_rows"]
        assert [row["approx_ratio"] for row in rows] == [expected] * 3

    @pytest.mark.parametrize("direction, direct, sketch, expected", CASES)
    def test_approximation_bound_study(self, objectives, direction, direct, sketch, expected):
        objectives.update(direction=direction, direct=direct, sketchrefine=sketch)
        config = BenchmarkConfig(seed=1)
        result = experiments.approximation_bound_study(config, epsilons=(0.25,), num_rows=200)
        (row,) = result.tables["bound_rows"]
        assert row["observed_ratio"] == expected
        assert row["within_bound"] is (expected == 1.0)


class TestHarness:
    def test_scaled_fractions_are_nested_subsets(self):
        table = recipes_table(100, seed=1)
        subsets = scaled_fractions(table, (0.2, 0.6, 1.0), seed=0)
        assert len(subsets[0.2]) == 20
        assert len(subsets[1.0]) == 100
        assert set(subsets[0.2]) <= set(subsets[0.6]) <= set(subsets[1.0])

    def test_run_method_direct_success(self, config, recipes_query):
        table = recipes_table(60, seed=7)
        run = run_method(table, recipes_query, "direct", "recipes", config)
        assert run.succeeded
        assert run.feasible
        assert run.wall_seconds > 0
        assert run.parameters["direction"] == "minimize"

    def test_run_method_captures_failures(self, config, recipes_query):
        table = recipes_table(60, seed=7)
        capped = BenchmarkConfig(direct_max_variables=5, solver_time_limit=5.0)
        run = run_method(table, recipes_query, "direct", "recipes", capped)
        assert run.failed
        assert "SolverCapacityError" in run.failure_reason

    def test_run_method_sketchrefine_needs_partitioning(self, config, recipes_query):
        table = recipes_table(60, seed=7)
        run = run_method(table, recipes_query, "sketchrefine", "recipes", config)
        assert run.failed

    def test_run_method_sketchrefine_with_partitioning(self, config, recipes_query):
        table = recipes_table(60, seed=7)
        partitioning = build_partitioning(table, ["kcal", "saturated_fat"], config)
        run = run_method(
            table, recipes_query, "sketchrefine", "recipes", config, partitioning=partitioning
        )
        assert run.succeeded

    def test_unknown_method_recorded_as_failure(self, config, recipes_query):
        table = recipes_table(30, seed=7)
        run = run_method(table, recipes_query, "quantum", "recipes", config)
        assert run.failed

    def test_restrict_workload_query_renames_relation(self, recipes_query):
        renamed = restrict_workload_query(recipes_query, "other_relation")
        assert renamed.query.relation == "other_relation"
        assert renamed.name == recipes_query.name
        assert len(renamed.query.global_constraints) == len(recipes_query.query.global_constraints)


class TestReporting:
    def test_render_table_alignment_and_nulls(self):
        text = render_table(
            [{"a": 1.0, "b": None}, {"a": float("nan"), "b": "x"}], title="demo"
        )
        assert "demo" in text
        assert "—" in text

    def test_render_table_empty(self):
        assert "(no rows)" in render_table([])

    def test_render_series_and_speedups(self):
        runs = [
            MethodRun("d", "Q1", "direct", 10.0, objective=10.0, feasible=True,
                      parameters={"fraction": 1.0, "direction": "minimize"}),
            MethodRun("d", "Q1", "sketchrefine", 1.0, objective=10.0, feasible=True,
                      parameters={"fraction": 1.0, "direction": "minimize"}),
        ]
        result = QueryScalingResult("d", "Q1", "fraction", runs)
        series_text = render_series(result, "fraction")
        assert "Q1" in series_text and "approx ratio" in series_text
        summary = summarize_speedups([result])
        assert "speedup" in summary
