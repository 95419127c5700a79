"""Tests for the Section 4.4 false-infeasibility mitigation strategies."""

import numpy as np
import pytest

from repro.core import infeasibility
from repro.core.direct import DirectEvaluator
from repro.core.infeasibility import (
    DropPartitioningAttributes,
    FalseInfeasibilityResolver,
    FurtherPartitioning,
    IterativeGroupMerging,
    merge_groups_pairwise,
)
from repro.core.sketchrefine import SketchRefineConfig, SketchRefineEvaluator
from repro.core.validation import check_package
from repro.errors import InfeasiblePackageQueryError
from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.paql.builder import query_over
from repro.partition.quadtree import QuadTreePartitioner
from repro.workloads.recipes import meal_planner_query, recipes_table


@pytest.fixture(scope="module")
def setup():
    table = recipes_table(num_rows=150, seed=29)
    partitioning = QuadTreePartitioner(size_threshold=30).partition(
        table, ["kcal", "saturated_fat", "protein"]
    )
    return table, partitioning


def tight_query(table):
    """A feasible query only satisfiable by extreme tuples (defeats plain sketch)."""
    kcal = table.numeric_column("kcal")
    two_smallest = float(np.sort(kcal)[:2].sum())
    return (
        query_over("recipes")
        .no_repetition()
        .count_equals(2)
        .sum_between("kcal", two_smallest - 1e-9, two_smallest + 0.01)
        .minimize_sum("saturated_fat")
        .build()
    )


class TestStrategies:
    def test_further_partitioning_shrinks_tau(self, setup):
        table, partitioning = setup
        candidates = FurtherPartitioning(rounds=2).candidate_partitionings(
            table, meal_planner_query(), partitioning
        )
        assert len(candidates) == 2
        assert candidates[0].stats.size_threshold < partitioning.stats.size_threshold
        assert candidates[1].num_groups >= candidates[0].num_groups

    def test_drop_attributes_reduces_dimensions(self, setup):
        table, partitioning = setup
        candidates = DropPartitioningAttributes(max_drops=2).candidate_partitionings(
            table, meal_planner_query(), partitioning
        )
        assert candidates
        assert all(len(c.attributes) < len(partitioning.attributes) for c in candidates)

    def test_iis_probe_describes_the_sketch_the_evaluator_solves(self, monkeypatch):
        # The base predicate empties part of every group: a probe that forgets
        # it sees other group caps and other centroids than the evaluator.
        table = recipes_table()
        partitioning = QuadTreePartitioner(size_threshold=10).partition(
            table, ["kcal", "saturated_fat"]
        )
        query = meal_planner_query()

        class RecordingSolver:
            def __init__(self):
                self.models = []

            def solve(self, model):
                self.models.append(model)
                return BranchAndBoundSolver().solve(model)

        solver = RecordingSolver()
        SketchRefineEvaluator(solver=solver).evaluate(table, query, partitioning)
        probed = []
        monkeypatch.setattr(infeasibility, "find_iis", lambda model: probed.append(model) or [])
        DropPartitioningAttributes().candidate_partitionings(table, query, partitioning)

        sketch, probe = solver.models[0].to_matrix(), probed[0].to_matrix()
        for name in ("a_ub", "b_ub", "a_eq", "b_eq"):
            np.testing.assert_array_equal(getattr(probe, name), getattr(sketch, name), err_msg=name)
        np.testing.assert_array_equal(probe.bound_arrays(), sketch.bound_arrays())

    def test_group_merging_halves_group_count(self, setup):
        table, partitioning = setup
        merged = merge_groups_pairwise(partitioning)
        assert merged.num_groups == (partitioning.num_groups + 1) // 2
        assert merged.group_sizes().sum() == table.num_rows

    def test_group_merging_candidates_shrink_to_one(self, setup):
        table, partitioning = setup
        candidates = IterativeGroupMerging(rounds=10).candidate_partitionings(
            table, meal_planner_query(), partitioning
        )
        assert candidates[-1].num_groups == 1

    def test_merge_single_group_is_identity(self, setup):
        table, _ = setup
        single = QuadTreePartitioner(size_threshold=10_000).partition(table, ["kcal"])
        assert merge_groups_pairwise(single) is single


class TestResolver:
    def test_passthrough_when_sketchrefine_succeeds(self, setup, fast_solver):
        table, partitioning = setup
        resolver = FalseInfeasibilityResolver(SketchRefineEvaluator(solver=fast_solver))
        package = resolver.evaluate(table, meal_planner_query(), partitioning)
        assert check_package(package, meal_planner_query()).feasible
        assert resolver.last_report.succeeded_with == "original-partitioning"
        assert not resolver.last_report.used_fallback

    def test_resolver_recovers_tight_query(self, setup, fast_solver):
        """Without the hybrid sketch, the tight query often looks infeasible;
        the resolver must still answer it because DIRECT can (group merging
        degenerates to DIRECT in the limit)."""
        table, partitioning = setup
        query = tight_query(table)
        # Sanity: the query is genuinely feasible.
        direct = DirectEvaluator(solver=fast_solver).evaluate(table, query)
        assert check_package(direct, query).feasible

        evaluator = SketchRefineEvaluator(
            solver=fast_solver, config=SketchRefineConfig(use_hybrid_sketch=False)
        )
        resolver = FalseInfeasibilityResolver(evaluator)
        package = resolver.evaluate(table, query, partitioning)
        assert check_package(package, query).feasible
        assert resolver.last_report.attempts[0] == "original-partitioning"

    def test_truly_infeasible_query_still_raises(self, setup, fast_solver):
        table, partitioning = setup
        impossible = (
            query_over("recipes").no_repetition().count_equals(3).sum_at_most("kcal", 0.001).build()
        )
        resolver = FalseInfeasibilityResolver(SketchRefineEvaluator(solver=fast_solver))
        with pytest.raises(InfeasiblePackageQueryError):
            resolver.evaluate(table, impossible, partitioning)

    def test_report_lists_attempts(self, setup, fast_solver):
        table, partitioning = setup
        query = tight_query(table)
        evaluator = SketchRefineEvaluator(
            solver=fast_solver, config=SketchRefineConfig(use_hybrid_sketch=False)
        )
        resolver = FalseInfeasibilityResolver(
            evaluator, strategies=[IterativeGroupMerging(rounds=10)]
        )
        resolver.evaluate(table, query, partitioning)
        assert len(resolver.last_report.attempts) >= 1
