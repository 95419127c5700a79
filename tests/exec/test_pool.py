"""Tests for the serial ``SolvePool`` stub that the benchmark's tracer wraps.

Refine rounds run in-process, so nothing under ``src/`` maps through the
pool; the class stays only because the trace's span table reads ``map``
from its class dict.  These tests pin that contract: an in-order serial
map, exceptions propagating unchanged, and a SKETCHREFINE evaluation that
never reaches the pool.
"""

import pytest

from repro.core.sketchrefine import SketchRefineEvaluator
from repro.exec.pool import SolvePool
from repro.partition.quadtree import QuadTreePartitioner
from repro.workloads.recipes import meal_planner_query, recipes_table


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"boom {x}")


class TestSerialMap:
    def test_results_come_back_in_submission_order(self):
        assert SolvePool().map(_square, range(17)) == [i * i for i in range(17)]

    def test_single_item_and_empty_maps(self):
        assert SolvePool().map(_square, [7]) == [49]
        assert SolvePool().map(_square, []) == []

    def test_mapped_function_exceptions_propagate(self):
        with pytest.raises(ValueError, match="boom 2"):
            SolvePool().map(_boom, [2])

    def test_map_is_defined_on_the_class(self):
        # The tracer patches and restores ``vars(SolvePool)["map"]``.
        assert callable(vars(SolvePool)["map"])


def test_sketchrefine_never_maps_through_the_pool(monkeypatch, fast_solver):
    def refuse(self, fn, items):
        raise AssertionError("SolvePool.map was called")

    monkeypatch.setattr(SolvePool, "map", refuse)
    table = recipes_table(num_rows=120, seed=3)
    partitioning = QuadTreePartitioner(size_threshold=20).partition(
        table, ["kcal", "saturated_fat", "protein", "carbs"]
    )
    evaluator = SketchRefineEvaluator(solver=fast_solver)
    package = evaluator.evaluate(table, meal_planner_query(), partitioning)
    assert package.cardinality > 0
    assert evaluator.last_stats.refine_queries >= 1
    assert evaluator.last_stats.refine_workers == 1
    assert evaluator.last_stats.refine_parallel_tasks == 0
