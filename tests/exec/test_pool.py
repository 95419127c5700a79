"""Tests for the parallel solve plane: SolvePool and the solve-task contract.

Covers the environment-driven default, the serial fallback (no executor is
ever created), ordered results under oversubscription, worker crashes
surfacing as a clean :class:`SolverError` (no hang, pool usable afterwards),
and the determinism contract: ``workers=1`` and a parallel pool produce
bit-identical :class:`SolveTaskResult`s, independent of the process-global
RNG and of warm memo caches.
"""

import os
import pickle

import numpy as np
import pytest

from repro.errors import SolverError
from repro.exec.pool import (
    WORKERS_ENV_VAR,
    SolvePool,
    default_workers,
    shared_pool,
    shutdown_shared_pools,
)
from repro.exec.tasks import SolveTask, run_solve_task
from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.rounding import RelaxAndRoundSolver
from repro.ilp.status import SolverStatus


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"boom {x}")


def _hard_exit(x: int) -> int:
    # Simulates a worker killed mid-task (OOM killer, segfault): the process
    # dies without raising, which breaks the executor.
    os._exit(13)


def _refine_like_task(task_id: int, shift: float = 0.0) -> SolveTask:
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
    solver = BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-9, node_limit=5_000))
    return SolveTask(task_id=task_id, model=model, solver=solver, rng_seed=task_id)


class TestDefaultWorkers:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert default_workers() == 1
        assert not SolvePool().is_parallel

    def test_env_variable_drives_the_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert default_workers() == 3
        assert SolvePool().workers == 3

    def test_env_floor_is_one(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "0")
        assert default_workers() == 1
        monkeypatch.setenv(WORKERS_ENV_VAR, "-4")
        assert default_workers() == 1

    def test_invalid_env_raises_a_clean_error(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "many")
        with pytest.raises(SolverError, match="REPRO_WORKERS"):
            default_workers()

    def test_shared_pool_memoizes_per_count(self):
        try:
            assert shared_pool(2) is shared_pool(2)
            assert shared_pool(2) is not shared_pool(3)
        finally:
            shutdown_shared_pools()


class TestSerialFallback:
    def test_serial_pool_never_creates_an_executor(self):
        pool = SolvePool(1)
        assert pool.map(_square, range(5)) == [0, 1, 4, 9, 16]
        assert pool._executor is None

    def test_single_item_batch_stays_in_process_even_when_parallel(self):
        pool = SolvePool(4)
        assert pool.map(_square, [7]) == [49]
        assert pool._executor is None

    def test_mapped_function_exceptions_propagate(self):
        with pytest.raises(ValueError, match="boom 2"):
            SolvePool(1).map(_boom, [2])


class TestParallelExecution:
    def test_oversubscription_returns_ordered_results(self):
        # Far more tasks than workers: results must come back in submission
        # order regardless of completion order.
        with SolvePool(2) as pool:
            assert pool.map(_square, range(17)) == [i * i for i in range(17)]

    def test_worker_crash_raises_solver_error_and_pool_recovers(self):
        with SolvePool(2) as pool:
            with pytest.raises(SolverError, match="worker crashed"):
                pool.map(_hard_exit, range(4))
            # The broken executor was discarded; the pool works again.
            assert pool.map(_square, range(4)) == [0, 1, 4, 9]

    def test_mapped_function_exceptions_propagate_from_workers(self):
        with SolvePool(2) as pool:
            with pytest.raises(ValueError, match="boom"):
                pool.map(_boom, range(4))


class TestSolveTaskDeterminism:
    def test_task_payload_round_trips_through_pickle(self):
        task = _refine_like_task(3)
        clone = pickle.loads(pickle.dumps(task))
        assert clone.task_id == task.task_id
        assert clone.rng_seed == task.rng_seed
        result = run_solve_task(task)
        shipped = run_solve_task(clone)
        assert result.status is shipped.status
        np.testing.assert_array_equal(result.values, shipped.values)
        assert result.objective_value == shipped.objective_value

    def test_serial_and_parallel_results_are_bit_identical(self):
        tasks = [_refine_like_task(i) for i in range(6)]
        serial = SolvePool(1).map(run_solve_task, tasks)
        with SolvePool(2) as pool:
            parallel = pool.map(run_solve_task, tasks)
        assert len(serial) == len(parallel) == len(tasks)
        for task, s, p in zip(tasks, serial, parallel):
            assert s.task_id == p.task_id == task.task_id
            assert s.status is p.status
            assert s.status is SolverStatus.OPTIMAL
            np.testing.assert_array_equal(s.values, p.values)
            assert s.objective_value == p.objective_value
            assert (s.stats.lp_solves, s.stats.simplex_iterations) == (
                p.stats.lp_solves,
                p.stats.simplex_iterations,
            )

    def test_results_are_independent_of_the_global_rng(self):
        task = _refine_like_task(5)
        baseline = run_solve_task(task)
        # Perturb the process-global RNG the way a warm, reused worker might
        # have: the per-task reseed must make the result identical anyway.
        np.random.seed(987654)
        np.random.random(1000)
        perturbed = run_solve_task(_refine_like_task(5))
        assert perturbed.status is baseline.status
        np.testing.assert_array_equal(perturbed.values, baseline.values)
        assert perturbed.objective_value == baseline.objective_value

    def test_repeated_execution_is_stable_despite_warm_caches(self):
        # Re-running the same task in one process exercises the model's memo
        # caches (matrix form, simplex working matrix); results must not
        # drift between a cold and a warm execution.
        task = _refine_like_task(1)
        first = run_solve_task(task)
        second = run_solve_task(task)
        assert first.status is second.status
        np.testing.assert_array_equal(first.values, second.values)
        assert first.objective_value == second.objective_value

    def test_solve_seconds_is_measured_in_the_executing_process(self):
        result = run_solve_task(_refine_like_task(2))
        assert result.solve_seconds > 0.0

    def test_warm_basis_reaches_branch_and_bound_only(self):
        task = _refine_like_task(4)
        task.warm_basis = run_solve_task(task).root_basis
        assert task.warm_basis is not None
        assert run_solve_task(task).warm_started
        # Any other black-box solver gets a plain ``solve(model)`` call.
        task.solver = RelaxAndRoundSolver()
        assert not run_solve_task(task).warm_started
