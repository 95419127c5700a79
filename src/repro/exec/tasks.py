"""Picklable solve-task payloads for the worker pool.

A :class:`SolveTask` packages everything one independent ILP solve needs —
the model (whose memoized :class:`~repro.ilp.matrix_form.MatrixForm` and
working-matrix caches are dropped on pickling and rebuilt in the worker), the
solver configuration, and an optional warm-start simplex basis — so it can be
shipped to a worker process and executed by :func:`run_solve_task`.

Determinism is the contract: ``run_solve_task(task)`` is a pure function of
the task payload.  The serial execution path calls exactly this function
in-process, so a parallel run is bit-identical to a serial one by
construction.  Two guards keep it that way:

* the process-global NumPy RNG is reseeded per task (``rng_seed``), so any
  stray RNG-dependent code path sees the same stream regardless of which
  worker — or how warm a worker — executes the task, and
* the task carries its own model/solver copies; form-level memo caches (the
  simplex working matrix) are rebuilt per task and never shared across
  workers.

``solve_seconds`` on the result is measured *inside* the executing process
with a monotonic clock: summing it over tasks gives the true compute time,
which callers report separately from their own (overlapped) wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.model import IlpModel
from repro.ilp.simplex import SimplexBasis
from repro.ilp.status import Solution, SolveStats, SolverStatus


class SupportsSolve(Protocol):
    """The black-box solver contract a :class:`SolveTask` ships."""

    def solve(self, model: IlpModel) -> Solution: ...


@dataclass
class SolveTask:
    """One independent ILP solve, ready to ship to a worker.

    Attributes:
        task_id: Caller-chosen identifier (SKETCHREFINE uses the group id);
            results are merged by it, so it must be unique within a batch.
        model: The ILP to solve.  Pickling drops its matrix-form memo caches;
            the worker rebuilds them (cheap for refine-sized models).
        solver: Solver to run (``None`` → a default
            :class:`BranchAndBoundSolver`).  Must be picklable for parallel
            execution; :class:`BranchAndBoundSolver` is.
        warm_basis: Optional simplex basis seeding the root LP relaxation;
            consumed by :class:`BranchAndBoundSolver`, ignored for any other
            black-box solver.
        rng_seed: Per-task seed for the process-global NumPy RNG; ``None``
            skips reseeding.  The bundled solvers are RNG-free — this is a
            determinism guard, not a requirement.
    """

    task_id: int
    model: IlpModel
    solver: SupportsSolve | None = None
    warm_basis: SimplexBasis | None = None
    rng_seed: int | None = 0


@dataclass
class SolveTaskResult:
    """Outcome of one :class:`SolveTask`, picklable for the trip back.

    Only plain data crosses the process boundary: status, values, objective,
    the exported root basis (for warm-starting a retry of the same task), the
    solver statistics, and the solve wall time measured inside the executing
    process.
    """

    task_id: int
    status: SolverStatus
    values: np.ndarray
    objective_value: float
    root_basis: SimplexBasis | None = None
    stats: SolveStats = field(default_factory=SolveStats)
    solve_seconds: float = 0.0
    warm_started: bool = False

    @property
    def has_solution(self) -> bool:
        return self.status.has_solution


def run_solve_task(task: SolveTask) -> SolveTaskResult:
    """Execute one solve task (in-process or inside a worker).

    This is the single implementation both execution paths share: the serial
    fallback calls it directly, the pool pickles the task to a worker and
    calls it there.  Either way the result is a pure function of the payload.
    """
    if task.rng_seed is not None:
        np.random.seed(task.rng_seed)
    started = time.perf_counter()
    solver = task.solver if task.solver is not None else BranchAndBoundSolver()
    if task.warm_basis is not None and isinstance(solver, BranchAndBoundSolver):
        use_warm = True
        solution = solver.solve(task.model, warm_start=task.warm_basis)
    else:
        use_warm = False
        solution = solver.solve(task.model)
    return SolveTaskResult(
        task_id=task.task_id,
        status=solution.status,
        values=np.asarray(solution.values, dtype=np.float64),
        objective_value=solution.objective_value,
        root_basis=solution.root_basis,
        stats=solution.stats,
        solve_seconds=time.perf_counter() - started,
        warm_started=use_warm,
    )
