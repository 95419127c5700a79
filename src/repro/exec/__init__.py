"""Parallel solve plane: worker pools and picklable solve tasks.

``SolvePool`` executes batches of independent solve tasks over a process
pool (or serially, bit-identically, when ``workers <= 1``); ``SolveTask`` /
``run_solve_task`` define the picklable unit of work.  SKETCHREFINE's refine
phase, the differential harness and the benchmark seeds all fan out through
this layer.
"""

from repro.exec.pool import (
    WORKERS_ENV_VAR,
    SolvePool,
    default_workers,
    shared_pool,
    shutdown_shared_pools,
)
from repro.exec.tasks import (
    SolveTask,
    SolveTaskResult,
    SupportsSolve,
    run_solve_task,
)

__all__ = [
    "WORKERS_ENV_VAR",
    "SolvePool",
    "SolveTask",
    "SolveTaskResult",
    "SupportsSolve",
    "default_workers",
    "run_solve_task",
    "shared_pool",
    "shutdown_shared_pools",
]
