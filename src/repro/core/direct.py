"""The DIRECT evaluation strategy (Section 3.2 of the paper).

DIRECT evaluates a package query in three steps:

1. translate the PaQL query to an ILP (Section 3.1 rules),
2. compute the base relations (done inside the translation, which creates
   variables only for tuples satisfying the WHERE clause), and
3. hand the ILP to the black-box solver and convert the variable assignment
   back into a package.

DIRECT is exact but does not scale: the solver must hold the whole problem,
so it can fail on large or hard instances — those failures surface here as
:class:`~repro.errors.SolverCapacityError` / timeout statuses, exactly the
regime the paper reports in Figure 5.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.package import Package
from repro.core.translator import IlpTranslation, translate_query
from repro.dataset.table import Table
from repro.errors import (
    EvaluationError,
    InfeasiblePackageQueryError,
    SolverCapacityError,
    SolverTimeoutError,
)
from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.status import Solution, SolveStats, SolverStatus
from repro.paql.ast import PackageQuery


@dataclass
class DirectStats:
    """Timing and size statistics for a DIRECT evaluation."""

    translation_seconds: float = 0.0
    solve_seconds: float = 0.0
    total_seconds: float = 0.0
    num_variables: int = 0
    num_constraints: int = 0
    constraint_nnz: int = 0
    """Non-zero coefficients of the translated constraint matrix."""
    solver_status: SolverStatus | None = None
    solve_stats: SolveStats | None = None
    """The solver's own statistics (nodes, LP solves, warm-start hits, …)."""


class DirectEvaluator:
    """Exact package-query evaluation through a single ILP solve."""

    def __init__(self, solver=None):
        """Args:
            solver: Any object with ``solve(IlpModel) -> Solution``; defaults
                to :class:`~repro.ilp.branch_and_bound.BranchAndBoundSolver`.
        """
        self.solver = solver or BranchAndBoundSolver()
        self.last_stats = DirectStats()

    def evaluate(self, table: Table, query: PackageQuery) -> Package:
        """Return the optimal package for ``query`` over ``table``.

        Raises:
            InfeasiblePackageQueryError: If no package satisfies the query.
            SolverCapacityError: If the problem exceeds the solver's capacity.
            SolverTimeoutError: If the solver hit its time budget without an
                incumbent.
        """
        start = time.perf_counter()
        translation = translate_query(table, query)
        # Exporting the matrix form here is free for the solver (the export is
        # memoized on the model) and counts it as translation time.
        form = translation.model.to_matrix()
        translated_at = time.perf_counter()

        solution = self.solver.solve(translation.model)
        solved_at = time.perf_counter()

        solve_stats = solution.stats
        self.last_stats = DirectStats(
            translation_seconds=translated_at - start,
            solve_seconds=solved_at - translated_at,
            total_seconds=solved_at - start,
            num_variables=translation.num_variables,
            num_constraints=translation.model.num_constraints,
            constraint_nnz=form.nnz,
            solver_status=solution.status,
            solve_stats=solve_stats,
        )
        return self._package_from_solution(translation, solution)

    @staticmethod
    def _package_from_solution(translation: IlpTranslation, solution: Solution) -> Package:
        if solution.status is SolverStatus.INFEASIBLE:
            raise InfeasiblePackageQueryError(
                f"query {translation.query.name or translation.model.name!r} is infeasible"
            )
        if solution.status is SolverStatus.CAPACITY_EXCEEDED:
            raise SolverCapacityError(
                f"problem with {translation.num_variables} variables exceeds solver capacity"
            )
        if solution.status is SolverStatus.TIME_LIMIT and not solution.has_solution:
            raise SolverTimeoutError("solver hit its time limit without finding a package")
        if solution.status is SolverStatus.UNBOUNDED:
            raise EvaluationError(
                "the package query is unbounded: add a repetition or cardinality constraint"
            )
        if not solution.has_solution:
            raise EvaluationError(f"solver failed with status {solution.status.value}")
        return translation.package_from_solution(solution)
