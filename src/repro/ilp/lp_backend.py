"""LP relaxation solves and the warm-start protocol.

Branch and bound needs to repeatedly solve LP relaxations that differ only in
variable bounds.  Every relaxation goes through the bounded-variable revised
simplex in :mod:`repro.ilp.simplex`, which consumes the
:class:`~repro.ilp.matrix_form.MatrixForm` IR directly: it assembles its
working matrix once per form and caches it on the form, so every bounds-only
:meth:`~repro.ilp.matrix_form.MatrixForm.with_bounds` view (read: every
branch-and-bound node) reuses the same copy.

The warm-start protocol: an optimal solve returns its final basis in
:attr:`LpResult.basis`.  Branch-and-bound passes a node's basis back to
:func:`solve_lp_form` for each of its children (same constraint matrix, one
tightened bound), and the simplex reoptimises with dual pivots from it; a
stale or invalid basis is detected and silently falls back to a cold solve
(:attr:`LpResult.warm_start_used` reports what actually happened).  That is
the only path a basis takes: every other LP, :func:`solve_lp` included,
starts cold from the slack basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError
from repro.ilp.matrix_form import MatrixForm
from repro.ilp.model import IlpModel
from repro.ilp.simplex import SimplexBasis, SimplexStatus, solve_form_simplex
from repro.ilp.status import Solution, SolveStats, SolverStatus

_STATUS_MAP = {
    SimplexStatus.OPTIMAL: SolverStatus.OPTIMAL,
    SimplexStatus.INFEASIBLE: SolverStatus.INFEASIBLE,
    SimplexStatus.UNBOUNDED: SolverStatus.UNBOUNDED,
    # NUMERICAL_ERROR is surfaced (not raised) so branch-and-bound can retry
    # the node cold rather than aborting — or worse, pruning — the subtree.
    SimplexStatus.NUMERICAL_ERROR: SolverStatus.NUMERICAL_ERROR,
}


@dataclass
class LpResult:
    """Result of one LP relaxation solve (always in the model's own sense).

    Attributes:
        status: Solve outcome.
        values: Optimal assignment (empty when no solution).
        objective_value: Objective in the model's sense (NaN when no solution).
        basis: Final simplex basis on optimal solves, reusable as the
            ``warm_start`` of a related problem.
        iterations: Simplex iterations spent.
        warm_start_used: Whether a supplied warm start was actually consumed
            rather than rejected (stale basis).
        refactorizations: Basis reinversions during the solve.
        reduced_costs: Structural reduced costs of an optimal solve, in the
            form's minimisation sense (see
            :attr:`~repro.ilp.simplex.SimplexResult.reduced_costs`); ``None``
            when no solution.
        slack_reduced_costs: The same sweep's slack columns, one per ``<=``
            row.
        two_phase_start: Whether the solve started cold two-phase (see
            :attr:`~repro.ilp.simplex.SimplexResult.two_phase`).
    """

    status: SolverStatus
    values: np.ndarray
    objective_value: float
    basis: SimplexBasis | None = None
    iterations: int = 0
    warm_start_used: bool = False
    refactorizations: int = 0
    reduced_costs: np.ndarray | None = None
    slack_reduced_costs: np.ndarray | None = None
    two_phase_start: bool = False


def solve_lp_form(form: MatrixForm, warm_start: SimplexBasis | None = None) -> LpResult:
    """Solve the LP relaxation of a matrix-form model.

    ``warm_start`` optionally seeds the solve with the basis of a related
    earlier solve over the same constraint matrix.
    """
    result = solve_form_simplex(form, warm_start=warm_start)
    status = _STATUS_MAP.get(result.status)
    if status is None:
        raise SolverError("simplex LP solve did not converge")
    # Non-optimal solves carry an empty ``x``, a NaN objective and no basis.
    return LpResult(
        status,
        result.x,
        form.objective_from_min(result.objective),
        basis=result.basis,
        iterations=result.iterations,
        warm_start_used=result.warm_started,
        refactorizations=result.refactorizations,
        reduced_costs=result.reduced_costs,
        slack_reduced_costs=result.slack_reduced_costs,
        two_phase_start=result.two_phase,
    )


def solve_lp(model: IlpModel) -> Solution:
    """Solve the LP relaxation of ``model`` and wrap the result as a Solution.

    Uses the model's memoized matrix form, so repeated relaxation solves of
    the same model share one export (and one simplex working matrix).
    """
    result = solve_lp_form(model.to_matrix())
    stats = SolveStats(
        lp_solves=1,
        simplex_iterations=result.iterations,
        two_phase_starts=int(result.two_phase_start),
        refactorizations=result.refactorizations,
    )
    if not result.status.has_solution:
        return Solution(result.status, stats=stats)
    return Solution(
        status=result.status,
        values=result.values,
        objective_value=result.objective_value,
        stats=stats,
    )
