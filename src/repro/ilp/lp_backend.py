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

**A wide cold LP is solved over a core** (sifting).  A cold solve of a form
with more than ``4 * _CORE_COLUMNS`` columns — every column's cost finite,
its lower bound finite and no bound pair crossed — first solves the LP over
the :data:`_CORE_COLUMNS` columns of smallest cost, every other column held
at its lower bound (the core's right-hand sides shift by ``A_out l_out``,
zero for PaQL).  The core's row duals then price all ``n`` columns once;
up to :data:`_CORE_COLUMNS` of the most negative outside reduced costs join
the core, which is solved again from its last basis, until no outside
reduced cost is below the simplex's own ``_EPSILON``.  That certifies the
core's optimum for the full LP.  An infeasible core widens fourfold; an
unbounded one has a ray of the full LP.  A core that reaches every column
is the full solve, so a poor core costs time, never a wrong answer.

The :class:`LpResult` is the full LP's: ``x`` over all ``n`` columns, the
full priced :attr:`LpResult.reduced_costs`, and the core's basis read in the
full column space with its inverse (:func:`~repro.ilp.simplex.embed_basis`):
the basis matrix is the same, so a branch-and-bound child installs it as it
would the full solve's, and the full working matrix is built only then.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError
from repro.ilp.matrix_form import MatrixForm
from repro.ilp.model import IlpModel
from repro.ilp.simplex import (
    _EPSILON,
    SimplexBasis,
    SimplexResult,
    SimplexStatus,
    embed_basis,
    row_duals,
    solve_form_simplex,
)
from repro.ilp.status import Solution, SolveStats, SolverStatus

_STATUS_MAP = {
    SimplexStatus.OPTIMAL: SolverStatus.OPTIMAL,
    SimplexStatus.INFEASIBLE: SolverStatus.INFEASIBLE,
    SimplexStatus.UNBOUNDED: SolverStatus.UNBOUNDED,
    # NUMERICAL_ERROR is surfaced (not raised) so branch-and-bound can retry
    # the node cold rather than aborting — or worse, pruning — the subtree.
    SimplexStatus.NUMERICAL_ERROR: SolverStatus.NUMERICAL_ERROR,
}

#: Columns in the core of a wide cold LP, and what a sift round adds to it.
_CORE_COLUMNS = 300


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
        core_columns: Columns of the core whose optimum the pricing pass
            certified for the full LP (the full width when the core reached
            it); 0 when the LP was solved whole.
        sift_rounds: Pricing passes over all columns, one per optimal core.
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
    core_columns: int = 0
    sift_rounds: int = 0


def solve_lp_form(form: MatrixForm, warm_start: SimplexBasis | None = None) -> LpResult:
    """Solve the LP relaxation of a matrix-form model.

    ``warm_start`` optionally seeds the solve with the basis of a related
    earlier solve over the same constraint matrix.  A wide cold solve goes
    over a core of columns (see the module docstring).
    """
    lower, upper = form.bounds
    if (
        warm_start is None
        and form.num_variables > 4 * _CORE_COLUMNS
        and np.isfinite(form.c).all()
        and np.isfinite(lower).all()
        and (lower <= upper).all()
    ):
        return _solve_over_core(form)
    return _lp_result(form, solve_form_simplex(form, warm_start=warm_start))


def _lp_result(form: MatrixForm, result: SimplexResult) -> LpResult:
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


def _solve_over_core(form: MatrixForm) -> LpResult:
    """Sifting: the full LP's optimum from LPs over a core of its columns."""
    n = form.num_variables
    lower, upper = form.bounds
    mu = form.a_ub.shape[0]
    core = np.sort(np.argpartition(form.c, _CORE_COLUMNS - 1)[:_CORE_COLUMNS])
    iterations = refactorizations = rounds = 0
    two_phase = False
    warm: SimplexBasis | None = None
    while core.size < n:
        core_form = _restricted(form, core)
        result = solve_form_simplex(core_form, warm_start=warm)
        iterations += result.iterations
        refactorizations += result.refactorizations
        two_phase |= result.two_phase
        if result.status is SimplexStatus.INFEASIBLE:
            core, warm = _widened(form.c, core, min(n, 4 * core.size)), None
            continue
        if result.status is SimplexStatus.UNBOUNDED:
            # A ray of the core, outside columns held, is a ray of the full LP.
            return LpResult(
                SolverStatus.UNBOUNDED, np.empty(0), float("nan"), iterations=iterations,
                refactorizations=refactorizations, two_phase_start=two_phase,
                core_columns=core.size, sift_rounds=rounds,
            )
        y = None if result.basis is None else row_duals(core_form, result.basis)
        if y is None:
            break
        rounds += 1
        reduced_costs = form.c - (y[:mu] @ form.a_ub + y[mu:] @ form.a_eq)
        outside = np.ones(n, dtype=bool)
        outside[core] = False
        entering = (outside & (reduced_costs < -_EPSILON) & (lower < upper)).nonzero()[0]
        if entering.size == 0:
            x = lower.copy()
            x[core] = result.x
            return LpResult(
                SolverStatus.OPTIMAL, x, form.objective_from_min(float(form.c @ x)),
                basis=embed_basis(result.basis, core, n), iterations=iterations,
                refactorizations=refactorizations, reduced_costs=reduced_costs,
                slack_reduced_costs=result.slack_reduced_costs, two_phase_start=two_phase,
                core_columns=core.size, sift_rounds=rounds,
            )
        if entering.size > _CORE_COLUMNS:
            most = np.argpartition(reduced_costs[entering], _CORE_COLUMNS - 1)
            entering = entering[most[:_CORE_COLUMNS]]
        grown = np.union1d(core, entering)
        warm = embed_basis(result.basis, np.searchsorted(grown, core), grown.size)
        core = grown
    # The core holds every column (or its optimum could not be priced).
    full = _lp_result(form, solve_form_simplex(form))
    full.iterations += iterations
    full.refactorizations += refactorizations
    full.two_phase_start |= two_phase
    full.core_columns, full.sift_rounds = n, rounds
    return full


def _restricted(form: MatrixForm, core: np.ndarray) -> MatrixForm:
    """``form`` over the ``core`` columns, every other column held at its
    lower bound."""
    lower, upper = form.bounds
    held = lower.copy()
    held[core] = 0.0
    b_ub, b_eq = form.b_ub, form.b_eq
    if held.any():
        b_ub = b_ub - form.a_ub @ held
        b_eq = b_eq - form.a_eq @ held
    return MatrixForm(
        form.c[core], form.a_ub[:, core], b_ub, form.a_eq[:, core], b_eq,
        (lower[core], upper[core]), form.maximize,
    )


def _widened(costs: np.ndarray, core: np.ndarray, size: int) -> np.ndarray:
    """``core`` grown to ``size`` columns by the cheapest outside it."""
    outside = np.ones(costs.size, dtype=bool)
    outside[core] = False
    rest = outside.nonzero()[0]
    extra = size - core.size
    if extra < rest.size:
        rest = rest[np.argpartition(costs[rest], extra - 1)[:extra]]
    return np.union1d(core, rest)


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
        core_columns=result.core_columns,
        sift_rounds=result.sift_rounds,
    )
    if not result.status.has_solution:
        return Solution(result.status, stats=stats)
    return Solution(
        status=result.status,
        values=result.values,
        objective_value=result.objective_value,
        stats=stats,
    )
