"""The independent LP/ILP oracle of the solver tests: SciPy's HiGHS.

``repro.ilp`` solves every relaxation with its own revised simplex and every
ILP with its own branch and bound.  The tests hold both against
``scipy.optimize.linprog`` / ``milp``, which share no code with them, so a bug
in the in-house stack cannot hide behind a reference that repeats it.

Statuses are the plain strings ``"optimal"`` / ``"infeasible"`` /
``"unbounded"`` — the ``.value`` of both :class:`~repro.ilp.simplex
.SimplexStatus` and :class:`~repro.ilp.status.SolverStatus`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from repro.ilp.matrix_form import MatrixForm
from repro.ilp.model import IlpModel

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


class OracleResult(NamedTuple):
    status: str
    objective: float


def _status(result) -> str:
    if result.status not in _STATUS:
        raise AssertionError(f"oracle did not finish: {result.message}")
    return _STATUS[result.status]


def oracle_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=(0, None),
              presolve: bool = True) -> OracleResult:
    """``min c @ x`` over the given rows and bounds (``linprog`` conventions).

    ``presolve=False`` turns HiGHS presolve off: it is the second opinion for
    instances where HiGHS presolve and the simplex disagree on feasibility.
    """
    def rows(matrix, rhs):
        return (matrix, rhs) if matrix is not None and np.shape(matrix)[0] else (None, None)

    a_ub, b_ub = rows(a_ub, b_ub)
    a_eq, b_eq = rows(a_eq, b_eq)
    result = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
        method="highs", options={"presolve": presolve},
    )
    status = _status(result)
    return OracleResult(status, float(result.fun) if status == "optimal" else float("nan"))


def oracle_form_lp(form: MatrixForm) -> OracleResult:
    """LP relaxation of a matrix form; objective in the model's own sense."""
    lower, upper = form.bound_arrays()
    result = oracle_lp(
        form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq,
        bounds=np.column_stack([lower, upper]),
    )
    return OracleResult(result.status, form.objective_from_min(result.objective))


def oracle_ilp(model: IlpModel) -> OracleResult:
    """The integer optimum of ``model``; objective in the model's own sense."""
    form = model.to_matrix()
    lower, upper, integer_mask = model.bound_and_integrality_arrays()
    constraints = []
    if form.a_ub.shape[0]:
        constraints.append(LinearConstraint(form.a_ub, -np.inf, form.b_ub))
    if form.a_eq.shape[0]:
        constraints.append(LinearConstraint(form.a_eq, form.b_eq, form.b_eq))
    def solve(presolve: bool):
        return milp(
            form.c, constraints=constraints, bounds=Bounds(lower, upper),
            integrality=integer_mask.astype(int),
            options={"mip_rel_gap": 0.0, "presolve": presolve},
        )

    result = solve(presolve=True)
    if result.status == 4:
        # "Solve error": HiGHS' MIP presolve trips on some tiny infeasible
        # equality systems (two equality rows over four 0/1/2 columns did
        # it); without presolve it answers them.
        result = solve(presolve=False)
    status = _status(result)
    objective = form.objective_from_min(float(result.fun)) if status == "optimal" else float("nan")
    return OracleResult(status, objective)
