"""Irreducible infeasible set (IIS) approximation.

Section 4.4 of the paper proposes "dropping partitioning attributes" as a
mitigation for false infeasibility, guided by the solver's IIS facility: most
commercial solvers can report a minimal set of constraints whose removal makes
the problem feasible.  This module provides that facility for our own solver
with a classic deletion filter:

1. start from the full constraint set (known infeasible),
2. repeatedly try removing one constraint; if the remainder is still
   infeasible, the constraint is redundant for infeasibility and stays
   removed, otherwise it is essential and is kept,
3. what remains is an irreducible infeasible subset.

Feasibility checks are done on the LP relaxation, which is sound for the
package-query constraint structure (integer infeasibility caused purely by
integrality is out of scope, as it is for CPLEX's default IIS as well).
"""

from __future__ import annotations

from repro.ilp.lp_backend import solve_lp
from repro.ilp.model import IlpModel
from repro.ilp.status import SolverStatus


def find_iis(model: IlpModel) -> list[str]:
    """Return the names of an irreducible infeasible subset of constraints.

    Returns an empty list when the model's LP relaxation is actually feasible
    (i.e. there is nothing to explain).
    """
    if _relaxation_feasible(model):
        return []

    keep: list[int] = list(range(model.num_constraints))
    index = 0
    while index < len(keep):
        candidate = keep[:index] + keep[index + 1 :]
        if not _relaxation_feasible(model.subset(candidate)):
            # Still infeasible without this constraint: drop it permanently.
            keep.pop(index)
        else:
            index += 1
    return [model.constraints[i].name for i in keep]


def _relaxation_feasible(model: IlpModel) -> bool:
    return solve_lp(model).status is not SolverStatus.INFEASIBLE
