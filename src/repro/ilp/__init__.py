"""Linear and integer linear programming substrate.

The paper uses IBM CPLEX as a black-box ILP solver.  This subpackage provides
an equivalent black box implemented from scratch:

* :class:`~repro.ilp.model.IlpModel` — a model of variables, linear
  constraints, bounds and a linear objective, stored as arrays,
* :mod:`~repro.ilp.lp_backend` — LP relaxation solving through the
  bounded-variable revised simplex of :mod:`~repro.ilp.simplex`: a cold LP
  starts from the slack basis, a branch-and-bound node LP reoptimises with
  dual pivots from its parent's basis,
* :class:`~repro.ilp.branch_and_bound.BranchAndBoundSolver` — an exact ILP
  solver with best-bound node selection, most-fractional branching, a
  rounding heuristic, basis reuse across the search tree, and capacity/time budgets
  (the capacity budget emulates CPLEX running out of memory on huge problems,
  which the paper reports as DIRECT failures).

The evaluators of :mod:`repro.core` call nothing of a solver but
``solve(IlpModel) -> Solution``, so any object with that method can stand in
for :class:`~repro.ilp.branch_and_bound.BranchAndBoundSolver`.
"""

from repro.ilp.matrix_form import MatrixForm
from repro.ilp.model import Constraint, ConstraintSense, IlpModel, Objective, ObjectiveSense, Variable
from repro.ilp.status import SolveStats, SolverStatus, Solution
from repro.ilp.lp_backend import solve_lp
from repro.ilp.simplex import SimplexBasis
from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits

__all__ = [
    "IlpModel",
    "MatrixForm",
    "Variable",
    "Constraint",
    "ConstraintSense",
    "Objective",
    "ObjectiveSense",
    "Solution",
    "SolverStatus",
    "SolveStats",
    "SimplexBasis",
    "solve_lp",
    "BranchAndBoundSolver",
    "SolverLimits",
]
