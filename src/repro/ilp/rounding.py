"""LP-relaxation + greedy rounding heuristic solver.

The related-work section of the paper discusses LP-relaxation rounding as a
standard approach to approximating ILPs.  This solver implements that idea:

1. solve the LP relaxation,
2. round integer variables to the nearest integers,
3. run a small greedy repair loop that nudges variables up or down to remove
   remaining constraint violations,
4. report FEASIBLE (never OPTIMAL, since optimality is not proven) or
   INFEASIBLE if repair fails.

Because it implements the same ``solve(model) -> Solution`` protocol as the
branch-and-bound solver, it shows that DIRECT and SKETCHREFINE treat the ILP
solver as a genuine black box, a property the paper emphasises in Section
4.5: ``tests/ilp/test_rounding_and_iis.py`` runs DIRECT on it.  No benchmark
uses it.
"""

from __future__ import annotations

import numpy as np

from repro.ilp.lp_backend import solve_lp
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.status import Solution, SolveStats, SolverStatus

_MAX_REPAIR_PASSES = 200


class RelaxAndRoundSolver:
    """Approximate ILP solver based on LP relaxation and greedy repair."""

    def solve(self, model: IlpModel) -> Solution:
        """Return a feasible (not necessarily optimal) solution, or INFEASIBLE."""
        stats = SolveStats()
        relaxed = solve_lp(model)
        stats.lp_solves += 1
        if relaxed.status is SolverStatus.INFEASIBLE:
            return Solution.infeasible(stats)
        if not relaxed.has_solution:
            return Solution.failure(relaxed.status, stats)

        values = relaxed.values.copy()
        lower, upper, integer_mask = model.bound_and_integrality_arrays()
        values[integer_mask] = np.rint(values[integer_mask])
        values = np.clip(values, lower, upper)

        repaired = self._repair(model, values)
        if repaired is None:
            return Solution.infeasible(stats)
        objective = model.objective_value(repaired)
        stats.incumbent_updates = 1
        return Solution(SolverStatus.FEASIBLE, repaired, objective, stats)

    # -- internals ------------------------------------------------------------------

    def _repair(self, model: IlpModel, values: np.ndarray) -> np.ndarray | None:
        """Greedy repair: adjust one variable per pass to reduce the worst violation.

        The total violation must strictly decrease every pass.  Two coupled
        constraints can otherwise make the greedy step oscillate a variable
        ±1 forever (fixing one constraint re-violates the other), burning the
        whole pass budget on a livelock; a pass that fails to make progress
        means repair has stalled and the heuristic gives up immediately.
        """
        values = values.copy()
        previous_total = float("inf")
        for _ in range(_MAX_REPAIR_PASSES):
            violated = [c for c in model.constraints if not c.is_satisfied(values)]
            if not violated:
                return values
            total = sum(c.violation(values) for c in violated)
            if np.isfinite(previous_total) and total >= previous_total - 1e-12 * max(
                1.0, previous_total
            ):
                return None
            previous_total = total
            worst = max(violated, key=lambda c: c.violation(values))
            if not self._fix_constraint(model, worst, values):
                return None
        return None

    def _fix_constraint(self, model: IlpModel, constraint, values: np.ndarray) -> bool:
        """Nudge one variable by one unit in the direction that helps ``constraint``.

        Picks the adjustment with the smallest objective degradation among
        those that stay within variable bounds.  Returns False when no single
        step can reduce the violation.
        """
        lhs = constraint.evaluate(values)
        need_decrease = (
            constraint.sense is ConstraintSense.LE and lhs > constraint.rhs
        ) or (constraint.sense is ConstraintSense.EQ and lhs > constraint.rhs)

        objective = model.objective
        lower, upper, _ = model.bound_and_integrality_arrays()
        best_index: int | None = None
        best_penalty = float("inf")
        best_delta = 0.0
        for idx, coef in constraint.coefficients.items():
            # Moving x_idx by delta changes the lhs by coef * delta.
            delta = -1.0 if (coef > 0) == need_decrease else 1.0
            new_value = values[idx] + delta
            if new_value < lower[idx] - 1e-9 or new_value > upper[idx] + 1e-9:
                continue
            change = float(objective.vector[idx]) * delta
            penalty = change if objective.sense is ObjectiveSense.MINIMIZE else -change
            if penalty < best_penalty:
                best_penalty = penalty
                best_index = idx
                best_delta = delta
        if best_index is None:
            return False
        values[best_index] += best_delta
        return True
