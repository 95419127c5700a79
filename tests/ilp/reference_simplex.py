"""The simplex node path of commit 0523f11, kept as a reference.

``repro.ilp.simplex`` cut what a warm node LP costs outside its pivots: the
primal clean-up after a dual solve keeps the dual's move vector instead of
rebuilding it, a bound flip keeps the reduced costs it priced, the ratio tests
read the basis rows as Python floats, the warm basis is validated with one
mark array and re-anchored only when some mask can be non-empty, and the
nonbasic values are one nested ``np.where``.  The claim is that this changes
no pivot, no iteration count and no bit of any answer.  This module is what
that claim is held against: :class:`ReferenceSimplex` overrides every method
those changes touched with the parent's body, verbatim.  The methods it
inherits changed only in spelling (``np.any(x)`` to ``x.any()``,
``np.nonzero(x)`` to ``x.nonzero()``, ``np.argmax(x)`` to ``x.argmax()``).

:func:`reference_rounding` is the parent's rounding heuristic followed by the
adoption rule its caller applied, over the parent's ``check_feasible``.

``tests/ilp/test_node_path.py`` is the only user.
"""

from __future__ import annotations

import numpy as np

from repro.ilp.matrix_form import MatrixForm
from repro.ilp.model import IlpModel
from repro.ilp.simplex import (
    _FEASIBILITY_TOLERANCE,
    _MAX_ITERATIONS_FACTOR,
    _PIVOT_EPSILON,
    _RATIO_TIE_TOLERANCE,
    _REFACTOR_INTERVAL,
    AT_LOWER,
    AT_UPPER,
    BASIC,
    FREE,
    SimplexBasis,
    SimplexResult,
    SimplexStatus,
    _BoundedRevisedSimplex,
    _WorkMatrix,
)


class ReferenceSimplex(_BoundedRevisedSimplex):
    """The parent's solver: its node-path methods, verbatim."""

    def _cold_solve(self) -> SimplexResult:
        self._cold_start()
        if np.any(np.abs(self.xb) > _FEASIBILITY_TOLERANCE):
            phase1 = self._phase1()
            if phase1 is not SimplexStatus.OPTIMAL:
                return self._result(phase1)
        return self._result(self._primal(self.costs))

    def _phase1(self) -> SimplexStatus:
        """Minimise signed artificial infeasibility from the all-artificial basis."""
        art = slice(self.art0, self.ncols)
        sign = np.where(self.xb >= 0.0, 1.0, -1.0)
        # Each artificial may only move on its residual's side of zero, so the
        # signed cost below is |a_i| there and phase 1 minimises total
        # infeasibility (bounded below by 0 — never unbounded).
        self.lower[art] = np.where(sign > 0, 0.0, -np.inf)
        self.upper[art] = np.where(sign > 0, np.inf, 0.0)
        phase1_costs = np.zeros(self.ncols)
        phase1_costs[art] = sign

        status = self._primal(phase1_costs)
        residual = np.abs(self._full_solution()[art])

        self.lower[art] = 0.0
        self.upper[art] = 0.0
        nonbasic_art = (self.status[art] != BASIC).nonzero()[0] + self.art0
        self.status[nonbasic_art] = AT_LOWER

        if status in (SimplexStatus.ITERATION_LIMIT, SimplexStatus.NUMERICAL_ERROR):
            return status
        # Row by row against that row's own right-hand side: one row of large
        # magnitude must not loosen the test for the others.
        if np.any(residual > _FEASIBILITY_TOLERANCE * np.maximum(1.0, np.abs(self.b))):
            return SimplexStatus.INFEASIBLE
        self._compute_xb()
        return SimplexStatus.OPTIMAL

    def _try_install(self, warm: SimplexBasis) -> bool:
        """Validate and install a warm-start basis; False → caller goes cold.

        When the exported basis carries its inverse, a snapshot of it is
        installed directly — the reinversion is skipped — but the residual
        check below *always* runs: the inverse may have been exported against
        a same-shape form with different coefficients (SketchRefine retries a
        group against a rebuilt model) or have drifted over the updates it
        inherited, and either would silently corrupt every FTRAN after it.
        """
        if not isinstance(warm, SimplexBasis) or not warm.matches(self.n, self.mu, self.me):
            return False
        basic = np.asarray(warm.basic, dtype=np.int64)
        status = np.asarray(warm.status, dtype=np.int8).copy()
        if basic.shape != (self.m,) or status.shape != (self.ncols,):
            return False
        if self.m and (basic.min() < 0 or basic.max() >= self.ncols):
            return False
        if len(np.unique(basic)) != self.m:
            return False
        if np.count_nonzero(status == BASIC) != self.m or not np.all(status[basic] == BASIC):
            return False

        self.basis = basic.copy()
        self.status = status
        donor = warm._factor
        inherited = (
            donor is not None
            and donor.matches(self.m)
            and donor.updates < _REFACTOR_INTERVAL
        )
        if inherited:
            self.factor = donor.snapshot()
        elif not self._refactorize():
            return False
        if not self._factor_consistent():
            # Stale or drifted inherited inverse (or a genuinely singular
            # basis): reinvert exactly once before rejecting the basis.
            if not inherited:
                return False
            if not self._refactorize() or not self._factor_consistent():
                return False

        # Re-anchor nonbasic columns whose recorded bound is infinite under the
        # current bounds (the caller may have relaxed a bound since export).
        finite_lower = np.isfinite(self.lower)
        finite_upper = np.isfinite(self.upper)
        nonbasic = status != BASIC
        lost_lower = nonbasic & (status == AT_LOWER) & ~finite_lower
        lost_upper = nonbasic & (status == AT_UPPER) & ~finite_upper
        anchorable_free = nonbasic & (status == FREE) & (finite_lower | finite_upper)
        status[lost_lower] = np.where(finite_upper[lost_lower], AT_UPPER, FREE)
        status[lost_upper] = np.where(finite_lower[lost_upper], AT_LOWER, FREE)
        status[anchorable_free] = np.where(
            finite_lower[anchorable_free], AT_LOWER, AT_UPPER
        )

        # Restore dual feasibility with bound flips where a reduced cost has
        # the wrong sign; an unflippable column (infinite opposite bound) means
        # the basis cannot seed the dual simplex — reject it.
        self._set_moves()
        y = self.factor.btran(self.costs[self.basis])
        d = self.costs - y @ self.a
        flips = self._dual_flips(d)
        if flips is None:
            return False
        status[flips] = np.where(self.move[flips] > 0, AT_UPPER, AT_LOWER)
        self.move[flips] = -self.move[flips]
        # _dual starts from this move vector, and prices its first iteration
        # with the same factor, basis and costs as here.
        self._priced = d

        self._compute_xb()
        return True

    def _reoptimize(self) -> SimplexStatus:
        """Dual simplex to primal feasibility, then primal clean-up."""
        status = self._dual()
        if status is not SimplexStatus.OPTIMAL:
            return status
        return self._primal(self.costs)

    def _primal(self, costs: np.ndarray) -> SimplexStatus:
        self._set_moves()
        max_iterations = _MAX_ITERATIONS_FACTOR * (self.m + self.ncols + 1)
        for _ in range(max_iterations):
            self.iterations += 1
            y = self.factor.btran(costs[self.basis])

            entering, direction = self._price(costs, y)
            if entering is None:
                return SimplexStatus.OPTIMAL

            w = self._ftran(entering)
            step, limit_row, leave_to = self._primal_ratio_test(entering, direction, w)
            if step is None:
                return SimplexStatus.UNBOUNDED

            if limit_row is None:
                # Bound flip: the entering column hits its opposite bound first.
                self.xb -= w * (direction * step)
                self._set_status(
                    entering, AT_UPPER if self.status[entering] == AT_LOWER else AT_LOWER
                )
                self._note_step(step)
                continue

            entering_status = self.status[entering]
            if entering_status == AT_LOWER:
                start = self.lower[entering]
            elif entering_status == AT_UPPER:
                start = self.upper[entering]
            else:
                start = 0.0
            leaving = self.basis[limit_row]
            self.xb -= w * (direction * step)
            refactored = self._apply_pivot(limit_row, entering, w)
            self._set_status(leaving, leave_to)
            if self._numerical_failure:
                return SimplexStatus.NUMERICAL_ERROR
            if refactored:
                self._compute_xb()
            else:
                self.xb[limit_row] = start + direction * step
            self._note_step(step)
        return SimplexStatus.ITERATION_LIMIT

    def _price(self, costs: np.ndarray, y: np.ndarray) -> tuple[int | None, int]:
        """Choose the entering column; ``(None, 0)`` means price-optimal.

        Bland mode always prices the full column range (its termination
        guarantee needs the global lowest eligible index).  Partial mode
        prices the candidate list and falls back to a full sweep — which also
        rebuilds the list — only when the list has no eligible column left;
        optimality is only ever declared off a full sweep.
        """
        if self._bland:
            d = costs - y @ self.a
            eligible = self._eligible_columns(d)
            if eligible.size == 0:
                return None, 0
            j = int(eligible[0])
            return j, (1 if d[j] < 0 else -1)
        if self._partial:
            cand = self._cand
            if cand is not None and cand.size:
                d_cand = costs[cand] - y @ self.a[:, cand]
                mask = self._eligible_mask(cand, d_cand)
                if mask.any():
                    return self._select(cand[mask], d_cand[mask])
            d = costs - y @ self.a
            return self._rebuild_candidates(d)
        d = costs - y @ self.a
        eligible = self._eligible_columns(d)
        if eligible.size == 0:
            return None, 0
        return self._select(eligible, d[eligible])

    def _primal_ratio_test(
        self, entering: int, direction: int, w: np.ndarray
    ) -> tuple[float | None, int | None, int | None]:
        """Largest step for the entering column; (None,..) means unbounded.

        Returns ``(step, limiting_row, leaving_status)``; a ``None`` row with a
        finite step is a bound flip.
        """
        span = self.upper[entering] - self.lower[entering]
        best_t = span if np.isfinite(span) else np.inf
        limit_row: int | None = None
        leave_to: int | None = None
        for i in range(self.m):
            rate = -direction * w[i]  # d(x_B[i]) / d(step)
            basic_col = self.basis[i]
            if rate < -_PIVOT_EPSILON and np.isfinite(self.lower[basic_col]):
                t = (self.xb[i] - self.lower[basic_col]) / (-rate)
                to = AT_LOWER
            elif rate > _PIVOT_EPSILON and np.isfinite(self.upper[basic_col]):
                t = (self.upper[basic_col] - self.xb[i]) / rate
                to = AT_UPPER
            else:
                continue
            t = max(t, 0.0)
            if t < best_t - _RATIO_TIE_TOLERANCE:
                best_t, limit_row, leave_to = t, i, to
            elif limit_row is not None and t <= best_t + _RATIO_TIE_TOLERANCE:
                if self._bland:
                    if basic_col < self.basis[limit_row]:
                        limit_row, leave_to = i, to
                elif abs(w[i]) > abs(w[limit_row]):
                    limit_row, leave_to = i, to
        if not np.isfinite(best_t) and limit_row is None:
            return None, None, None
        return float(best_t), limit_row, leave_to

    def _dual(self) -> SimplexStatus:
        """Dual simplex over ``self.costs`` from the basis, move vector and
        reduced costs :meth:`_try_install` just set up."""
        costs = self.costs
        priced, self._priced = self._priced, None
        max_iterations = _MAX_ITERATIONS_FACTOR * (self.m + self.ncols + 1)
        for _ in range(max_iterations):
            if self.m == 0:
                return SimplexStatus.OPTIMAL
            below = self.lower[self.basis] - self.xb
            above = self.xb - self.upper[self.basis]
            violation = np.maximum(below, above)
            worst = float(violation.max()) if violation.size else 0.0
            if worst <= _FEASIBILITY_TOLERANCE:
                return SimplexStatus.OPTIMAL
            self.iterations += 1

            if self._bland:
                rows = np.nonzero(violation > _FEASIBILITY_TOLERANCE)[0]
                r = int(rows[np.argmin(self.basis[rows])])
            else:
                r = int(np.argmax(violation))
            leaving_below = below[r] > above[r]

            alpha = self.factor.btran_row(r) @ self.a
            if priced is None:
                y = self.factor.btran(costs[self.basis])
                d = costs - y @ self.a
            else:
                d, priced = priced, None

            eligible = self._ratio_candidates(alpha, leaving_below)
            if eligible.size == 0:
                return SimplexStatus.INFEASIBLE
            ratios = np.abs(d[eligible]) / np.abs(alpha[eligible])
            near = eligible[ratios <= ratios.min() + _RATIO_TIE_TOLERANCE]
            if self._bland:
                q = int(near[0])
            else:
                q = int(near[np.argmax(np.abs(alpha[near]))])

            w = self._ftran(q)
            if abs(w[r]) < _PIVOT_EPSILON:
                # The updated inverse disagrees with the priced row; rebuild it
                # once and let the caller fall back if that does not help.
                if not self._refactorize():
                    return SimplexStatus.NUMERICAL_ERROR
                self._compute_xb()
                w = self._ftran(q)
                if abs(w[r]) < _PIVOT_EPSILON:
                    return SimplexStatus.NUMERICAL_ERROR

            # Incremental primal update: move the entering column by exactly
            # the amount that lands x_B[r] on its violated bound, then make it
            # basic there (full recompute only after a reinversion).
            target = self.lower[self.basis[r]] if leaving_below else self.upper[self.basis[r]]
            entering_step = (self.xb[r] - target) / w[r]
            entering_status = self.status[q]
            if entering_status == AT_LOWER:
                entering_start = self.lower[q]
            elif entering_status == AT_UPPER:
                entering_start = self.upper[q]
            else:
                entering_start = 0.0
            leaving = self.basis[r]
            self.xb -= w * entering_step
            refactored = self._apply_pivot(r, q, w)
            self._set_status(leaving, AT_LOWER if leaving_below else AT_UPPER)
            if self._numerical_failure:
                return SimplexStatus.NUMERICAL_ERROR
            if refactored:
                self._compute_xb()
            else:
                self.xb[r] = entering_start + entering_step
            self._note_step(float(ratios.min()))
        return SimplexStatus.ITERATION_LIMIT

    def _nonbasic_values(self) -> np.ndarray:
        x = np.zeros(self.ncols)
        at_lower = self.status == AT_LOWER
        at_upper = self.status == AT_UPPER
        x[at_lower] = self.lower[at_lower]
        x[at_upper] = self.upper[at_upper]
        return x


def reference_solve_form(form: MatrixForm, warm_start: SimplexBasis | None = None) -> SimplexResult:
    """:func:`repro.ilp.simplex.solve_form_simplex`, through the parent's solver."""
    return ReferenceSimplex(_WorkMatrix(form), *form.bounds).solve(warm_start)


def reference_check_feasible(model: IlpModel, values: np.ndarray, tolerance: float = 1e-6) -> bool:
    """The parent's ``IlpModel.check_feasible`` (``self`` reads ``model``)."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (model.num_variables,):
        return False
    lower, upper, is_integer = model.bound_and_integrality_arrays()
    if np.any(values < lower - tolerance) or np.any(values > upper + tolerance):
        return False
    if np.any(is_integer & (np.abs(values - np.rint(values)) > tolerance)):
        return False
    return all(c.is_satisfied(values, tolerance) for c in model.constraints)


def reference_rounding(
    model: IlpModel,
    relaxation: np.ndarray,
    integer_mask: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    incumbent_value: float | None,
) -> tuple[np.ndarray, float] | None:
    """The parent's ``_rounding_heuristic`` and its caller's adoption rule:
    the adopted ``(incumbent, value)``, or ``None`` when nothing is adopted."""
    heuristic = _parent_rounding_heuristic(model, relaxation, integer_mask, lower, upper)
    if heuristic is None:
        return None
    value = model.objective_value(heuristic)
    if incumbent_value is None or model.objective.sense.better(value, incumbent_value):
        return heuristic, value
    return None


def _parent_rounding_heuristic(
    model: IlpModel,
    relaxation: np.ndarray,
    integer_mask: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray | None:
    """Try rounding the fractional relaxation to a feasible integral point."""
    candidate = relaxation.copy()
    candidate[integer_mask] = np.rint(relaxation[integer_mask])
    candidate = np.clip(candidate, lower, np.where(np.isinf(upper), candidate, upper))
    if reference_check_feasible(model, candidate):
        return candidate
    # Second attempt: floor everything (often feasible for <= constraints).
    candidate = relaxation.copy()
    candidate[integer_mask] = np.floor(relaxation[integer_mask])
    candidate = np.clip(candidate, lower, np.where(np.isinf(upper), candidate, upper))
    if reference_check_feasible(model, candidate):
        return candidate
    return None
