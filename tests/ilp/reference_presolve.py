"""The ungated bound propagation of commit 03cd8ba, kept as a reference.

``repro.ilp.presolve`` puts a row-slack gate in front of every propagation
pass: a row whose slack is at least its reach is proven unable to tighten a
bound and is left out, and a node projection on which no row can bind returns
the intersected bounds at once.  The claim is that this changes no output bit.
This module is what that claim is held against — the parent commit's
``_apply_candidates`` / ``_propagate_le`` / ``_propagate_ge``, the body of
``Postsolve.reduce_bounds`` and ``presolve_form``, verbatim except that

* ``reduce_bounds`` is a function over a :class:`Postsolve` (``self`` reads
  ``postsolve``) and builds its row views per call instead of memoising them
  on the record, and
* ``_apply_candidates`` runs under ``np.errstate(invalid="ignore")``: the
  parent's full-width comparison evaluates ``inf - inf`` for an unbounded
  column that received no candidate (a RuntimeWarning, same result), and
* what the library has deleted since is gone here too: the
  ``Postsolve`` fields only the basis maps read, and ``reduce_bounds``'s
  ``propagate`` flag (the pass always runs when a node branched).

Everything the gate did not touch (``_Rows``, rounding, tolerances, the
structural reduction's helpers) is imported from the module under test.
``tests/ilp/test_bind_gate.py`` is the only user.
"""

from __future__ import annotations

import time

import numpy as np

from repro.ilp.matrix_form import MatrixForm
from repro.ilp.presolve import (
    _FIX_TOLERANCE,
    _MAX_PASSES,
    _TIGHTEN_TOLERANCE,
    Postsolve,
    PresolveResult,
    PresolveStats,
    _fixed_contribution,
    _identity_result,
    _round_integer_bounds,
    _row_tolerance,
    _Rows,
    _select_rows_cols,
)


def _apply_candidates(
    lower: np.ndarray,
    upper: np.ndarray,
    cols: np.ndarray,
    cand_lower: np.ndarray | None,
    cand_upper: np.ndarray | None,
) -> int:
    """Tighten ``lower``/``upper`` in place from per-entry candidate bounds.

    Returns the number of bounds actually tightened (a candidate must improve
    by more than the tolerance to count, which is what terminates the
    propagation loop).
    """
    tightened = 0
    n = len(lower)
    with np.errstate(invalid="ignore"):
        if cand_upper is not None and cand_upper.size:
            best = np.full(n, np.inf)
            np.minimum.at(best, cols, cand_upper)
            improves = best < upper - _TIGHTEN_TOLERANCE * np.maximum(1.0, np.abs(best))
            tightened += int(np.count_nonzero(improves))
            upper[improves] = best[improves]
        if cand_lower is not None and cand_lower.size:
            best = np.full(n, -np.inf)
            np.maximum.at(best, cols, cand_lower)
            improves = best > lower + _TIGHTEN_TOLERANCE * np.maximum(1.0, np.abs(best))
            tightened += int(np.count_nonzero(improves))
            lower[improves] = best[improves]
    return tightened


def _propagate_le(
    rows: _Rows, rhs: np.ndarray, active: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> int:
    """One propagation pass of ``row <= rhs`` over the active rows."""
    if not rows.data.size:
        return 0
    keep = active[rows.row]
    if not keep.any():
        return 0
    slack = rhs[rows.row] - rows.residual_min()
    with np.errstate(invalid="ignore"):
        candidate = slack / rows.data
    positive = rows.data > 0
    use_u = keep & positive & np.isfinite(candidate)
    use_l = keep & ~positive & np.isfinite(candidate)
    tightened = 0
    if use_u.any():
        tightened += _apply_candidates(lower, upper, rows.col[use_u], None, candidate[use_u])
    if use_l.any():
        tightened += _apply_candidates(lower, upper, rows.col[use_l], candidate[use_l], None)
    return tightened


def _propagate_ge(
    rows: _Rows, rhs: np.ndarray, active: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> int:
    """One propagation pass of ``row >= rhs`` over the active rows (eq rows)."""
    if not rows.data.size:
        return 0
    keep = active[rows.row]
    if not keep.any():
        return 0
    surplus = rhs[rows.row] - rows.residual_max()
    with np.errstate(invalid="ignore"):
        candidate = surplus / rows.data
    positive = rows.data > 0
    # a_ij x_j >= surplus: a lower bound for positive coefficients, but the
    # division flips the inequality for negative ones — an *upper* bound.
    use_l = keep & positive & np.isfinite(candidate)
    use_u = keep & ~positive & np.isfinite(candidate)
    tightened = 0
    if use_l.any():
        tightened += _apply_candidates(lower, upper, rows.col[use_l], candidate[use_l], None)
    if use_u.any():
        tightened += _apply_candidates(lower, upper, rows.col[use_u], None, candidate[use_u])
    return tightened


def reference_reduce_bounds(
    postsolve: Postsolve,
    lower: np.ndarray,
    upper: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``Postsolve.reduce_bounds`` at 03cd8ba: every pass runs, whatever the slack."""
    reduced_l = np.maximum(postsolve.tightened_lower, lower[postsolve.kept_cols])
    reduced_u = np.minimum(postsolve.tightened_upper, upper[postsolve.kept_cols])
    if not postsolve.identity:
        changed = (reduced_l != postsolve.tightened_lower) | (reduced_u != postsolve.tightened_upper)
        if changed.any():
            ub_rows = _Rows(postsolve.reduced_form.a_ub)
            eq_rows = _Rows(postsolve.reduced_form.a_eq)
            all_ub = np.ones(ub_rows.num_rows, dtype=bool)
            all_eq = np.ones(eq_rows.num_rows, dtype=bool)
            ub_rows.compute_activities(reduced_l, reduced_u)
            _propagate_le(ub_rows, postsolve.reduced_form.b_ub, all_ub, reduced_l, reduced_u)
            eq_rows.compute_activities(reduced_l, reduced_u)
            _propagate_le(eq_rows, postsolve.reduced_form.b_eq, all_eq, reduced_l, reduced_u)
            _propagate_ge(eq_rows, postsolve.reduced_form.b_eq, all_eq, reduced_l, reduced_u)
            _round_integer_bounds(reduced_l, reduced_u, postsolve.integer_mask)
    return reduced_l, reduced_u


def reference_presolve_form(
    form: MatrixForm,
    integer_mask: np.ndarray | None = None,
    max_passes: int = _MAX_PASSES,
) -> PresolveResult:
    """``presolve_form`` at 03cd8ba: every active row is propagated in every pass."""
    started = time.perf_counter()
    stats = PresolveStats()
    n = form.num_variables
    mu = int(form.a_ub.shape[0])
    me = int(form.a_eq.shape[0])
    if n == 0:
        stats.presolve_ms = (time.perf_counter() - started) * 1000.0
        return _identity_result(form, stats)

    lower, upper = form.bound_arrays()
    orig_lower, orig_upper = lower.copy(), upper.copy()
    if integer_mask is not None:
        integer_mask = np.asarray(integer_mask, dtype=bool)
        _round_integer_bounds(lower, upper, integer_mask)

    ub_rows = _Rows(form.a_ub)
    eq_rows = _Rows(form.a_eq)
    b_ub = np.asarray(form.b_ub, dtype=np.float64).reshape(-1)
    b_eq = np.asarray(form.b_eq, dtype=np.float64).reshape(-1)
    active_ub = np.ones(mu, dtype=bool)
    active_eq = np.ones(me, dtype=bool)
    ub_tol = _row_tolerance(b_ub)
    eq_tol = _row_tolerance(b_eq)

    def infeasible() -> PresolveResult:
        stats.presolve_ms = (time.perf_counter() - started) * 1000.0
        return PresolveResult(False, None, None, stats)

    fix_tol = _FIX_TOLERANCE * np.maximum(1.0, np.abs(lower))
    if np.any(lower > upper + fix_tol):
        return infeasible()

    for _ in range(max_passes):
        stats.passes += 1
        tightened = 0

        ub_rows.compute_activities(lower, upper)
        if np.any(active_ub & (ub_rows.min_act > b_ub + ub_tol)):
            return infeasible()
        # Redundant <= rows: can never bind under the current bounds.
        redundant = active_ub & (ub_rows.max_act <= b_ub + ub_tol)
        if redundant.any():
            active_ub[redundant] = False
        tightened += _propagate_le(ub_rows, b_ub, active_ub, lower, upper)

        eq_rows.compute_activities(lower, upper)
        if np.any(active_eq & (eq_rows.min_act > b_eq + eq_tol)):
            return infeasible()
        if np.any(active_eq & (eq_rows.max_act < b_eq - eq_tol)):
            return infeasible()
        # Forced equality rows: every point within bounds satisfies them.
        forced = active_eq & (eq_rows.max_act <= b_eq + eq_tol) & (eq_rows.min_act >= b_eq - eq_tol)
        if forced.any():
            active_eq[forced] = False
        tightened += _propagate_le(eq_rows, b_eq, active_eq, lower, upper)
        tightened += _propagate_ge(eq_rows, b_eq, active_eq, lower, upper)

        _round_integer_bounds(lower, upper, integer_mask)
        fix_tol = _FIX_TOLERANCE * np.maximum(1.0, np.abs(lower))
        if np.any(lower > upper + fix_tol):
            return infeasible()
        stats.bounds_tightened += tightened
        if tightened == 0:
            break

    # One final activity refresh so the redundancy masks reflect the last pass.
    ub_rows.compute_activities(lower, upper)
    if np.any(active_ub & (ub_rows.min_act > b_ub + ub_tol)):
        return infeasible()
    active_ub &= ~(ub_rows.max_act <= b_ub + ub_tol)
    eq_rows.compute_activities(lower, upper)
    if np.any(active_eq & (eq_rows.min_act > b_eq + eq_tol)):
        return infeasible()
    if np.any(active_eq & (eq_rows.max_act < b_eq - eq_tol)):
        return infeasible()
    active_eq &= ~((eq_rows.max_act <= b_eq + eq_tol) & (eq_rows.min_act >= b_eq - eq_tol))

    finite = np.isfinite(lower) & np.isfinite(upper)
    span = np.full(n, np.inf)
    span[finite] = upper[finite] - lower[finite]
    fixed = span <= _FIX_TOLERANCE * np.maximum(1.0, np.abs(np.where(finite, lower, 0.0)))
    stats.vars_fixed = int(np.count_nonzero(fixed))
    stats.rows_removed = int(np.count_nonzero(~active_ub) + np.count_nonzero(~active_eq))

    bounds_changed = bool(np.any(lower != orig_lower) or np.any(upper != orig_upper))
    if stats.vars_fixed == 0 and stats.rows_removed == 0:
        stats.presolve_ms = (time.perf_counter() - started) * 1000.0
        if not bounds_changed:
            return _identity_result(form, stats)
        # Bounds-only tightening: share the matrices (and the cached simplex
        # working matrix) through a with_bounds view.
        reduced = form.with_bounds(lower, upper)
        result = _identity_result(reduced, stats)
        if integer_mask is not None:
            result.postsolve.integer_mask = integer_mask
        return result

    kept = ~fixed
    kept_cols = np.nonzero(kept)[0].astype(np.int64)
    kept_ub = np.nonzero(active_ub)[0].astype(np.int64)
    kept_eq = np.nonzero(active_eq)[0].astype(np.int64)

    fixed_values = np.zeros(n)
    fixed_idx = np.nonzero(fixed)[0]
    midpoints = 0.5 * (lower[fixed_idx] + upper[fixed_idx])
    if integer_mask is not None:
        midpoints = np.where(integer_mask[fixed_idx], np.rint(midpoints), midpoints)
    fixed_values[fixed_idx] = midpoints

    b_ub_reduced = b_ub[kept_ub] - _fixed_contribution(form.a_ub, kept_ub, fixed_values)
    b_eq_reduced = b_eq[kept_eq] - _fixed_contribution(form.a_eq, kept_eq, fixed_values)
    a_ub_reduced = _select_rows_cols(form.a_ub, kept_ub, kept_cols)
    a_eq_reduced = _select_rows_cols(form.a_eq, kept_eq, kept_cols)

    reduced_lower = lower[kept_cols]
    reduced_upper = upper[kept_cols]
    reduced_form = MatrixForm(
        c=np.ascontiguousarray(form.c[kept_cols]),
        a_ub=a_ub_reduced,
        b_ub=b_ub_reduced,
        a_eq=a_eq_reduced,
        b_eq=b_eq_reduced,
        bounds=(reduced_lower.copy(), reduced_upper.copy()),
        maximize=form.maximize,
    )
    postsolve = Postsolve(
        reduced_form=reduced_form,
        kept_cols=kept_cols,
        fixed_values=fixed_values,
        tightened_lower=reduced_lower,
        tightened_upper=reduced_upper,
        objective_offset_min=float(form.c[fixed_idx] @ fixed_values[fixed_idx]),
        maximize=form.maximize,
        integer_mask=integer_mask[kept_cols] if integer_mask is not None else None,
    )
    stats.presolve_ms = (time.perf_counter() - started) * 1000.0
    return PresolveResult(True, reduced_form, postsolve, stats)
