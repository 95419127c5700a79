"""Presolve/postsolve reductions on the :class:`MatrixForm` IR.

Classic LP-system practice treats presolve as the highest-leverage step
between model assembly and solve: most tuples of a large DIRECT instance can
never enter an optimal package, and detecting them *before* the simplex runs
shrinks the root LP by whole columns rather than shaving pivots.  This module
implements the reductions that matter for PaQL-shaped models:

* **Iterated bound propagation.**  For every constraint row, the minimal /
  maximal activity implied by the current variable bounds yields implied
  bounds on each participating variable (``a_ij x_j <= b_i - min-activity of
  the rest of the row``).  Propagation runs to a fixpoint (bounded by a pass
  budget), vectorised over the non-zero entries of the matrices.  When
  an integrality mask is supplied, propagated bounds are rounded inward —
  this is what fixes "tuple can never fit the SUM budget" columns to zero.
* **Fixed-variable elimination.**  Variables whose bounds coincide (after
  propagation) are substituted into the right-hand sides and their columns
  dropped from the reduced form.
* **Empty / redundant-row removal.**  Rows that can never bind under the
  propagated bounds (``max activity <= b`` for ``<=`` rows, forced activity
  for ``=`` rows) are dropped; rows whose columns were all fixed become empty
  and are either dropped or prove the model infeasible.
* **Singleton-row conversion.**  A row with a single unfixed column is
  absorbed by the propagation step (its implied bound *is* the variable
  bound), after which redundancy removal drops the row — no special case.

The reductions are *conservative*: without an integrality mask the reduced
LP has exactly the same feasible region and optimum as the original (bound
propagation only states implications), so a presolved solve must agree with a
cold solve — the property tests rely on this.

Every reduction is paired with a :class:`Postsolve` record that maps
reduced-space results back to the original space:

* :meth:`Postsolve.restore` re-inserts fixed variables into a reduced
  solution vector,
* :meth:`Postsolve.restore_basis` lifts a reduced-space
  :class:`~repro.ilp.simplex.SimplexBasis` back to the original column space
  (removed rows re-enter with their slack/artificial basic, fixed columns
  nonbasic at bound), so a root basis exported from a presolved solve can
  still seed a later related solve, and
* :meth:`Postsolve.reduce_basis` maps an original-space basis *into* the
  reduced space, so a caller holding a basis from an earlier un-presolved (or
  identically-presolved) solve keeps its warm start.

Branch-and-bound presolves the root once and calls
:meth:`Postsolve.reduce_bounds` per node: branched bounds are intersected
with the root reduction's tightened bounds and, when some row can bind
inside the node's box, re-propagated for one pass, while the reduced
constraint matrices (and the simplex working matrix cached on the reduced
form) stay shared across the whole tree.

**Only rows that can bind are propagated.**  Entry ``j`` of a ``<=`` row with
slack ``s = b - min-activity`` proposes ``l_j + s / a_ij`` (or ``u_j - s /
|a_ij|``), an improvement only if ``s < |a_ij| (u_j - l_j)``.  A row whose
slack is at least its *reach* ``max_j |a_ij| (u_j - l_j)`` tightens nothing,
so every pass, at the root and per node, first drops such rows
(:func:`_cannot_bind`); most node projections of a PaQL refine ILP drop them
all and return the intersected bounds at once.

**A root that cannot reduce is certified, not presolved.**  A DIRECT root is
a handful of dense rows over finite 0/1-style columns, and the first pass
fixes, removes and tightens nothing on it.  :func:`_certified_identity` asks
that of the root first, with BLAS products over the dense block in place of
the pass's per-entry sums: every bound finite, integer columns already
integral, no column fixed, and every decision of the first pass — infeasible,
redundant, forced, :func:`_cannot_bind` on each side — clear by
:data:`_CERTIFICATE_MARGIN` of the row's magnitude.  Then the pass's result is
known (the identity reduction after one pass) and is returned without it;
otherwise the pass runs as before.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.ilp.matrix_form import MatrixForm
from repro.ilp.simplex import AT_LOWER, AT_UPPER, BASIC, FREE, SimplexBasis

#: Bounds closer than this (absolutely) are collapsed into a fixed variable.
_FIX_TOLERANCE = 1e-9
#: A candidate bound must improve on the current one by more than this
#: (scaled by magnitude) to count as a tightening — this is also the
#: fixpoint detector.
_TIGHTEN_TOLERANCE = 1e-9
#: Feasibility slop for row-level infeasibility / redundancy tests, relative
#: to the row magnitude.
_ROW_TOLERANCE = 1e-9
#: Slop when rounding propagated bounds of integer variables inward.
_INTEGRALITY_TOLERANCE = 1e-6
#: Default cap on propagation passes; PaQL models converge in one or two.
_MAX_PASSES = 8
#: A row is dropped from a pass only if its slack clears its reach by this
#: much, relative to the magnitudes summed into the slack: the pass must
#: provably get nothing from it, so the margin swallows every rounding
#: difference (~1e-16 relative) between the gate's slack — at a node, root
#: activity plus the moved columns' deltas — and the pass's own ``bincount``.
_GATE_MARGIN = 1e-6
#: The root certificate trusts a decision only if it holds by this much,
#: relative to the row's magnitude: its BLAS products and the pass's
#: ``bincount`` sum the same terms in different orders and groupings, at most
#: ``~3 n eps`` (1.3e-11 at 20 000 columns) apart; past ~10⁶ columns the
#: margin grows as ``4 n eps``.
_CERTIFICATE_MARGIN = 1e-9


@dataclass
class PresolveStats:
    """Size of the reduction achieved by one :func:`presolve_form` call."""

    vars_fixed: int = 0
    rows_removed: int = 0
    bounds_tightened: int = 0
    passes: int = 0
    presolve_ms: float = 0.0


class _Rows:
    """The non-zero entries of one constraint matrix plus per-row activity bounds.

    ``tmin``/``tmax`` are the per-entry minimal/maximal contributions under
    the current variable bounds; by construction ``tmin`` entries are finite
    or ``-inf`` and ``tmax`` entries finite or ``+inf`` (a structural entry
    is non-zero and lower <= upper), which keeps the masked row sums below
    free of inf - inf artefacts.
    """

    __slots__ = (
        "row", "col", "data", "num_rows",
        "tmin", "tmax", "fin_min", "fin_max", "ninf_min", "ninf_max",
        "min_act", "max_act",
    )

    def __init__(self, matrix: np.ndarray):
        rows, cols = np.nonzero(matrix)
        self.row = rows.astype(np.int64)
        self.col = cols.astype(np.int64)
        self.data = np.asarray(matrix[rows, cols], dtype=np.float64)
        self.num_rows = int(matrix.shape[0])

    def compute_activities(self, lower: np.ndarray, upper: np.ndarray) -> None:
        positive = self.data > 0
        self.tmin = np.where(positive, self.data * lower[self.col], self.data * upper[self.col])
        self.tmax = np.where(positive, self.data * upper[self.col], self.data * lower[self.col])
        min_inf = ~np.isfinite(self.tmin)
        max_inf = ~np.isfinite(self.tmax)
        m = self.num_rows
        self.fin_min = np.bincount(self.row, weights=np.where(min_inf, 0.0, self.tmin), minlength=m)
        self.fin_max = np.bincount(self.row, weights=np.where(max_inf, 0.0, self.tmax), minlength=m)
        self.ninf_min = np.bincount(self.row, weights=min_inf.astype(np.float64), minlength=m)
        self.ninf_max = np.bincount(self.row, weights=max_inf.astype(np.float64), minlength=m)
        self.min_act = np.where(self.ninf_min > 0, -np.inf, self.fin_min)
        self.max_act = np.where(self.ninf_max > 0, np.inf, self.fin_max)

    def reach(self) -> tuple[np.ndarray, np.ndarray]:
        """Per row, at the last :meth:`compute_activities`: the widest entry
        range ``max_j |a_ij| (u_j - l_j)`` and the magnitude (>= 1) of what is
        summed into the activity.  An infinite reach comes back as NaN, which
        no slack compares against: one infinite contributor still yields a
        bound for the other entries, so such a row is never dropped."""
        reach = np.zeros(self.num_rows)
        np.maximum.at(reach, self.row, self.tmax - self.tmin)
        terms = np.maximum(np.abs(self.tmin), np.abs(self.tmax))
        magnitude = np.bincount(self.row, weights=terms, minlength=self.num_rows)
        magnitude = np.maximum(np.maximum(magnitude, reach), 1.0)
        return np.where(np.isfinite(reach), reach, np.nan), magnitude

    def residual_min(self) -> np.ndarray:
        """Per entry: the row's minimal activity *excluding* that entry."""
        others_inf = np.where(
            np.isfinite(self.tmin), self.ninf_min[self.row] > 0, self.ninf_min[self.row] > 1
        )
        finite_part = self.fin_min[self.row] - np.where(np.isfinite(self.tmin), self.tmin, 0.0)
        return np.where(others_inf, -np.inf, finite_part)

    def residual_max(self) -> np.ndarray:
        """Per entry: the row's maximal activity *excluding* that entry."""
        others_inf = np.where(
            np.isfinite(self.tmax), self.ninf_max[self.row] > 0, self.ninf_max[self.row] > 1
        )
        finite_part = self.fin_max[self.row] - np.where(np.isfinite(self.tmax), self.tmax, 0.0)
        return np.where(others_inf, np.inf, finite_part)


def _cannot_bind(
    slack: np.ndarray, reach: np.ndarray, magnitude: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Rows that can tighten no bound: ``slack >= reach``, strictly by
    :data:`_GATE_MARGIN`; false for a NaN reach or slack.  ``slack`` is ``rhs``
    minus the minimal activity (the ``>=`` side of an equality row: the maximal
    activity minus ``rhs``); ``reach`` / ``magnitude`` are :meth:`_Rows.reach`'s."""
    return slack >= reach + _GATE_MARGIN * np.maximum(magnitude, np.abs(rhs))


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
    # Compare only where a candidate arrived: elsewhere ``best`` is infinite,
    # and against an infinite bound that is ``inf - inf``.
    if cand_upper is not None and cand_upper.size:
        best = np.full(n, np.inf)
        np.minimum.at(best, cols, cand_upper)
        reached = np.nonzero(np.isfinite(best))[0]
        best = best[reached]
        improves = best < upper[reached] - _TIGHTEN_TOLERANCE * np.maximum(1.0, np.abs(best))
        tightened += int(np.count_nonzero(improves))
        upper[reached[improves]] = best[improves]
    if cand_lower is not None and cand_lower.size:
        best = np.full(n, -np.inf)
        np.maximum.at(best, cols, cand_lower)
        reached = np.nonzero(np.isfinite(best))[0]
        best = best[reached]
        improves = best > lower[reached] + _TIGHTEN_TOLERANCE * np.maximum(1.0, np.abs(best))
        tightened += int(np.count_nonzero(improves))
        lower[reached[improves]] = best[improves]
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


def _round_integer_bounds(
    lower: np.ndarray, upper: np.ndarray, integer_mask: np.ndarray | None
) -> None:
    if integer_mask is None:
        return
    finite_u = integer_mask & np.isfinite(upper)
    finite_l = integer_mask & np.isfinite(lower)
    upper[finite_u] = np.floor(upper[finite_u] + _INTEGRALITY_TOLERANCE)
    lower[finite_l] = np.ceil(lower[finite_l] - _INTEGRALITY_TOLERANCE)


def _row_tolerance(rhs: np.ndarray) -> np.ndarray:
    return _ROW_TOLERANCE * np.maximum(1.0, np.abs(rhs))


def _certified_rows(
    matrix: np.ndarray, rhs: np.ndarray, lower: np.ndarray, upper: np.ndarray, equality: bool
) -> bool:
    """Whether the first presolve pass provably keeps every row of ``matrix``
    and tightens nothing through it, under finite bounds: each of its
    decisions — infeasible, redundant (``<=``) or forced (``=``),
    :func:`_cannot_bind` on each side — holds by the certificate's margin.

    The activity bounds ``A⁺l + A⁻u`` / ``A⁺u + A⁻l`` are taken as ``A·mid
    ∓ |A|·radius``: the same bounds with one ``(m, n)`` temporary, ``|A|``,
    which the reach then overwrites (a fresh block of a 20 000-column form
    costs more in page faults than in arithmetic).
    """
    if not matrix.shape[0]:
        return True
    span = upper - lower
    width = np.abs(matrix)
    centre = matrix @ (0.5 * (lower + upper))
    radius = width @ (0.5 * span)
    min_act, max_act = centre - radius, centre + radius
    magnitude = width @ np.maximum(np.abs(lower), np.abs(upper))
    reach = np.multiply(width, span, out=width).max(axis=1)
    magnitude = np.maximum(np.maximum(magnitude, reach), np.maximum(np.abs(rhs), 1.0))
    margin = max(_CERTIFICATE_MARGIN, 4.0 * matrix.shape[1] * np.finfo(np.float64).eps) * magnitude
    tol = _row_tolerance(rhs)
    # Conservative inputs for _cannot_bind: less slack, more reach and magnitude.
    reach, magnitude = reach + margin, magnitude + margin
    holds = min_act <= rhs + tol - margin
    holds &= _cannot_bind(rhs - min_act - margin, reach, magnitude, rhs)
    if not equality:
        return bool(np.all(holds & (max_act > rhs + tol + margin)))
    holds &= max_act >= rhs - tol + margin
    holds &= (max_act > rhs + tol + margin) | (min_act < rhs - tol - margin)
    holds &= _cannot_bind(max_act - rhs - margin, reach, magnitude, rhs)
    return bool(np.all(holds))


def _certified_identity(
    form: MatrixForm, lower: np.ndarray, upper: np.ndarray, integer_mask: np.ndarray | None
) -> bool:
    """Whether :func:`presolve_form`'s first pass provably moves nothing, so
    that it returns the identity reduction: every bound finite, integer
    columns' bounds integral (rounding is the identity), no column fixed, and
    every row certified by :func:`_certified_rows`."""
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        return False
    if integer_mask is not None:
        int_l, int_u = lower[integer_mask], upper[integer_mask]
        if not ((np.rint(int_l) == int_l).all() and (np.rint(int_u) == int_u).all()):
            return False
    # Neither fixed nor crossed: the negation of the pass's own fixed test.
    if not (upper - lower > _FIX_TOLERANCE * np.maximum(1.0, np.abs(lower))).all():
        return False
    b_ub = np.asarray(form.b_ub, dtype=np.float64).reshape(-1)
    b_eq = np.asarray(form.b_eq, dtype=np.float64).reshape(-1)
    return _certified_rows(form.a_ub, b_ub, lower, upper, False) and _certified_rows(
        form.a_eq, b_eq, lower, upper, True
    )


class _BindGate:
    """Whether any reduced row can bind inside a node's box, without the pass.

    The rows are stacked in ``<=`` form — ``a_ub``, ``a_eq``, ``-a_eq``, then
    the objective, whose right-hand side is the call's cutoff (an ``identity``
    reduction re-propagates no row and keeps the objective only).  Activity,
    reach and magnitude are taken once at the root's tightened bounds: inside
    a node ranges only shrink, so the root reach stays an upper bound, and the
    minimal activity is the root's plus what the few moved columns add.
    """

    __slots__ = ("matrix", "rhs", "root_l", "root_u", "min_act", "reach", "magnitude")

    def __init__(self, postsolve: "Postsolve"):
        form = postsolve.reduced_form
        objective = np.asarray(form.c, dtype=np.float64).reshape(1, -1)
        blocks: list = [objective]
        rhs: list = [[np.nan]]
        if not postsolve.identity:
            blocks = [form.a_ub, form.a_eq, -form.a_eq, objective]
            rhs = [form.b_ub, form.b_eq, -np.asarray(form.b_eq), [np.nan]]
        self.matrix = np.vstack(blocks)
        self.rhs = np.concatenate(rhs)
        self.root_l, self.root_u = postsolve.tightened_lower, postsolve.tightened_upper
        rows = _Rows(self.matrix)
        rows.compute_activities(self.root_l, self.root_u)
        self.min_act = rows.min_act
        self.reach, self.magnitude = rows.reach()

    def binds(
        self, node_l: np.ndarray, node_u: np.ndarray, moved: np.ndarray, cutoff: float,
        wants_rows: bool,
    ) -> tuple[bool, bool]:
        """``(a constraint row can bind, the cutoff row can bind)`` under
        bounds that differ from the root's on the columns ``moved`` only;
        ``cutoff`` is ``inf`` when the call offers none.  Fractional bounds
        count as binding both: even a pass that tightens nothing rounds the
        integer columns, and the cutoff pass reads what the row pass rounded
        (the root's bounds are rounded already, branch-and-bound's are
        integral; other callers' need not be)."""
        # No node has more slack than the root: a cutoff that binds in the
        # root's box binds in every node's.  That is a sketch ILP minimising
        # over group caps up to tau, where the gate would be pure overhead.
        if not wants_rows and not _cannot_bind(
            cutoff - self.min_act[-1], self.reach[-1], self.magnitude[-1], cutoff
        ):
            return False, True
        moved_l, moved_u = node_l[moved], node_u[moved]
        if not ((np.rint(moved_l) == moved_l).all() and (np.rint(moved_u) == moved_u).all()):
            return True, True
        columns = self.matrix[:, moved]
        rhs = self.rhs.copy()
        rhs[-1] = cutoff
        # A column unbounded at the root gives inf - inf or 0 * inf here: NaN,
        # which never compares as "cannot bind".
        with np.errstate(invalid="ignore"):
            raised = moved_l - self.root_l[moved]    # >= 0
            lowered = moved_u - self.root_u[moved]   # <= 0
            # The larger product is the one the coefficient's sign selects:
            # what the column adds to the minimal activity.
            grown = np.maximum(columns * raised, columns * lowered).sum(axis=1)
            free = _cannot_bind(rhs - self.min_act - grown, self.reach, self.magnitude, rhs)
        return not free[:-1].all(), not free[-1]


@dataclass
class Postsolve:
    """Everything needed to map reduced-space results back to the original.

    The record is also the per-node interface branch-and-bound uses to derive
    reduced bounds for its :meth:`MatrixForm.with_bounds` views without
    redoing the structural reduction.
    """

    reduced_form: MatrixForm
    kept_cols: np.ndarray
    kept_ub_rows: np.ndarray
    kept_eq_rows: np.ndarray
    fixed_values: np.ndarray       # full original length; kept slots are 0
    num_orig_vars: int
    num_orig_ub: int
    num_orig_eq: int
    orig_lower: np.ndarray
    orig_upper: np.ndarray
    tightened_lower: np.ndarray    # reduced space (root propagation result)
    tightened_upper: np.ndarray
    objective_offset_min: float    # fixed columns' contribution, minimisation sense
    maximize: bool
    integer_mask: np.ndarray | None = None   # reduced space
    identity: bool = False
    _node_rows: "tuple[_Rows, _Rows] | None" = field(
        default=None, repr=False, compare=False
    )
    _cutoff_rows: "_Rows | None" = field(default=None, repr=False, compare=False)
    _bind_gate: "_BindGate | None" = field(default=None, repr=False, compare=False)
    #: :meth:`reduce_bounds` calls whose row or cutoff pass had to run.
    propagations: int = field(default=0, repr=False, compare=False)

    # -- solutions ----------------------------------------------------------------

    @property
    def num_reduced_vars(self) -> int:
        return int(self.kept_cols.size)

    @property
    def objective_offset(self) -> float:
        """The fixed columns' objective contribution in the model's own sense."""
        return -self.objective_offset_min if self.maximize else self.objective_offset_min

    def restore(self, x_reduced: np.ndarray) -> np.ndarray:
        """Expand a reduced-space solution to the original variable space."""
        if self.identity:
            return np.asarray(x_reduced, dtype=np.float64)
        x = self.fixed_values.copy()
        x[self.kept_cols] = x_reduced
        return x

    # -- bounds (per branch-and-bound node) ---------------------------------------

    def reduce_bounds(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        propagate: bool = True,
        objective_cutoff_min: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Project original-space node bounds into the reduced space.

        Node bounds only ever tighten relative to the root, so intersecting
        them with the root reduction's propagated bounds is sound.  When
        ``propagate`` is set and the node actually branched (its bounds differ
        from the root's), one more propagation pass re-tightens neighbouring
        variables through the reduced rows — the cheap version of "re-presolve
        the node".  Crossed bounds are returned as-is; the LP solver reports
        them as infeasible.

        ``objective_cutoff_min`` optionally supplies an incumbent-derived
        bound on the *reduced, minimisation-sense* objective: any solution
        worth keeping satisfies ``c_reduced @ x <= cutoff``, so that row is
        propagated like one more ``<=`` constraint — the classic dual
        reduction that fixes non-improving variables as the incumbent
        improves.  Callers must leave enough slack on the cutoff to keep
        equal-objective optima (branch-and-bound adds a relative epsilon).

        A pass runs only if the :class:`_BindGate` cannot prove it would change
        nothing (the cutoff pass also whenever the row pass ran and may have
        moved the bounds under it); the result is that of running both.
        """
        reduced_l = np.maximum(self.tightened_lower, lower[self.kept_cols])
        reduced_u = np.minimum(self.tightened_upper, upper[self.kept_cols])
        cutoff = np.inf if objective_cutoff_min is None else objective_cutoff_min
        wants_cutoff = bool(np.isfinite(cutoff))
        moved = np.nonzero(
            (reduced_l != self.tightened_lower) | (reduced_u != self.tightened_upper)
        )[0]
        # A node at the root's bounds re-propagates no row.
        wants_rows = propagate and not self.identity and moved.size > 0
        if not wants_rows and not wants_cutoff:
            return reduced_l, reduced_u

        if self._bind_gate is None:
            self._bind_gate = _BindGate(self)
        rows_bind, cutoff_binds = self._bind_gate.binds(
            reduced_l, reduced_u, moved, cutoff, wants_rows
        )
        run_rows = wants_rows and rows_bind
        run_cutoff = wants_cutoff and (run_rows or cutoff_binds)
        if run_rows:
            if self._node_rows is None:
                self._node_rows = (
                    _Rows(self.reduced_form.a_ub),
                    _Rows(self.reduced_form.a_eq),
                )
            ub_rows, eq_rows = self._node_rows
            all_ub = np.ones(ub_rows.num_rows, dtype=bool)
            all_eq = np.ones(eq_rows.num_rows, dtype=bool)
            ub_rows.compute_activities(reduced_l, reduced_u)
            _propagate_le(ub_rows, self.reduced_form.b_ub, all_ub, reduced_l, reduced_u)
            eq_rows.compute_activities(reduced_l, reduced_u)
            _propagate_le(eq_rows, self.reduced_form.b_eq, all_eq, reduced_l, reduced_u)
            _propagate_ge(eq_rows, self.reduced_form.b_eq, all_eq, reduced_l, reduced_u)
            _round_integer_bounds(reduced_l, reduced_u, self.integer_mask)
        if run_cutoff:
            if self._cutoff_rows is None:
                self._cutoff_rows = _Rows(
                    np.asarray(self.reduced_form.c, dtype=np.float64).reshape(1, -1)
                )
            cutoff_row = self._cutoff_rows
            cutoff_row.compute_activities(reduced_l, reduced_u)
            _propagate_le(
                cutoff_row,
                np.array([cutoff]),
                np.ones(1, dtype=bool),
                reduced_l,
                reduced_u,
            )
            _round_integer_bounds(reduced_l, reduced_u, self.integer_mask)
        self.propagations += run_rows or run_cutoff
        return reduced_l, reduced_u

    # -- bases --------------------------------------------------------------------

    def _column_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """(reduced column -> original column, original column -> reduced or -1).

        Columns live in the simplex working space: structurals, then one slack
        per ``<=`` row, then one artificial per row.
        """
        n_r = self.num_reduced_vars
        mu_r = int(self.kept_ub_rows.size)
        me_r = int(self.kept_eq_rows.size)
        n_o, mu_o, me_o = self.num_orig_vars, self.num_orig_ub, self.num_orig_eq
        ncols_r = n_r + mu_r + mu_r + me_r
        ncols_o = n_o + mu_o + mu_o + me_o

        to_orig = np.empty(ncols_r, dtype=np.int64)
        to_orig[:n_r] = self.kept_cols
        to_orig[n_r : n_r + mu_r] = n_o + self.kept_ub_rows
        to_orig[n_r + mu_r : n_r + mu_r + mu_r] = n_o + mu_o + self.kept_ub_rows
        to_orig[n_r + mu_r + mu_r :] = n_o + mu_o + mu_o + self.kept_eq_rows

        to_reduced = np.full(ncols_o, -1, dtype=np.int64)
        to_reduced[to_orig] = np.arange(ncols_r, dtype=np.int64)
        return to_orig, to_reduced

    def restore_basis(self, basis: SimplexBasis | None) -> SimplexBasis | None:
        """Lift a reduced-space simplex basis to the original column space.

        Fixed columns re-enter nonbasic at a finite bound; each removed
        ``<=`` row re-enters with its slack basic and each removed equality
        row with its (zero-valued) artificial basic, so the lifted basis
        matrix stays nonsingular.  Returns ``None`` when the basis does not
        belong to the reduced problem.
        """
        if basis is None:
            return None
        if self.identity:
            return basis
        n_r = self.num_reduced_vars
        mu_r = int(self.kept_ub_rows.size)
        me_r = int(self.kept_eq_rows.size)
        if not basis.matches(n_r, mu_r, me_r):
            return None
        n_o, mu_o, me_o = self.num_orig_vars, self.num_orig_ub, self.num_orig_eq
        m_o = mu_o + me_o
        to_orig, _ = self._column_maps()

        status = np.full(n_o + mu_o + m_o, AT_LOWER, dtype=np.int8)
        status[to_orig] = basis.status
        # Fixed structural columns: nonbasic at a finite original bound.
        fixed = np.ones(n_o, dtype=bool)
        fixed[self.kept_cols] = False
        fixed_idx = np.nonzero(fixed)[0]
        finite_lower = np.isfinite(self.orig_lower[fixed_idx])
        finite_upper = np.isfinite(self.orig_upper[fixed_idx])
        status[fixed_idx] = np.where(
            finite_lower, AT_LOWER, np.where(finite_upper, AT_UPPER, FREE)
        )

        basic = np.empty(m_o, dtype=np.int64)
        removed_ub = np.ones(mu_o, dtype=bool)
        removed_ub[self.kept_ub_rows] = False
        removed_ub_idx = np.nonzero(removed_ub)[0]
        removed_eq = np.ones(me_o, dtype=bool)
        removed_eq[self.kept_eq_rows] = False
        removed_eq_idx = np.nonzero(removed_eq)[0]

        # Reduced basis rows are ordered kept-ub rows first, then kept-eq rows.
        basic[self.kept_ub_rows] = to_orig[basis.basic[:mu_r]]
        basic[mu_o + self.kept_eq_rows] = to_orig[basis.basic[mu_r:]]
        # Removed rows: their own slack / artificial carries the row.
        basic[removed_ub_idx] = n_o + removed_ub_idx
        status[n_o + removed_ub_idx] = BASIC
        basic[mu_o + removed_eq_idx] = n_o + mu_o + mu_o + removed_eq_idx
        status[n_o + mu_o + mu_o + removed_eq_idx] = BASIC
        return SimplexBasis(basic, status, n_o, mu_o, me_o)

    def reduce_basis(self, basis: SimplexBasis | None) -> SimplexBasis | None:
        """Map an original-space simplex basis into the reduced space.

        Succeeds when the reduction does not disturb the basis: every fixed
        column is nonbasic and every removed row is carried by its own slack
        or artificial.  Returns ``None`` otherwise (callers fall back to a
        cold solve, exactly like any stale warm start).
        """
        if basis is None:
            return None
        if self.identity:
            return basis
        n_o, mu_o, me_o = self.num_orig_vars, self.num_orig_ub, self.num_orig_eq
        if not basis.matches(n_o, mu_o, me_o):
            return None
        m_o = mu_o + me_o
        if basis.basic.shape != (m_o,) or basis.status.shape != (n_o + mu_o + m_o,):
            return None
        to_orig, to_reduced = self._column_maps()

        removed_ub = np.ones(mu_o, dtype=bool)
        removed_ub[self.kept_ub_rows] = False
        removed_eq = np.ones(me_o, dtype=bool)
        removed_eq[self.kept_eq_rows] = False
        # A removed <= row must be carried by its own slack or artificial, a
        # removed equality row by its own artificial; anything else cannot be
        # projected out of the basis.
        for r in np.nonzero(removed_ub)[0]:
            if basis.basic[r] not in (n_o + r, n_o + mu_o + r):
                return None
        for r in np.nonzero(removed_eq)[0]:
            if basis.basic[mu_o + r] != n_o + mu_o + mu_o + r:
                return None

        kept_row_positions = np.concatenate([self.kept_ub_rows, mu_o + self.kept_eq_rows])
        basic_reduced = to_reduced[basis.basic[kept_row_positions]]
        if (basic_reduced < 0).any():
            return None  # a kept row is carried by a fixed column / removed slack
        status_reduced = basis.status[to_orig].copy()
        n_r = self.num_reduced_vars
        mu_r = int(self.kept_ub_rows.size)
        me_r = int(self.kept_eq_rows.size)
        if np.count_nonzero(status_reduced == BASIC) != mu_r + me_r:
            return None
        return SimplexBasis(basic_reduced, status_reduced, n_r, mu_r, me_r)


@dataclass
class PresolveResult:
    """Outcome of :func:`presolve_form`.

    ``feasible`` is False when presolve *proved* the model infeasible (crossed
    bounds or an unsatisfiable row); ``form``/``postsolve`` are then ``None``.
    """

    feasible: bool
    form: MatrixForm | None
    postsolve: Postsolve | None
    stats: PresolveStats


def _identity_result(form: MatrixForm, stats: PresolveStats) -> PresolveResult:
    lower, upper = form.bound_arrays()
    n = form.num_variables
    postsolve = Postsolve(
        reduced_form=form,
        kept_cols=np.arange(n, dtype=np.int64),
        kept_ub_rows=np.arange(form.a_ub.shape[0], dtype=np.int64),
        kept_eq_rows=np.arange(form.a_eq.shape[0], dtype=np.int64),
        fixed_values=np.zeros(n),
        num_orig_vars=n,
        num_orig_ub=int(form.a_ub.shape[0]),
        num_orig_eq=int(form.a_eq.shape[0]),
        orig_lower=lower,
        orig_upper=upper,
        tightened_lower=lower,
        tightened_upper=upper,
        objective_offset_min=0.0,
        maximize=form.maximize,
        identity=True,
    )
    return PresolveResult(True, form, postsolve, stats)


def _select_rows_cols(matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(matrix[np.ix_(rows, cols)])


def _fixed_contribution(matrix: np.ndarray, rows: np.ndarray, x_fixed: np.ndarray) -> np.ndarray:
    return matrix[rows] @ x_fixed


def presolve_form(
    form: MatrixForm,
    integer_mask: np.ndarray | None = None,
    max_passes: int = _MAX_PASSES,
) -> PresolveResult:
    """Reduce ``form`` by bound propagation and fixed-variable elimination.

    Args:
        form: The matrix form to reduce (not modified).
        integer_mask: Optional boolean mask over the variables; when given,
            propagated bounds of masked variables are rounded inward.  Leave
            ``None`` for pure-LP solves — rounding is only valid when the
            variable is integrality-constrained.
        max_passes: Budget for propagation sweeps (structural elimination
            always runs to completion).

    Returns:
        A :class:`PresolveResult`; when nothing reduces, ``result.form is
        form`` so any working-matrix cache on the form stays valid.
    """
    started = time.perf_counter()
    stats = PresolveStats()
    n = form.num_variables
    mu = int(form.a_ub.shape[0])
    me = int(form.a_eq.shape[0])
    if n == 0:
        stats.presolve_ms = (time.perf_counter() - started) * 1000.0
        return _identity_result(form, stats)

    lower, upper = form.bound_arrays()
    if integer_mask is not None:
        integer_mask = np.asarray(integer_mask, dtype=bool)
    if _certified_identity(form, lower, upper, integer_mask):
        # What the pass below returns after one pass that moved nothing (or
        # after none, with no pass budget).
        stats.passes = 1 if max_passes > 0 else 0
        stats.presolve_ms = (time.perf_counter() - started) * 1000.0
        return _identity_result(form, stats)
    orig_lower, orig_upper = lower.copy(), upper.copy()
    if integer_mask is not None:
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

    tightened = -1  # until a pass has run, the activities are not even taken
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
        reach, magnitude = ub_rows.reach()
        binds = ~_cannot_bind(b_ub - ub_rows.min_act, reach, magnitude, b_ub)
        tightened += _propagate_le(ub_rows, b_ub, active_ub & binds, lower, upper)

        eq_rows.compute_activities(lower, upper)
        if np.any(active_eq & (eq_rows.min_act > b_eq + eq_tol)):
            return infeasible()
        if np.any(active_eq & (eq_rows.max_act < b_eq - eq_tol)):
            return infeasible()
        # Forced equality rows: every point within bounds satisfies them.
        forced = active_eq & (eq_rows.max_act <= b_eq + eq_tol) & (eq_rows.min_act >= b_eq - eq_tol)
        if forced.any():
            active_eq[forced] = False
        reach, magnitude = eq_rows.reach()
        binds = ~_cannot_bind(b_eq - eq_rows.min_act, reach, magnitude, b_eq)
        tightened += _propagate_le(eq_rows, b_eq, active_eq & binds, lower, upper)
        binds = ~_cannot_bind(eq_rows.max_act - b_eq, reach, magnitude, b_eq)
        tightened += _propagate_ge(eq_rows, b_eq, active_eq & binds, lower, upper)

        _round_integer_bounds(lower, upper, integer_mask)
        fix_tol = _FIX_TOLERANCE * np.maximum(1.0, np.abs(lower))
        if np.any(lower > upper + fix_tol):
            return infeasible()
        stats.bounds_tightened += tightened
        if tightened == 0:
            break

    if tightened != 0:
        # The last pass moved bounds (or none ran): refresh the activities so
        # the redundancy masks reflect the final bounds.
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
        result.postsolve.orig_lower = orig_lower
        result.postsolve.orig_upper = orig_upper
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
        kept_ub_rows=kept_ub,
        kept_eq_rows=kept_eq,
        fixed_values=fixed_values,
        num_orig_vars=n,
        num_orig_ub=mu,
        num_orig_eq=me,
        orig_lower=orig_lower,
        orig_upper=orig_upper,
        tightened_lower=reduced_lower,
        tightened_upper=reduced_upper,
        objective_offset_min=float(form.c[fixed_idx] @ fixed_values[fixed_idx]),
        maximize=form.maximize,
        integer_mask=integer_mask[kept_cols] if integer_mask is not None else None,
    )
    stats.presolve_ms = (time.perf_counter() - started) * 1000.0
    return PresolveResult(True, reduced_form, postsolve, stats)
