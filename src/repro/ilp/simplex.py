"""A bounded-variable revised simplex solver with warm-start support.

This is the library's one LP relaxation solver.  It is built for the workload
SKETCHREFINE and branch-and-bound actually generate: *many small LPs that
differ from each other by a single variable bound*.

Four design points make repeated solves cheap:

* **Native bound handling.**  Per-variable lower/upper bounds are represented
  as nonbasic-at-bound statuses (``AT_LOWER`` / ``AT_UPPER``), not as extra
  constraint rows.  A 0/1-multiplicity package query with ``m`` global
  constraints works with an ``m × m`` basis instead of an ``(m + n) × (m + n)``
  tableau.
* **One working matrix per problem, not per solve.**  The standard-form
  matrix ``[A | I_slack | I_art]`` is assembled once into a
  :class:`_WorkMatrix` — one dense array, like the form's own matrices —
  and cached on the :class:`~repro.ilp.matrix_form.MatrixForm` (see
  :func:`solve_form_simplex`), so the thousands of bound-only
  reoptimisations of a branch-and-bound tree share a single immutable copy
  instead of re-filling an ``m × (n + mu + m)`` array per node.
* **An explicit basis inverse, sized for a handful of rows.**  A package
  query has one row per global constraint, so the basis is 2-7 rows across.
  It is held as a :class:`~repro.ilp.factor.BasisFactor` — the dense
  ``m × m`` inverse — and every solve against it is one product
  (:meth:`~repro.ilp.factor.BasisFactor.ftran` /
  :meth:`~repro.ilp.factor.BasisFactor.btran`) or a row read
  (:meth:`~repro.ilp.factor.BasisFactor.btran_row`).  A pivot is a rank-one
  update of the inverse; it is rebuilt from the basis columns through a
  pivoted LU every :data:`_REFACTOR_INTERVAL` updates (periodic) and whenever
  an update's pivot is too small to trust (stability-triggered).
* **Basis export + dual-simplex reoptimisation over factors.**  Every optimal
  solve returns a :class:`SimplexBasis` which a later solve of a *related*
  problem consumes as a warm start, re-entering through the dual simplex.
  The exported basis carries an O(1) snapshot of the final inverse, so a child
  solve installs it without reinverting; a deterministic residual check
  (``ftran(B @ 1) ≈ 1``), run on every install, rejects stale or drifted
  inverses, and invalid bases (shape mismatch, singular basis matrix,
  unrestorable dual feasibility) fall back to a cold solve.  After the dual
  simplex, the primal clean-up is one optimality pricing.

**Pricing.**  The entering variable is chosen by Dantzig's rule (largest
reduced-cost magnitude) off a full ``v @ A`` sweep: after a dual solve the
primal is a clean-up that prices once and finds nothing to enter, so no
partial pricing is kept for it.  After a long run of degenerate pivots the
solver switches to Bland's rule — the lowest eligible index — to guarantee
termination.  A bound flip changes no basis, inverse or cost, so the iteration after it
reuses the last full sweep's reduced costs.  The sweep that declares
optimality is exported: :attr:`SimplexResult.reduced_costs` is its
structural slice, so branch-and-bound fixes columns from it without another
``btran`` or column product.  The ratio tests read the ``m`` basis rows once,
as Python floats: the same IEEE arithmetic and comparisons.

**Eligibility from one signed vector.**  Which columns may enter (pricing),
which may block the leaving row (the dual ratio test) and which must flip to
make an installed basis dual feasible are all read off ``move``: +1 for a
nonbasic column that may rise, -1 for one that may fall, 0 for basic and
fixed ones (FREE columns, rare, are checked apart).  It is rebuilt before a
cold primal call and when a warm basis is installed for the dual (whose
primal clean-up keeps it), and patched per pivot or flip, so an iteration
tests ``move * d < -eps`` — one product, exact for ±1 and 0 — instead of
re-deriving the masks from the statuses and bounds.

**The cold path is dual too.**  With every column at the bound its cost
prefers — lower for ``c_j > 0``, upper for ``c_j < 0`` — the slack basis
(slacks on ``<=`` rows, zero-fixed artificials on ``=`` rows: the identity)
is dual feasible, so a cold solve is the warm path's dual simplex from there.
Every column of a PaQL LP with REPEAT is boxed, so that start always exists
on them; it cuts the benchmark's root LPs from 13-154 pivots to 2-8.  A
column without that bound, or a dual start that stalls, goes to the classic
two-phase method in revised form (phase 1 minimises signed artificial
infeasibilities, phase 2 the true objective); :attr:`SimplexResult.two_phase`
says so.

**The long step.**  The dual ratio test is a bound-flipping one: it passes
the columns whose whole box ``|alpha_j| (u_j - l_j)`` cannot absorb the
leaving row's infeasibility, flips them to their other bound, and enters the
first one that can (:func:`_long_step`).  From the slack basis of a COUNT
row over thousands of columns, one step flips thousands.

The solver handles minimisation of ``c @ x`` subject to ``A_ub x <= b_ub``,
``A_eq x = b_eq`` and per-variable bounds (``±inf`` meaning unbounded).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from repro.ilp.factor import BasisFactor
from repro.ilp.matrix_form import MatrixForm

_EPSILON = 1e-9
_PIVOT_EPSILON = 1e-10
_FEASIBILITY_TOLERANCE = 1e-7
_RATIO_TIE_TOLERANCE = 1e-10
#: Rank-one updates an inverse may absorb before it is rebuilt from the basis
#: columns; the count is inherited across warm starts.
_REFACTOR_INTERVAL = 60
_MAX_ITERATIONS_FACTOR = 50
_DEGENERATE_STREAK_LIMIT = 50

#: Bases of larger dimension export without their inverse (m² floats per open
#: branch-and-bound node; past this the warm path reinverts instead).
_FACTOR_EXPORT_LIMIT = 512

# Per-column statuses.  BASIC columns are listed in ``SimplexBasis.basic``;
# nonbasic columns sit at one of their (finite) bounds, or at zero when FREE.
BASIC = 0
AT_LOWER = 1
AT_UPPER = 2
FREE = 3

#: The move vector's entry for each status, indexed by it: a nonbasic column at
#: its lower bound may rise, one at its upper bound may fall.  BASIC and FREE
#: columns read 0 (FREE ones are handled apart), and so does any fixed column.
_MOVE_OF_STATUS = np.array([0.0, 1.0, -1.0, 0.0])

_WORK_CACHE_KEY = "simplex_work"


class SimplexStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    #: The basis went singular / non-finite and reinversion could not repair
    #: it.  Distinct from ITERATION_LIMIT so callers retry cold instead of
    #: treating the solve as a genuine pivot-budget exhaustion.
    NUMERICAL_ERROR = "numerical_error"


@dataclass
class SimplexBasis:
    """A reusable snapshot of the simplex state at optimality.

    The column space is the solver's internal one: ``num_structural``
    structural columns, then ``num_ub`` slacks (one per ``<=`` row), then
    ``num_ub + num_eq`` artificials (fixed at zero outside phase 1).  A basis
    is only meaningful for a problem with the same constraint matrix shape;
    :meth:`matches` performs that cheap signature check and consumers fall
    back to a cold solve when it fails.

    ``_factor`` optionally carries a snapshot of the exporting solve's
    :class:`~repro.ilp.factor.BasisFactor` — a shared reference to its
    inverse and the count of updates folded into it — so a warm start skips
    the reinversion.  Installers re-verify it against their own matrix before
    trusting it.
    """

    basic: np.ndarray
    status: np.ndarray
    num_structural: int
    num_ub: int
    num_eq: int
    _factor: BasisFactor | None = field(default=None, repr=False, compare=False)

    def matches(self, num_structural: int, num_ub: int, num_eq: int) -> bool:
        """Whether this basis was exported from a problem of the given shape."""
        return (
            self.num_structural == num_structural
            and self.num_ub == num_ub
            and self.num_eq == num_eq
        )

@dataclass
class SimplexResult:
    """Outcome of a simplex solve (objective in minimisation sense).

    Attributes:
        status: Solve outcome.
        x: Structural variable values (empty when no solution).
        objective: ``c @ x`` (NaN when no solution).
        basis: Final basis, exported on OPTIMAL solves for warm-start reuse.
        iterations: Total simplex pivots/flips performed (all phases).
        warm_started: Whether the supplied warm-start basis was actually used
            (False when it was rejected and the solver fell back to cold).
        refactorizations: Reinversions from the basis columns during the
            solve (periodic, stability-triggered and install-time ones alike).
        reduced_costs: ``c_j - y @ a_j`` of each structural column off the
            pricing sweep that declared optimality (``None`` when no
            solution): about 0 on basic columns, ``>= -eps`` at a lower
            bound, ``<= eps`` at an upper one.
        slack_reduced_costs: The same sweep over the slack columns, one per
            ``<=`` row (``-y_i``), for branching penalties.
        two_phase: Whether the cold start went two-phase instead of the dual
            simplex from the slack basis (see :meth:`_BoundedRevisedSimplex._cold_solve`).
    """

    status: SimplexStatus
    x: np.ndarray
    objective: float
    basis: SimplexBasis | None = None
    iterations: int = 0
    warm_started: bool = False
    refactorizations: int = 0
    reduced_costs: np.ndarray | None = None
    slack_reduced_costs: np.ndarray | None = None
    two_phase: bool = False


class _WorkMatrix:
    """Standard-form working matrix ``[A | I_slack | I_art]``, built once.

    Immutable after construction and safe to share across solves: branch-and-
    bound nodes differ only in bounds, so they all price and FTRAN against the
    same copy.
    """

    __slots__ = ("n", "mu", "me", "m", "ncols", "art0", "b", "costs", "a")

    def __init__(self, form: MatrixForm):
        n = form.num_variables
        mu, me = form.a_ub.shape[0], form.a_eq.shape[0]
        m = mu + me
        ncols = n + mu + m

        self.n, self.mu, self.me, self.m, self.ncols = n, mu, me, m, ncols
        self.art0 = n + mu
        self.b = np.concatenate([form.b_ub, form.b_eq], dtype=np.float64)
        self.costs = np.zeros(ncols)
        self.costs[:n] = form.c

        self.a = np.zeros((m, ncols))
        if mu:
            self.a[:mu, :n] = form.a_ub
            self.a[:mu, n : n + mu] = np.eye(mu)
        if me:
            self.a[mu:, :n] = form.a_eq
        if m:
            self.a[:, n + mu :] = np.eye(m)


def solve_dense_simplex(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    bounds,
    warm_start: SimplexBasis | None = None,
) -> SimplexResult:
    """Minimise ``c @ x`` subject to the given constraints and bounds.

    ``a_ub``/``a_eq`` are 2-D float arrays with one column per variable (a
    :class:`~repro.errors.SolverError` otherwise).  ``bounds`` is a list of
    ``(lower, upper)`` pairs, one per variable, with ``None`` meaning
    unbounded — the form hand-written LPs come in.  ``warm_start`` optionally
    reuses a basis from a related earlier solve.  Callers solving many related
    problems over the same matrix should prefer :func:`solve_form_simplex`,
    which assembles the working matrix only once.
    """
    lower = np.array([-np.inf if low is None else low for low, _ in bounds], dtype=np.float64)
    upper = np.array([np.inf if up is None else up for _, up in bounds], dtype=np.float64)
    form = MatrixForm(c, a_ub, b_ub, a_eq, b_eq, (lower, upper), maximize=False)
    return solve_form_simplex(form, warm_start)


def solve_form_simplex(
    form: MatrixForm,
    warm_start: SimplexBasis | None = None,
) -> SimplexResult:
    """Solve a :class:`MatrixForm` LP, reusing its cached working matrix.

    The assembled :class:`_WorkMatrix` is memoized in ``form.cache``, which
    every :meth:`~repro.ilp.matrix_form.MatrixForm.with_bounds` view shares —
    so a whole branch-and-bound tree pays the standard-form assembly exactly
    once.
    """
    return _BoundedRevisedSimplex(_work_matrix(form), *form.bounds).solve(warm_start)


def _work_matrix(form: MatrixForm) -> _WorkMatrix:
    work = form.cache.get(_WORK_CACHE_KEY)
    if work is None:
        work = _WorkMatrix(form)
        form.cache[_WORK_CACHE_KEY] = work
    return work


def branching_penalties(
    form: MatrixForm,
    basis: SimplexBasis,
    reduced_costs: np.ndarray,
    slack_reduced_costs: np.ndarray,
    columns: np.ndarray,
    fractions: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Driebeek's penalties of branching on basic structural ``columns``.

    ``basis`` and the reduced costs are an optimal solve's of ``form`` (whose
    bounds are the node's), and ``fractions`` the columns' fractional parts
    ``f``.  Row ``r`` of ``B⁻¹ A`` says what moving a nonbasic column does to
    the column basic there; to push it down by ``f`` the first dual pivot of
    the down child gives up at least ``f · min |d_k / alpha_k|`` over the
    movable columns whose move lowers it, and the up child ``(1 - f) · min``
    over those that raise it.  Returns ``(down, up)`` in the form's
    minimisation sense, ``inf`` where no column can move that way (that child
    is infeasible).  Nothing is priced afresh: ``d`` is the exported sweep.
    """
    work = _work_matrix(form)
    factor = basis._factor
    if factor is None or not factor.matches(work.m):
        factor = BasisFactor.factorize(work.a[:, basis.basic])
    if factor is None:
        return np.zeros(len(columns)), np.zeros(len(columns))
    row_of = np.empty(work.ncols, dtype=np.int64)
    row_of[basis.basic] = np.arange(work.m)
    inverse_rows = np.stack([factor.btran_row(int(r)) for r in row_of[columns]])
    # Structural and slack columns; a slack's bounds [0, inf) let it move.
    alpha = inverse_rows @ work.a[:, : work.art0]
    status = basis.status[: work.art0]
    move = _MOVE_OF_STATUS.take(status, mode="clip")
    move[: work.n] *= form.bounds[0] < form.bounds[1]
    d = np.abs(np.concatenate([reduced_costs, slack_reduced_costs]))
    # rate > 0: the column's move lowers the basic column; d / rate is then
    # the objective it costs per unit of that column, and -d / rate when it
    # raises it.
    rate = alpha * move
    with np.errstate(divide="ignore", invalid="ignore"):
        per_unit = d / rate
    lowering = np.where(rate > _PIVOT_EPSILON, per_unit, np.inf).min(axis=1)
    raising = np.where(rate < -_PIVOT_EPSILON, -per_unit, np.inf).min(axis=1)
    free = (status == FREE).nonzero()[0]
    if free.size:
        # A FREE column (both bounds infinite) moves either way.
        magnitude = np.abs(alpha[:, free])
        with np.errstate(divide="ignore", invalid="ignore"):
            either = np.where(magnitude > _PIVOT_EPSILON, d[free] / magnitude, np.inf).min(axis=1)
        lowering = np.minimum(lowering, either)
        raising = np.minimum(raising, either)
    return fractions * lowering, (1.0 - fractions) * raising


def _long_step(ratios: np.ndarray, capacities: np.ndarray, infeasibility: float) -> float:
    """The dual step of a bound-flipping ratio test: the smallest ratio ``t``
    at which the columns with ratio ``<= t`` can absorb the leaving row's
    ``infeasibility``, each by its ``capacity`` ``|alpha_j| (u_j - l_j)``.

    The columns below ``t`` flip to their other bound and one at ``t`` enters;
    with no capacity to spare the largest ratio enters.  Only the end of the
    order that decides is sorted: a prefix of the smallest ratios, grown
    fourfold until it reaches the infeasibility — or, when most columns flip,
    a prefix of the largest, until it exceeds the capacity left over.  A NaN
    infeasibility takes the smallest ratio, the one-column step.
    """
    k = int(ratios.argmin())
    if not capacities[k] < infeasibility:
        return float(ratios[k])
    size = ratios.size
    total = float(capacities.sum())
    from_top = math.isfinite(total) and infeasibility > 0.5 * total
    # From the top: the first column whose suffix sum exceeds what may be
    # left over enters, so that the prefix through it reaches the infeasibility.
    keys = -ratios if from_top else ratios
    target = total - infeasibility if from_top else infeasibility
    length = 32
    while True:
        if length < size:
            head = np.argpartition(keys, length - 1)[:length]
            head = head[np.argsort(keys[head], kind="stable")]
        else:
            head = np.argsort(keys, kind="stable")
        reach = np.cumsum(capacities[head])
        crossed = int(np.searchsorted(reach, target, side="right" if from_top else "left"))
        if crossed < head.size:
            return float(ratios[head[crossed]])
        if length >= size:
            return float(ratios[head[-1]])
        length *= 4


class _BoundedRevisedSimplex:
    """One solve of ``min c@x, A_ub x <= b_ub, A_eq x = b_eq, l <= x <= u``.

    Internal standard form: ``A_work y = b`` over ``n`` structural columns,
    ``mu`` slack columns (bounds ``[0, inf)``) and ``m = mu + me`` artificial
    identity columns (bounds ``[0, 0]`` except while phase 1 relaxes them).
    The working matrix is shared and immutable; everything mutable (bounds,
    statuses, basis factor, pricing state) is per-solve state.
    """

    def __init__(self, work: _WorkMatrix, structural_lower: np.ndarray, structural_upper: np.ndarray):
        self.a = work.a
        self.n, self.mu, self.me = work.n, work.mu, work.me
        self.m, self.ncols, self.art0 = work.m, work.ncols, work.art0
        self.b = work.b
        self.costs = work.costs

        lower = np.zeros(self.ncols)
        upper = np.full(self.ncols, np.inf)
        lower[: self.n] = structural_lower
        upper[: self.n] = structural_upper
        lower[self.art0 :] = 0.0
        upper[self.art0 :] = 0.0
        # Collapse bound pairs that crossed within tolerance (branch-and-bound
        # children can produce l == u up to rounding); a genuine crossing is
        # detected as infeasible in solve().
        crossed = (lower > upper) & (lower <= upper + _EPSILON)
        upper[crossed] = lower[crossed]
        self.lower, self.upper = lower, upper

        self.basis = np.empty(0, dtype=np.int64)
        self.status = np.full(self.ncols, AT_LOWER, dtype=np.int8)
        # The signed move vector (see _set_moves), whether any column is FREE,
        # and the reduced costs _try_install priced for the first dual step.
        self.move = np.zeros(self.ncols)
        self._any_free = False
        self._priced: np.ndarray | None = None
        # The full sweep that last declared a primal call optimal.
        self._optimal_d: np.ndarray | None = None
        self.factor = BasisFactor.identity(self.m)
        self.xb = np.zeros(self.m)
        self.iterations = 0
        self.refactorizations = 0
        self._bland = False
        self._degenerate_streak = 0
        self._numerical_failure = False
        self._two_phase = False

    def _ftran(self, j: int) -> np.ndarray:
        """``B^-1 a_j``."""
        return self.factor.ftran(self.a[:, j])

    # -- public entry ------------------------------------------------------------

    def solve(self, warm_start: SimplexBasis | None = None) -> SimplexResult:
        if (self.lower > self.upper).any():
            return self._result(SimplexStatus.INFEASIBLE)
        if warm_start is not None and self._try_install(warm_start):
            result = self._dual_solve(warm_started=True)
            if result is not None:
                return result
        return self._cold_solve()

    def _dual_solve(self, warm_started: bool) -> SimplexResult | None:
        """Reoptimise from the basis just installed; ``None`` after numerical
        trouble or a spent pivot budget, with the search state reset for the
        next start."""
        status = self._reoptimize()
        if status not in (SimplexStatus.ITERATION_LIMIT, SimplexStatus.NUMERICAL_ERROR):
            result = self._result(status, warm_started=warm_started)
            if result.status is not SimplexStatus.NUMERICAL_ERROR:
                return result
        self._bland = False
        self._degenerate_streak = 0
        self._numerical_failure = False
        return None

    # -- cold path ----------------------------------------------------------------

    def _cold_solve(self) -> SimplexResult:
        """The dual simplex from the slack basis when every column has the
        bound its cost prefers; the two-phase primal otherwise, or when that
        start stalls."""
        if self._slack_start():
            result = self._dual_solve(warm_started=False)
            if result is not None:
                return result
        self._two_phase = True
        self._cold_start()
        if (np.abs(self.xb) > _FEASIBILITY_TOLERANCE).any():
            phase1 = self._phase1()
            if phase1 is not SimplexStatus.OPTIMAL:
                return self._result(phase1)
        self._set_moves()
        return self._result(self._primal(self.costs))

    def _slack_start(self) -> bool:
        """Install the slack basis, dual feasible; False → two-phase instead.

        Slacks are basic for ``<=`` rows and artificials (fixed at 0) for
        ``=`` rows, so the basis matrix and its inverse are ``I`` and ``y =
        0``: each reduced cost is the column's cost.  A structural column sits
        at the bound its cost prefers — lower for ``c_j > 0``, upper for
        ``c_j < 0``, whichever is finite (or FREE) for ``c_j = 0`` — which
        makes every ``d_j`` dual feasible.  A column without that bound (a
        maximised column with no upper bound, a NaN cost) rejects the start,
        and so do bounds too large for ``x_B`` to come out finite.
        """
        n = self.n
        c = self.costs[:n]
        finite_lower = np.isfinite(self.lower[:n])
        finite_upper = np.isfinite(self.upper[:n])
        if not ((c >= 0) & finite_lower | (c <= 0) & finite_upper | (c == 0)).all():
            return False
        status = np.full(self.ncols, AT_LOWER, dtype=np.int8)
        status[:n] = np.where(
            (c < 0) | ~finite_lower, np.where(finite_upper, AT_UPPER, FREE), AT_LOWER
        )
        self.basis = np.concatenate([
            np.arange(n, self.art0, dtype=np.int64),
            np.arange(self.art0 + self.mu, self.ncols, dtype=np.int64),
        ])
        status[self.basis] = BASIC
        self.status = status
        self.factor = BasisFactor.identity(self.m)
        self._set_moves()
        self._priced = self.costs
        self._compute_xb()
        return bool(np.isfinite(self.xb).all())

    def _cold_start(self) -> None:
        """All-artificial basis; real columns nonbasic at their nearest bound."""
        status = np.full(self.ncols, AT_LOWER, dtype=np.int8)
        finite_lower = np.isfinite(self.lower[: self.art0])
        finite_upper = np.isfinite(self.upper[: self.art0])
        status[: self.art0] = np.where(
            finite_lower, AT_LOWER, np.where(finite_upper, AT_UPPER, FREE)
        )
        self.basis = np.arange(self.art0, self.ncols, dtype=np.int64)
        status[self.basis] = BASIC
        self.status = status
        self.lower[self.art0 :] = 0.0
        self.upper[self.art0 :] = 0.0
        # The all-artificial basis matrix is the identity, and so its inverse.
        self.factor = BasisFactor.identity(self.m)
        self._compute_xb()

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

        self._set_moves()
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
        if (residual > _FEASIBILITY_TOLERANCE * np.maximum(1.0, np.abs(self.b))).any():
            return SimplexStatus.INFEASIBLE
        self._compute_xb()
        return SimplexStatus.OPTIMAL

    # -- warm path -----------------------------------------------------------------

    def _try_install(self, warm: SimplexBasis) -> bool:
        """Validate and install a warm-start basis; False → caller goes cold.

        When the exported basis carries its inverse, a snapshot of it is
        installed directly — the reinversion is skipped — but the residual
        check below *always* runs: a caller may pass the basis of another
        same-shape form with different coefficients, or the inverse may have
        drifted over the updates it inherited, and either would silently
        corrupt every FTRAN after it.
        """
        if not isinstance(warm, SimplexBasis) or not warm.matches(self.n, self.mu, self.me):
            return False
        basic = np.asarray(warm.basic, dtype=np.int64)
        status = np.asarray(warm.status, dtype=np.int8).copy()
        if basic.shape != (self.m,) or status.shape != (self.ncols,):
            return False
        if self.m and (basic.min() < 0 or basic.max() >= self.ncols):
            return False
        # ``basic`` lists m distinct columns, and they are the BASIC ones.
        listed = np.zeros(self.ncols, dtype=bool)
        listed[basic] = True
        if (listed != (status == BASIC)).any() or np.count_nonzero(listed) != self.m:
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
        # With no FREE status and every AT_UPPER column's upper bound and every
        # other column's lower bound finite, each mask below is empty.
        if (status == FREE).any() or not np.isfinite(
            np.where(status == AT_UPPER, self.upper, self.lower)
        ).all():
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

    def _dual_flips(self, d: np.ndarray) -> np.ndarray | None:
        """Columns whose reduced cost has the wrong sign for the bound they sit
        at, to be flipped to the other; ``None`` when one of them has no other
        (an infinite bound) or a movable FREE column has ``|d| > eps``."""
        flips = (self.move * d < -_EPSILON).nonzero()[0]
        rising = self.move[flips] > 0
        if not np.isfinite(np.where(rising, self.upper[flips], self.lower[flips])).all():
            return None
        if self._any_free and (
            (self.status == FREE) & (self.lower != self.upper) & (np.abs(d) > _EPSILON)
        ).any():
            return None
        return flips

    def _factor_consistent(self) -> bool:
        """Deterministic residual check: ``ftran(B @ 1)`` must return ones.

        Catches inverses exported against a different-coefficient matrix, a
        wrong column order, singular bases and an inherited inverse that has
        drifted from its basis — one product, not the full ``B⁻¹ B``.
        """
        if self.m == 0:
            return True
        indicator = np.zeros(self.ncols)
        indicator[self.basis] = 1.0
        residual = self.factor.ftran(self.a @ indicator) - 1.0
        if not np.isfinite(residual).all():
            return False
        return float(np.abs(residual).max()) <= 1e-6

    def _reoptimize(self) -> SimplexStatus:
        """Dual simplex to primal feasibility, then primal clean-up: from the
        move vector the dual kept current, almost always one pricing."""
        status = self._dual()
        if status is not SimplexStatus.OPTIMAL:
            return status
        return self._primal(self.costs)

    # -- primal simplex -----------------------------------------------------------

    def _primal(self, costs: np.ndarray) -> SimplexStatus:
        """Primal simplex over ``costs`` from the current basis and move vector.

        A full sweep's reduced costs stay exact until the next pivot (a bound
        flip changes no basis, inverse or cost), so iterations reuse them.
        """
        max_iterations = _MAX_ITERATIONS_FACTOR * (self.m + self.ncols + 1)
        d: np.ndarray | None = None
        for _ in range(max_iterations):
            self.iterations += 1
            if d is None:
                d = costs - self.factor.btran(costs[self.basis]) @ self.a
            entering, direction = self._price(d)
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

            d = None
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

    # -- pricing ------------------------------------------------------------------

    def _price(self, d: np.ndarray) -> tuple[int | None, int]:
        """Choose the entering column off a full sweep's reduced costs ``d``;
        ``(None, 0)`` means price-optimal.

        Bland mode takes the lowest eligible index, Dantzig's rule the
        largest ``|d|``.  An optimal ``d`` is kept for
        :attr:`SimplexResult.reduced_costs`.
        """
        eligible = self._eligible_columns(d)
        if eligible.size == 0:
            self._optimal_d = d
            return None, 0
        if self._bland:
            j = int(eligible[0])
            return j, (1 if d[j] < 0 else -1)
        return self._select(eligible, d[eligible])

    def _eligible_columns(self, d: np.ndarray) -> np.ndarray:
        """Indices of columns whose reduced cost permits an improving move:
        ``move * d < -eps`` (at lower with ``d < -eps``, at upper with ``d >
        eps``), or a FREE column with ``|d| > eps``."""
        eligible = self.move * d < -_EPSILON
        if self._any_free:
            eligible |= (self.status == FREE) & (np.abs(d) > _EPSILON)
        return eligible.nonzero()[0]

    @staticmethod
    def _select(cols: np.ndarray, d_cols: np.ndarray) -> tuple[int, int]:
        """Dantzig's rule over eligible columns ``cols``: largest ``|d|``."""
        k = int(np.abs(d_cols).argmax())
        j = int(cols[k])
        return j, (1 if d_cols[k] < 0 else -1)

    def _primal_ratio_test(
        self, entering: int, direction: int, w: np.ndarray
    ) -> tuple[float | None, int | None, int | None]:
        """Largest step for the entering column; (None,..) means unbounded.

        Returns ``(step, limiting_row, leaving_status)``; a ``None`` row with a
        finite step is a bound flip.  The rows are read once as Python
        floats; the arithmetic and every comparison, NaN included, are those
        of the numpy scalars.
        """
        span = float(self.upper[entering] - self.lower[entering])
        best_t = span if math.isfinite(span) else math.inf
        limit_row: int | None = None
        leave_to: int | None = None
        basis = self.basis.tolist()
        lower = self.lower[self.basis].tolist()
        upper = self.upper[self.basis].tolist()
        xb = self.xb.tolist()
        ws = w.tolist()
        for i in range(self.m):
            rate = -direction * ws[i]  # d(x_B[i]) / d(step)
            if rate < -_PIVOT_EPSILON and math.isfinite(lower[i]):
                t = (xb[i] - lower[i]) / (-rate)
                to = AT_LOWER
            elif rate > _PIVOT_EPSILON and math.isfinite(upper[i]):
                t = (upper[i] - xb[i]) / rate
                to = AT_UPPER
            else:
                continue
            t = max(t, 0.0)
            if t < best_t - _RATIO_TIE_TOLERANCE:
                best_t, limit_row, leave_to = t, i, to
            elif limit_row is not None and t <= best_t + _RATIO_TIE_TOLERANCE:
                if self._bland:
                    if basis[i] < basis[limit_row]:
                        limit_row, leave_to = i, to
                elif abs(ws[i]) > abs(ws[limit_row]):
                    limit_row, leave_to = i, to
        if not math.isfinite(best_t) and limit_row is None:
            return None, None, None
        return best_t, limit_row, leave_to

    # -- dual simplex ---------------------------------------------------------------

    def _dual(self) -> SimplexStatus:
        """Dual simplex over ``self.costs`` from the basis, move vector and
        reduced costs :meth:`_try_install` just set up."""
        costs = self.costs
        priced, self._priced = self._priced, None
        max_iterations = _MAX_ITERATIONS_FACTOR * (self.m + self.ncols + 1)
        for _ in range(max_iterations):
            if self.m == 0:
                return SimplexStatus.OPTIMAL
            basic_lower = self.lower[self.basis]
            basic_upper = self.upper[self.basis]
            below = basic_lower - self.xb
            above = self.xb - basic_upper
            violation = np.maximum(below, above)
            # NaN fails ``<=``: a NaN x_B is never declared feasible.
            if violation.max() <= _FEASIBILITY_TOLERANCE:
                return SimplexStatus.OPTIMAL
            self.iterations += 1

            if self._bland:
                rows = (violation > _FEASIBILITY_TOLERANCE).nonzero()[0]
                r = int(rows[self.basis[rows].argmin()])
            else:
                r = int(violation.argmax())
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
            magnitudes = np.abs(alpha[eligible])
            ratios = np.abs(d[eligible]) / magnitudes
            if self._bland:
                step = float(ratios.min())
                q = int(eligible[(ratios <= step + _RATIO_TIE_TOLERANCE).argmax()])
            else:
                # The columns below the step flip; among those at it, within
                # the tie tolerance, the largest |alpha| enters.
                widths = self.upper[eligible] - self.lower[eligible]
                step = _long_step(ratios, magnitudes * widths, float(violation[r]))
                near = ratios <= step + _RATIO_TIE_TOLERANCE
                passed = ratios < step - _RATIO_TIE_TOLERANCE
                if passed.any():
                    self._flip(eligible[passed])
                    near &= ~passed
                k = near.nonzero()[0]
                q = int(eligible[k[magnitudes[k].argmax()]])

            w = self._ftran(q)
            pivot = float(w[r])
            if abs(pivot) < _PIVOT_EPSILON:
                # The updated inverse disagrees with the priced row; rebuild it
                # once and let the caller fall back if that does not help.
                if not self._refactorize():
                    return SimplexStatus.NUMERICAL_ERROR
                self._compute_xb()
                w = self._ftran(q)
                pivot = float(w[r])
                if abs(pivot) < _PIVOT_EPSILON:
                    return SimplexStatus.NUMERICAL_ERROR

            # Incremental primal update: move the entering column by exactly
            # the amount that lands x_B[r] on its violated bound, then make it
            # basic there (full recompute only after a reinversion).
            target = float(basic_lower[r] if leaving_below else basic_upper[r])
            entering_step = (float(self.xb[r]) - target) / pivot
            entering_status = self.status[q]
            if entering_status == AT_LOWER:
                entering_start = float(self.lower[q])
            elif entering_status == AT_UPPER:
                entering_start = float(self.upper[q])
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
            self._note_step(step)
        return SimplexStatus.ITERATION_LIMIT

    def _flip(self, cols: np.ndarray) -> None:
        """Move nonbasic columns ``cols`` to their other (finite) bound: the
        columns a long dual step passes.  ``x_B`` follows with one product."""
        rising = self.move[cols] > 0
        width = self.upper[cols] - self.lower[cols]
        shift = np.where(rising, width, -width)
        self.xb -= self.factor.ftran(self.a[:, cols] @ shift)
        self.status[cols] = np.where(rising, AT_UPPER, AT_LOWER)
        self.move[cols] = -self.move[cols]

    def _ratio_candidates(self, alpha: np.ndarray, leaving_below: bool) -> np.ndarray:
        """Columns that can enter against leaving row ``alpha``: those whose
        move pushes ``x_B[r]`` toward its violated bound, ``dx_B[r]/dx_j =
        -alpha_j`` — ``move * alpha < -eps`` when it must rise, ``> eps``
        when it must fall — and FREE columns with ``|alpha| > eps``."""
        rate = self.move * alpha
        mask = rate < -_PIVOT_EPSILON if leaving_below else rate > _PIVOT_EPSILON
        if self._any_free:
            mask |= (self.status == FREE) & (np.abs(alpha) > _PIVOT_EPSILON)
        return mask.nonzero()[0]

    # -- shared machinery -----------------------------------------------------------

    def _set_moves(self) -> None:
        """Rebuild the signed move vector from the statuses and bounds.

        ``move[j]`` is +1 for a nonbasic column at its lower bound that may
        rise (``l_j < u_j``), -1 for one at its upper bound that may fall, and
        0 for basic, fixed and FREE columns (FREE ones are flagged apart).
        Bounds are constant within one solve phase, so the vector is rebuilt
        before each cold :meth:`_primal` call and when :meth:`_try_install`
        seeds :meth:`_dual` (whose primal clean-up keeps it), and a pivot or
        flip then updates only the columns it touches.  ``clip``: an out-of-range
        status in a caller's basis moves nowhere, as it never did.
        """
        moves = _MOVE_OF_STATUS.take(self.status, mode="clip")
        self.move = np.where(self.lower < self.upper, moves, 0.0)
        self._any_free = bool((self.status == FREE).any())

    def _set_status(self, j: int, status: int) -> None:
        """Make column ``j`` nonbasic at ``status``, move vector included."""
        self.status[j] = status
        self.move[j] = _MOVE_OF_STATUS[status] if self.lower[j] < self.upper[j] else 0.0

    def _apply_pivot(self, row: int, entering: int, w: np.ndarray) -> bool:
        """Swap ``entering`` into the basis at ``row``; True if reinverted.

        The factor normally absorbs the pivot as one rank-one update.  It
        refuses numerically untrustworthy pivots (stability trigger) and the
        run of updates is bounded by :data:`_REFACTOR_INTERVAL` (periodic
        trigger); either way the inverse is rebuilt from the basis columns,
        and a failed reinversion (singular or non-finite basis) raises the
        ``_numerical_failure`` flag so the driving loop bails out with
        NUMERICAL_ERROR instead of iterating on a corrupt inverse.
        """
        self.basis[row] = entering
        self.status[entering] = BASIC
        self.move[entering] = 0.0
        if not self.factor.update(row, w) or self.factor.updates >= _REFACTOR_INTERVAL:
            if not self._refactorize():
                self._numerical_failure = True
            return True
        return False

    def _refactorize(self) -> bool:
        factor = BasisFactor.factorize(self.a[:, self.basis])
        if factor is None:
            return False
        self.factor = factor
        self.refactorizations += 1
        return True

    def _note_step(self, step: float) -> None:
        if step > _EPSILON:
            self._degenerate_streak = 0
            self._bland = False
        else:
            self._degenerate_streak += 1
            if self._degenerate_streak > _DEGENERATE_STREAK_LIMIT:
                self._bland = True

    def _nonbasic_values(self) -> np.ndarray:
        status = self.status
        return np.where(
            status == AT_LOWER, self.lower, np.where(status == AT_UPPER, self.upper, 0.0)
        )

    def _compute_xb(self) -> None:
        x = self._nonbasic_values()
        self.xb = self.factor.ftran(self.b - self.a @ x)

    def _full_solution(self) -> np.ndarray:
        x = self._nonbasic_values()
        x[self.basis] = self.xb
        return x

    def _result(self, status: SimplexStatus, warm_started: bool = False) -> SimplexResult:
        if status is not SimplexStatus.OPTIMAL:
            return SimplexResult(
                status, np.empty(0), float("nan"), None, self.iterations, warm_started,
                self.refactorizations, two_phase=self._two_phase,
            )
        x = self._full_solution()
        if not np.isfinite(x).all():
            # A corrupt basis inverse can only produce non-finite values; never
            # report that as OPTIMAL.
            return self._result(SimplexStatus.NUMERICAL_ERROR, warm_started)
        objective = float(self.costs[: self.n] @ x[: self.n])
        basis = SimplexBasis(
            self.basis.copy(), self.status.copy(), self.n, self.mu, self.me
        )
        if self.m and self.m <= _FACTOR_EXPORT_LIMIT:
            # Warm-start protocol over factors: hand consumers a snapshot so a
            # related reoptimisation skips its reinversion.
            basis._factor = self.factor.snapshot()
        # Every OPTIMAL status comes from a primal call over ``self.costs``
        # whose last pricing kept its sweep (a subclass that overrides the
        # pricing may not).
        d = self._optimal_d
        return SimplexResult(
            SimplexStatus.OPTIMAL,
            x[: self.n].copy(),
            objective,
            basis,
            self.iterations,
            warm_started,
            self.refactorizations,
            None if d is None else d[: self.n],
            None if d is None else d[self.n : self.art0],
            self._two_phase,
        )
