"""Branch-and-bound integer linear programming solver.

This is the library's stand-in for the paper's black-box ILP solver (CPLEX).
It implements a classic LP-relaxation branch-and-bound:

1. Solve the LP relaxation of the node.
2. If the relaxation is infeasible or its bound cannot beat the incumbent,
   prune the node.
3. If the relaxation is integral, update the incumbent.
4. Otherwise fix columns from the relaxation's reduced costs against the
   incumbent, then branch on the most fractional variable: two child nodes
   with tightened bounds.

**Branching ties.**  A COUNT row leaves two fractional columns at ``f`` and
``1 - f``, equally fractional, so under most-fractional branching the last
bits of the LP values would pick the column — and with it the tree.  Columns
within ``1e-9`` of the most fractional tie, and the tie goes to the largest
one-pivot dual penalty (Driebeek; :func:`~repro.ilp.simplex.branching_penalties`):
what the weaker of the column's two children must lose on its first dual
pivot, priced off the node LP's final basis and exported reduced costs.
Equal penalties go to the lowest index.

Open nodes are explored best bound first: on the benchmark's refine trees
the node count is set by the proof, not by the search order (strong branching
and a smoothed-fractionality rule left it as large or larger), so what a node
costs — one warm dual solve and its glue — is the lever.  A rounding heuristic
tries to convert fractional relaxations into incumbents early, which greatly
speeds up the package-query instances (0/1-style multiplicity variables); it
checks feasibility only when a rounding could beat the incumbent.

**Reduced-cost fixing.**  Once an incumbent exists, the tree prunes from LP
duals: an integer column at a bound of a node's LP with reduced cost ``d_j``
moves at most ``floor((gap + slack) / |d_j|)`` units off it in any solution
that can still match the incumbent (``gap`` is the incumbent's distance to the
node's LP bound, the :data:`_FIXING_SLACK` keeps equal-objective optima), so
the node's children inherit that bound.  The root LP's values, reduced costs
and bound are kept, and each time the incumbent improves the root's fixings
are recomputed once and intersected into every node popped after.  The
reduced costs come off the simplex's final pricing sweep
(:attr:`~repro.ilp.lp_backend.LpResult.reduced_costs`), and a fixed column
stays at the bound it sits on, so the inherited basis stays valid.
``SolveStats.reduced_cost_fixings`` counts the bounds moved.

**Basis reuse.**  The model is exported to its
:class:`~repro.ilp.matrix_form.MatrixForm` exactly once per solve (and the
model itself memoizes that export); every node shares the same objective and
constraint buffers and differs only in its bounds vectors, materialised via
:meth:`~repro.ilp.matrix_form.MatrixForm.with_bounds` without copying — the
simplex's assembled working matrix rides along in the shared form cache, so
the whole tree prices against one copy.  Each node also records the optimal
basis of its LP relaxation and hands it to its children: a child differs from
its parent by one tightened variable bound, so the child's LP is reoptimised
with a few dual-simplex pivots from the parent basis instead of a cold
solve.  The basis carries the parent's basis inverse by reference
(both children share the one array; a pivot writes a new one), so an open
node holds no per-pivot history and a child starts without reinverting — the
simplex checks the inherited inverse against its own matrix and rebuilds it
every ``_REFACTOR_INTERVAL`` pivots along the chain.  The root LP has no
parent and starts from the slack basis; no basis crosses from one solve to
the next.  ``SolveStats.warm_start_hits`` / ``simplex_iterations`` expose how
often the fast path is taken.

There is no presolve: the solver solves the model it is given, and every
node LP is the model's own form under the node's bounds, over the model's own
columns.  A model whose rows decide every column (a COUNT = n row over n 0/1
columns) is answered by its root LP in one node.

``SolverLimits`` intentionally includes ``max_variables``: CPLEX loads the
entire problem in memory and the paper's Figure 5 shows DIRECT failing on
large Galaxy queries for exactly that reason.  Setting a variable cap lets the
benchmark harness reproduce the failure regime deterministically.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SolverError
from repro.ilp.lp_backend import LpResult, solve_lp_form
from repro.ilp.matrix_form import MatrixForm
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.simplex import SimplexBasis, branching_penalties
from repro.ilp.status import Solution, SolveStats, SolverStatus

_INTEGRALITY_TOLERANCE = 1e-6
_BOUND_TOLERANCE = 1e-9
#: Relative slack added to the gap reduced-cost fixing allows, so that
#: equal-objective optima survive it (ties must not be cut: the differential
#: harness asserts NAIVE == DIRECT on the solution itself).
_FIXING_SLACK = 1e-6
#: Fractional columns this close to the most fractional tie for branching.
_BRANCH_TIE_TOLERANCE = 1e-9


@dataclass
class SolverLimits:
    """Resource budgets for a solve.

    Attributes:
        time_limit_seconds: Wall-clock budget; exceeded → TIME_LIMIT status
            (with the best incumbent, if any, reported as FEASIBLE).
        node_limit: Maximum number of branch-and-bound nodes to explore.
        max_variables: Maximum problem size the solver will accept.  ``None``
            disables the check.  This emulates the memory capacity limits of
            commercial solvers on very large ILPs.
        max_constraints: Like ``max_variables`` but for constraint count.
        relative_gap: Stop exploring a subtree when the relative optimality
            gap falls below this value.  The default matches the default MIP
            gap of commercial solvers (CPLEX uses 1e-4), which the paper's
            experiments rely on implicitly.
    """

    time_limit_seconds: float = 3600.0
    node_limit: int = 200_000
    max_variables: int | None = None
    max_constraints: int | None = None
    relative_gap: float = 1e-4


@dataclass(order=True)
class _Node:
    priority: float
    sequence: int
    depth: int = field(compare=False)
    #: What is proven about the node before its own LP runs: its parent's LP
    #: value.
    bound: float = field(compare=False)
    lower_bounds: np.ndarray = field(compare=False)
    upper_bounds: np.ndarray = field(compare=False)
    parent_basis: SimplexBasis | None = field(compare=False, default=None)


class BranchAndBoundSolver:
    """Exact ILP solver with LP-relaxation branch and bound."""

    def __init__(self, limits: SolverLimits | None = None):
        self.limits = limits or SolverLimits()

    # -- public API ----------------------------------------------------------------

    def solve(self, model: IlpModel) -> Solution:
        """Solve ``model`` to optimality (or until a limit is hit)."""
        stats = SolveStats()
        capacity_status = self._check_capacity(model)
        if capacity_status is not None:
            return Solution.failure(capacity_status, stats)

        start = time.perf_counter()
        form = model.to_matrix()

        if model.num_variables == 0:
            # Degenerate: empty model is trivially feasible with empty assignment.
            stats.wall_time_seconds = time.perf_counter() - start
            return Solution(SolverStatus.OPTIMAL, np.empty(0), 0.0, stats)

        lower, upper, integer_mask = model.bound_and_integrality_arrays()
        # Nodes mutate their bounds copies; the model's arrays are shared.
        root_lower = lower.copy()
        root_upper = upper.copy()

        sense = model.objective.sense
        incumbent: np.ndarray | None = None
        incumbent_value = sense.worst_value

        counter = itertools.count()
        heap: list[_Node] = []
        root = _Node(priority=0.0, sequence=next(counter), depth=0,
                     bound=-sense.worst_value,
                     lower_bounds=root_lower, upper_bounds=root_upper)
        heapq.heappush(heap, root)
        # The root LP of a tree that branched, and the bounds its reduced
        # costs prove against the incumbent of ``root_fixed_for`` (an
        # ``incumbent_updates`` count): every popped node is intersected with
        # them, and they are recomputed once whenever the incumbent improves.
        root_lp: LpResult | None = None
        root_fixed: tuple[np.ndarray, np.ndarray] | None = None
        root_fixed_for = 0
        # The weakest LP bound among the nodes the gap rule closed: their
        # subtrees may hold solutions that much better than the incumbent.
        proven_bound = sense.worst_value
        status = SolverStatus.OPTIMAL

        while heap:
            elapsed = time.perf_counter() - start
            if (
                elapsed > self.limits.time_limit_seconds
                or stats.nodes_explored >= self.limits.node_limit
            ):
                # Nothing is proven about the nodes still open beyond what
                # their parents' relaxations said.
                status = SolverStatus.TIME_LIMIT
                for node in heap:
                    proven_bound = self._weaker_bound(sense, proven_bound, node.bound)
                break

            node = heapq.heappop(heap)
            stats.nodes_explored += 1
            # A child's relaxation is never better than its parent's: a node
            # queued before the incumbent improved may be decided already.
            if incumbent is not None and not self._bound_improves(
                sense, node.bound, incumbent_value
            ):
                continue

            if root_lp is not None and root_fixed_for != stats.incumbent_updates:
                root_fixed_for = stats.incumbent_updates
                root_fixed = (lower.copy(), upper.copy())
                stats.reduced_cost_fixings += self._fix_by_reduced_costs(
                    *root_fixed, root_lp, integer_mask, incumbent_value
                )
            if root_fixed is not None:
                np.maximum(node.lower_bounds, root_fixed[0], out=node.lower_bounds)
                np.minimum(node.upper_bounds, root_fixed[1], out=node.upper_bounds)
                if (node.lower_bounds > node.upper_bounds).any():
                    continue

            node_form = form.with_bounds(node.lower_bounds, node.upper_bounds)
            lp_result = solve_lp_form(node_form, warm_start=node.parent_basis)
            self._accumulate_lp_stats(stats, lp_result)
            if lp_result.status is SolverStatus.NUMERICAL_ERROR and node.parent_basis is not None:
                # The warm basis corrupted the solve; retry the node cold
                # rather than pruning (or aborting) on numerical noise.
                stats.numerical_retries += 1
                lp_result = solve_lp_form(node_form)
                self._accumulate_lp_stats(stats, lp_result)
            if lp_result.status is SolverStatus.NUMERICAL_ERROR:
                raise SolverError(
                    f"LP relaxation failed numerically at node depth {node.depth}"
                )

            if lp_result.status is SolverStatus.INFEASIBLE:
                continue
            if lp_result.status is SolverStatus.UNBOUNDED:
                if incumbent is None and node.depth == 0:
                    stats.wall_time_seconds = time.perf_counter() - start
                    return Solution.failure(SolverStatus.UNBOUNDED, stats)
                continue

            bound = lp_result.objective_value

            # Prune by bound: the relaxation cannot improve on the incumbent.
            if incumbent is not None and not self._bound_improves(sense, bound, incumbent_value):
                continue

            fractional = self._fractional_indices(lp_result.values, integer_mask)
            if not len(fractional):
                # Integral relaxation: new incumbent.
                value = model.objective_value(lp_result.values)
                if incumbent is None or sense.better(value, incumbent_value):
                    incumbent = np.rint(lp_result.values * integer_mask) + lp_result.values * (~integer_mask)
                    incumbent_value = value
                    stats.incumbent_updates += 1
                continue

            rounded = self._rounding_heuristic(
                model, lp_result.values, integer_mask, node.lower_bounds,
                node.upper_bounds, None if incumbent is None else incumbent_value,
            )
            if rounded is not None:
                incumbent, incumbent_value = rounded
                stats.incumbent_updates += 1

            # Optimality-gap stop.
            if incumbent is not None and self._gap(sense, bound, incumbent_value) <= self.limits.relative_gap:
                proven_bound = self._weaker_bound(sense, proven_bound, bound)
                continue

            if node.depth == 0:
                # The root's own fixings below reach every node; later
                # incumbents refresh them from here.
                root_lp = lp_result
                root_fixed_for = stats.incumbent_updates
            # Chosen before the fixing below, which moves the node's bounds
            # in place: the tie penalties price the bounds this LP solved under.
            branch_index = self._choose_branch_variable(fractional, lp_result, node_form)
            floor_value = np.floor(lp_result.values[branch_index])

            if incumbent is not None:
                # Children inherit the node's bounds: fix them in place first.
                stats.reduced_cost_fixings += self._fix_by_reduced_costs(
                    node.lower_bounds, node.upper_bounds, lp_result, integer_mask,
                    incumbent_value,
                )

            # Children inherit this node's optimal basis: they differ by one
            # tightened bound, so their LPs dual-reoptimise from it.  Best
            # bound first from a min-heap: a maximised bound is negated.
            priority = bound if sense is ObjectiveSense.MINIMIZE else -bound
            down = _Node(
                priority=priority,
                sequence=next(counter),
                depth=node.depth + 1,
                bound=bound,
                lower_bounds=node.lower_bounds.copy(),
                upper_bounds=node.upper_bounds.copy(),
                parent_basis=lp_result.basis,
            )
            down.upper_bounds[branch_index] = floor_value

            up = _Node(
                priority=priority,
                sequence=next(counter),
                depth=node.depth + 1,
                bound=bound,
                lower_bounds=node.lower_bounds.copy(),
                upper_bounds=node.upper_bounds.copy(),
                parent_basis=lp_result.basis,
            )
            up.lower_bounds[branch_index] = floor_value + 1.0

            if down.upper_bounds[branch_index] >= down.lower_bounds[branch_index] - _BOUND_TOLERANCE:
                heapq.heappush(heap, down)
            if up.lower_bounds[branch_index] <= up.upper_bounds[branch_index] + _BOUND_TOLERANCE:
                heapq.heappush(heap, up)

        return self._finish(status, incumbent, incumbent_value, proven_bound, model, stats, start)

    # -- internals ---------------------------------------------------------------------

    def _check_capacity(self, model: IlpModel) -> SolverStatus | None:
        limits = self.limits
        if limits.max_variables is not None and model.num_variables > limits.max_variables:
            return SolverStatus.CAPACITY_EXCEEDED
        if limits.max_constraints is not None and model.num_constraints > limits.max_constraints:
            return SolverStatus.CAPACITY_EXCEEDED
        return None

    @staticmethod
    def _accumulate_lp_stats(stats: SolveStats, lp_result: LpResult) -> None:
        stats.lp_solves += 1
        stats.simplex_iterations += lp_result.iterations
        if lp_result.warm_start_used:
            stats.warm_start_hits += 1
        stats.two_phase_starts += lp_result.two_phase_start
        stats.refactorizations += lp_result.refactorizations
        stats.core_columns += lp_result.core_columns
        stats.sift_rounds += lp_result.sift_rounds

    @staticmethod
    def _fix_by_reduced_costs(
        lower: np.ndarray,
        upper: np.ndarray,
        lp_result: LpResult,
        integer_mask: np.ndarray,
        incumbent_value: float,
    ) -> int:
        """Reduced-cost fixing: tighten ``lower`` / ``upper`` in place to
        where a solution can still match the incumbent.

        Moving an integer column ``k`` units off the bound it sits on in
        ``lp_result`` worsens the LP bound by ``k |d_j|``, so past
        ``floor((gap + slack) / |d_j|)`` units nothing beats the incumbent:
        ``gap`` is the incumbent's distance to the LP bound, and the
        :data:`_FIXING_SLACK` keeps equal-objective optima.  Returns how many
        bounds moved; a column at the bound it keeps leaves its basis valid.
        """
        allowance = abs(incumbent_value - lp_result.objective_value) + _FIXING_SLACK * max(
            1.0, abs(incumbent_value)
        )
        d = lp_result.reduced_costs
        assert d is not None
        with np.errstate(invalid="ignore"):
            # 0 * inf (a priced-out column with no upper bound) is NaN: kept.
            reach = np.abs(d) * (upper - lower)
        cols = ((reach > allowance) & integer_mask).nonzero()[0]
        if not cols.size:
            return 0
        d = d[cols]
        at = lp_result.values[cols]
        steps = np.floor(allowance / np.abs(d))
        rising = d > 0
        new_upper = np.minimum(upper[cols], at + steps)
        new_lower = np.maximum(lower[cols], at - steps)
        moved = np.where(rising, new_upper < upper[cols], new_lower > lower[cols])
        upper[cols[rising]] = new_upper[rising]
        lower[cols[~rising]] = new_lower[~rising]
        return int(np.count_nonzero(moved))

    @staticmethod
    def _fractional_indices(values: np.ndarray, integer_mask: np.ndarray) -> np.ndarray:
        fractional_part = np.abs(values - np.rint(values))
        return (integer_mask & (fractional_part > _INTEGRALITY_TOLERANCE)).nonzero()[0]

    @staticmethod
    def _choose_branch_variable(
        fractional: np.ndarray, lp_result: LpResult, form: MatrixForm
    ) -> int:
        """Most-fractional branching: the value closest to ``x.5``.

        Columns within :data:`_BRANCH_TIE_TOLERANCE` of the most fractional
        tie (see the module docstring); the tie goes to the largest of their
        penalties — the smaller of each column's two children's, priced under
        the node LP's own bounds ``form`` — then to the lowest index.
        """
        values = lp_result.values[fractional]
        fractions = values - np.floor(values)
        distance = np.abs(fractions - 0.5)
        tied = (distance <= distance.min() + _BRANCH_TIE_TOLERANCE).nonzero()[0]
        if tied.size < 2:
            return int(fractional[tied[0]])
        assert lp_result.basis is not None
        assert lp_result.reduced_costs is not None and lp_result.slack_reduced_costs is not None
        down, up = branching_penalties(
            form, lp_result.basis, lp_result.reduced_costs, lp_result.slack_reduced_costs,
            fractional[tied], fractions[tied],
        )
        return int(fractional[tied[np.minimum(down, up).argmax()]])

    @staticmethod
    def _bound_improves(sense: ObjectiveSense, bound: float, incumbent_value: float) -> bool:
        if sense is ObjectiveSense.MINIMIZE:
            return bound < incumbent_value - _BOUND_TOLERANCE
        return bound > incumbent_value + _BOUND_TOLERANCE

    @staticmethod
    def _weaker_bound(sense: ObjectiveSense, a: float, b: float) -> float:
        """What two objective bounds prove together: the less tight of them."""
        return min(a, b) if sense is ObjectiveSense.MINIMIZE else max(a, b)

    @staticmethod
    def _gap(sense: ObjectiveSense, bound: float, incumbent_value: float) -> float:
        if not math.isfinite(bound) or not math.isfinite(incumbent_value):
            return float("inf")
        denominator = max(1.0, abs(incumbent_value))
        return abs(incumbent_value - bound) / denominator

    @staticmethod
    def _rounding_heuristic(
        model: IlpModel,
        relaxation: np.ndarray,
        integer_mask: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        incumbent_value: float | None,
    ) -> tuple[np.ndarray, float] | None:
        """The first feasible of two roundings of the relaxation — to nearest,
        then down (often feasible for <= constraints) — with its objective
        value, if it beats ``incumbent_value`` (``None``: no incumbent yet).
        Both are priced first: feasibility is checked only if one could win.
        """
        sense = model.objective.sense
        priced = []
        for rounding in (np.rint, np.floor):
            candidate = relaxation.copy()
            candidate[integer_mask] = rounding(relaxation[integer_mask])
            candidate = np.clip(candidate, lower, np.where(np.isinf(upper), candidate, upper))
            value = model.objective_value(candidate)
            improves = incumbent_value is None or sense.better(value, incumbent_value)
            priced.append((candidate, value, improves))
        (nearest, nearest_value, nearest_improves), (down, down_value, down_improves) = priced
        if not (nearest_improves or down_improves):
            return None
        if model.check_feasible(nearest):
            return (nearest, nearest_value) if nearest_improves else None
        if down_improves and model.check_feasible(down):
            return down, down_value
        return None

    def _finish(
        self,
        status: SolverStatus,
        incumbent: np.ndarray | None,
        incumbent_value: float,
        proven_bound: float,
        model: IlpModel,
        stats: SolveStats,
        start: float,
    ) -> Solution:
        """Wrap up: ``status`` is OPTIMAL when the tree was exhausted.

        ``proven_bound`` covers every subtree left unexplored (closed by the
        gap rule, or still open at a limit); everything else was searched, so
        the incumbent bounds it.
        """
        stats.wall_time_seconds = time.perf_counter() - start
        if incumbent is None:
            if status is SolverStatus.OPTIMAL:
                # The tree was exhausted without finding any integral point.
                return Solution.infeasible(stats)
            return Solution.failure(status, stats)
        if status is SolverStatus.OPTIMAL:
            final_status = SolverStatus.OPTIMAL
        else:
            final_status = SolverStatus.FEASIBLE
        sense = model.objective.sense
        stats.best_bound = self._weaker_bound(sense, proven_bound, incumbent_value)
        stats.gap = self._gap(sense, stats.best_bound, incumbent_value)
        return Solution(final_status, incumbent, incumbent_value, stats)


def presolve_form(form: MatrixForm) -> MatrixForm:
    """A stub kept only because the benchmark traces it: returns ``form``.

    Nothing under ``src/`` calls it; :class:`BranchAndBoundSolver` solves the
    model it is given.  The span table of ``benchmarks/e2e/tracing.py`` names
    ``presolve_form`` in this module and reads it on every traced run, so the
    stub stays until ROADMAP item 4 moves the trace into the engine and
    deletes ``tracing.py``.
    """
    return form
