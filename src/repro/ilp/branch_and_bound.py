"""Branch-and-bound integer linear programming solver.

This is the library's stand-in for the paper's black-box ILP solver (CPLEX).
It implements a classic LP-relaxation branch-and-bound:

1. Solve the LP relaxation of the node.
2. If the relaxation is infeasible or its bound cannot beat the incumbent,
   prune the node.
3. If the relaxation is integral, update the incumbent.
4. Otherwise pick a fractional variable (most-fractional or pseudo-cost
   branching) and create two child nodes with tightened bounds.

Node selection is best-bound by default (good bounds early) with a
depth-first option for memory-constrained runs.  A rounding heuristic tries
to convert fractional relaxations into incumbents early, which greatly speeds
up the package-query instances (0/1-style multiplicity variables).

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
two-phase solve.  The basis carries the parent's basis inverse by reference
(both children share the one array; a pivot writes a new one), so an open
node holds no per-pivot history and a child starts without reinverting — the
simplex checks the inherited inverse against its own matrix and rebuilds it
every ``_REFACTOR_INTERVAL`` pivots along the chain.  A caller holding a basis
from a related earlier solve (same matrix shape) can seed the *root* node the
same way through the ``warm_start`` argument of :meth:`BranchAndBoundSolver.solve`,
and the root relaxation's own basis is exported on the returned
:attr:`~repro.ilp.status.Solution.root_basis` for the next related solve.
``SolveStats.warm_start_hits`` / ``simplex_iterations`` expose how often the
fast path is taken.

**Presolve.**  Before the root LP, the matrix form is reduced by
:func:`~repro.ilp.presolve.presolve_form` (bound propagation with integrality
rounding, fixed-variable elimination, redundant-row removal).  The reduction
is computed once and shared by the whole tree: nodes keep their bounds in the
original variable space, and :meth:`~repro.ilp.presolve.Postsolve
.reduce_bounds` projects them into the reduced space per node (with one extra
propagation pass over the branched bounds when some reduced row, or the
incumbent's cutoff row, can bind inside them — ``SolveStats
.node_propagations`` counts those).  Node LP values and objectives
are expanded back through the postsolve record, exported root bases are
lifted to the original column space, and caller-supplied root warm starts are
projected into the reduced space — so presolve is invisible to everything
downstream except the ``vars_fixed`` / ``rows_removed`` / ``presolve_ms``
statistics.

``SolverLimits`` intentionally includes ``max_variables``: CPLEX loads the
entire problem in memory and the paper's Figure 5 shows DIRECT failing on
large Galaxy queries for exactly that reason.  Setting a variable cap lets the
benchmark harness reproduce the failure regime deterministically.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import SolverError
from repro.ilp.lp_backend import LpResult, solve_lp_form
from repro.ilp.matrix_form import MatrixForm
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.presolve import Postsolve, presolve_form
from repro.ilp.simplex import SimplexBasis
from repro.ilp.status import Solution, SolveStats, SolverStatus

_INTEGRALITY_TOLERANCE = 1e-6
_BOUND_TOLERANCE = 1e-9
#: Relative slack added to the incumbent-derived objective cutoff so that
#: equal-objective optima survive the dual reduction (ties must not be cut:
#: the differential harness asserts NAIVE == DIRECT on the solution itself).
_CUTOFF_SLACK = 1e-6


class BranchingRule(enum.Enum):
    """How to choose the fractional variable to branch on."""

    MOST_FRACTIONAL = "most_fractional"
    PSEUDO_COST = "pseudo_cost"
    FIRST_FRACTIONAL = "first_fractional"


class NodeSelection(enum.Enum):
    """Order in which open branch-and-bound nodes are explored."""

    BEST_BOUND = "best_bound"
    DEPTH_FIRST = "depth_first"


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
    #: value (``priority`` is the depth under DEPTH_FIRST, so it cannot serve).
    bound: float = field(compare=False)
    lower_bounds: np.ndarray = field(compare=False)
    upper_bounds: np.ndarray = field(compare=False)
    parent_basis: SimplexBasis | None = field(compare=False, default=None)


class BranchAndBoundSolver:
    """Exact ILP solver with LP-relaxation branch and bound."""

    def __init__(
        self,
        limits: SolverLimits | None = None,
        branching: BranchingRule = BranchingRule.MOST_FRACTIONAL,
        node_selection: NodeSelection = NodeSelection.BEST_BOUND,
        enable_rounding_heuristic: bool = True,
    ):
        self.limits = limits or SolverLimits()
        self.branching = branching
        self.node_selection = node_selection
        self.enable_rounding_heuristic = enable_rounding_heuristic

    # -- public API ----------------------------------------------------------------

    def solve(self, model: IlpModel, warm_start: SimplexBasis | None = None) -> Solution:
        """Solve ``model`` to optimality (or until a limit is hit).

        ``warm_start`` optionally seeds the *root* LP relaxation with a basis
        from a related earlier solve (same constraint-matrix shape, e.g. a
        SKETCHREFINE backtracking retry); a stale basis silently falls back
        to a cold solve.
        """
        stats = SolveStats()
        capacity_status = self._check_capacity(model)
        if capacity_status is not None:
            return Solution.failure(capacity_status, stats)

        start = time.perf_counter()
        form = model.to_matrix()
        n = model.num_variables

        if n == 0:
            # Degenerate: empty model is trivially feasible with empty assignment.
            stats.wall_time_seconds = time.perf_counter() - start
            return Solution(SolverStatus.OPTIMAL, np.empty(0), 0.0, stats)

        lower, upper, integer_mask = model.bound_and_integrality_arrays()
        # Nodes mutate their bounds copies; the model's arrays are shared.
        root_lower = lower.copy()
        root_upper = upper.copy()

        # Root presolve: shrink the form once, then derive every node from the
        # reduced matrices.  Node bounds stay in the *original* variable space
        # (branching indices, integrality and incumbents all live there);
        # _solve_node_lp projects them through the postsolve record per node.
        postsolve: Postsolve | None = None
        solve_form = form
        reduction = presolve_form(form, integer_mask=integer_mask)
        stats.vars_fixed = reduction.stats.vars_fixed
        stats.rows_removed = reduction.stats.rows_removed
        stats.presolve_ms = reduction.stats.presolve_ms
        if not reduction.feasible:
            stats.wall_time_seconds = time.perf_counter() - start
            return Solution.infeasible(stats)
        if reduction.form is not form:
            postsolve = reduction.postsolve
            solve_form = reduction.form
            if postsolve.num_reduced_vars == 0:
                # Presolve decided every variable; no LP needed.
                stats.wall_time_seconds = time.perf_counter() - start
                candidate = postsolve.restore(np.empty(0))
                if model.check_feasible(candidate):
                    value = model.objective_value(candidate)
                    stats.best_bound = value
                    stats.incumbent_updates = 1
                    stats.gap = 0.0
                    return Solution(SolverStatus.OPTIMAL, candidate, value, stats)
                return Solution.infeasible(stats)

        sense = model.objective.sense
        incumbent: np.ndarray | None = None
        incumbent_value = sense.worst_value

        pseudo_up = np.ones(n)
        pseudo_down = np.ones(n)
        pseudo_counts = np.zeros(n)

        counter = itertools.count()
        heap: list[_Node] = []
        if warm_start is not None and postsolve is not None:
            # The caller's basis lives in the original column space; project it
            # into this solve's reduced space (None -> cold root, as for any
            # stale warm start).
            warm_start = postsolve.reduce_basis(warm_start)
        root = _Node(priority=0.0, sequence=next(counter), depth=0,
                     bound=-sense.worst_value,
                     lower_bounds=root_lower, upper_bounds=root_upper,
                     parent_basis=warm_start)
        heapq.heappush(heap, root)
        root_basis: SimplexBasis | None = None
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

            # Dual reduction from the incumbent: any solution worth keeping
            # beats (or ties) the incumbent objective, so node presolve may
            # propagate that bound as one more <= row and fix non-improving
            # variables before the LP runs.
            cutoff = self._objective_cutoff_min(sense, incumbent, incumbent_value, postsolve)
            if cutoff is not None:
                stats.objective_cutoffs += 1
            lp_result = self._solve_node_lp(solve_form, node, postsolve, cutoff)
            self._accumulate_lp_stats(stats, lp_result)
            if lp_result.status is SolverStatus.NUMERICAL_ERROR and node.parent_basis is not None:
                # The warm basis corrupted the solve; retry the node cold
                # rather than pruning (or aborting) on numerical noise.
                stats.numerical_retries += 1
                node.parent_basis = None
                lp_result = self._solve_node_lp(solve_form, node, postsolve, cutoff)
                self._accumulate_lp_stats(stats, lp_result)
            if lp_result.status is SolverStatus.NUMERICAL_ERROR:
                raise SolverError(
                    f"LP relaxation failed numerically at node depth {node.depth}"
                )
            if postsolve is not None:
                stats.node_propagations = postsolve.propagations
            if node.depth == 0 and lp_result.basis is not None:
                root_basis = (
                    postsolve.restore_basis(lp_result.basis)
                    if postsolve is not None
                    else lp_result.basis
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

            if self.enable_rounding_heuristic:
                heuristic = self._rounding_heuristic(model, lp_result.values, integer_mask,
                                                     node.lower_bounds, node.upper_bounds)
                if heuristic is not None:
                    value = model.objective_value(heuristic)
                    if incumbent is None or sense.better(value, incumbent_value):
                        incumbent = heuristic
                        incumbent_value = value
                        stats.incumbent_updates += 1

            # Optimality-gap stop.
            if incumbent is not None and self._gap(sense, bound, incumbent_value) <= self.limits.relative_gap:
                proven_bound = self._weaker_bound(sense, proven_bound, bound)
                continue

            branch_index = self._choose_branch_variable(
                fractional, lp_result.values, pseudo_up, pseudo_down, pseudo_counts
            )
            branch_value = lp_result.values[branch_index]
            floor_value = np.floor(branch_value)

            self._update_pseudo_costs(
                pseudo_up, pseudo_down, pseudo_counts, branch_index, branch_value
            )

            # Children inherit this node's optimal basis: they differ by one
            # tightened bound, so their LPs dual-reoptimise from it.
            down = _Node(
                priority=self._node_priority(sense, bound, node.depth + 1),
                sequence=next(counter),
                depth=node.depth + 1,
                bound=bound,
                lower_bounds=node.lower_bounds.copy(),
                upper_bounds=node.upper_bounds.copy(),
                parent_basis=lp_result.basis,
            )
            down.upper_bounds[branch_index] = floor_value

            up = _Node(
                priority=self._node_priority(sense, bound, node.depth + 1),
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

        return self._finish(
            status, incumbent, incumbent_value, proven_bound, model, stats, start, root_basis
        )

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
        stats.refactorizations += lp_result.refactorizations

    @staticmethod
    def _objective_cutoff_min(
        sense: ObjectiveSense,
        incumbent: np.ndarray | None,
        incumbent_value: float,
        postsolve: Postsolve | None,
    ) -> float | None:
        """Incumbent objective as a reduced-space, minimisation-sense cutoff.

        ``None`` (no cutoff) until an incumbent exists; the relative
        :data:`_CUTOFF_SLACK` keeps alternative optima of equal objective
        inside the cut region.
        """
        if incumbent is None or postsolve is None or not np.isfinite(incumbent_value):
            return None
        value_min = incumbent_value if sense is ObjectiveSense.MINIMIZE else -incumbent_value
        cutoff = value_min - postsolve.objective_offset_min
        return cutoff + _CUTOFF_SLACK * max(1.0, abs(cutoff))

    def _solve_node_lp(
        self,
        form: MatrixForm,
        node: _Node,
        postsolve: Postsolve | None = None,
        objective_cutoff_min: float | None = None,
    ) -> LpResult:
        """Solve one node's LP relaxation, in reduced space when presolved.

        ``form`` is the (possibly reduced) shared matrix form.  Node bounds
        are kept in the original variable space and projected per node —
        optionally strengthened by the incumbent objective cutoff; the
        returned values and objective are expanded back to the original space
        while the basis stays reduced — children consume it against the same
        reduced form.
        """
        if postsolve is None:
            node_form = form.with_bounds(node.lower_bounds, node.upper_bounds)
        else:
            reduced_lower, reduced_upper = postsolve.reduce_bounds(
                node.lower_bounds,
                node.upper_bounds,
                objective_cutoff_min=objective_cutoff_min,
            )
            node_form = form.with_bounds(reduced_lower, reduced_upper)
        result = solve_lp_form(node_form, warm_start=node.parent_basis)
        if postsolve is None or not result.status.has_solution:
            return result
        return replace(
            result,
            values=postsolve.restore(result.values),
            objective_value=result.objective_value + postsolve.objective_offset,
        )

    @staticmethod
    def _fractional_indices(values: np.ndarray, integer_mask: np.ndarray) -> np.ndarray:
        fractional_part = np.abs(values - np.rint(values))
        return np.nonzero(integer_mask & (fractional_part > _INTEGRALITY_TOLERANCE))[0]

    def _choose_branch_variable(
        self,
        fractional: np.ndarray,
        values: np.ndarray,
        pseudo_up: np.ndarray,
        pseudo_down: np.ndarray,
        pseudo_counts: np.ndarray,
    ) -> int:
        if self.branching is BranchingRule.FIRST_FRACTIONAL:
            return int(fractional[0])
        fractions = values[fractional] - np.floor(values[fractional])
        if self.branching is BranchingRule.MOST_FRACTIONAL:
            scores = -np.abs(fractions - 0.5)
            return int(fractional[int(np.argmax(scores))])
        # Pseudo-cost branching: estimated degradation product (larger is better).
        up_cost = pseudo_up[fractional] * (1.0 - fractions)
        down_cost = pseudo_down[fractional] * fractions
        scores = np.maximum(up_cost, 1e-6) * np.maximum(down_cost, 1e-6)
        return int(fractional[int(np.argmax(scores))])

    @staticmethod
    def _update_pseudo_costs(
        pseudo_up: np.ndarray,
        pseudo_down: np.ndarray,
        pseudo_counts: np.ndarray,
        index: int,
        value: float,
    ) -> None:
        fraction = value - np.floor(value)
        pseudo_counts[index] += 1
        # Simple exponential smoothing of observed fractionalities.
        pseudo_up[index] = 0.7 * pseudo_up[index] + 0.3 * (1.0 - fraction)
        pseudo_down[index] = 0.7 * pseudo_down[index] + 0.3 * fraction

    def _node_priority(self, sense: ObjectiveSense, bound: float, depth: int) -> float:
        if self.node_selection is NodeSelection.DEPTH_FIRST:
            return -float(depth)
        # Best bound first: min-heap, so minimisation uses the bound directly
        # and maximisation uses its negation.
        return bound if sense is ObjectiveSense.MINIMIZE else -bound

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
        if not np.isfinite(bound) or not np.isfinite(incumbent_value):
            return float("inf")
        denominator = max(1.0, abs(incumbent_value))
        return abs(incumbent_value - bound) / denominator

    def _rounding_heuristic(
        self,
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
        if model.check_feasible(candidate):
            return candidate
        # Second attempt: floor everything (often feasible for <= constraints).
        candidate = relaxation.copy()
        candidate[integer_mask] = np.floor(relaxation[integer_mask])
        candidate = np.clip(candidate, lower, np.where(np.isinf(upper), candidate, upper))
        if model.check_feasible(candidate):
            return candidate
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
        root_basis: SimplexBasis | None = None,
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
                solution = Solution.infeasible(stats)
            else:
                solution = Solution.failure(status, stats)
            solution.root_basis = root_basis
            return solution
        if status is SolverStatus.OPTIMAL:
            final_status = SolverStatus.OPTIMAL
        else:
            final_status = SolverStatus.FEASIBLE
        sense = model.objective.sense
        stats.best_bound = self._weaker_bound(sense, proven_bound, incumbent_value)
        stats.gap = self._gap(sense, stats.best_bound, incumbent_value)
        return Solution(final_status, incumbent, incumbent_value, stats, root_basis=root_basis)
