"""The SKETCHREFINE evaluation strategy (Section 4 of the paper).

SKETCHREFINE answers a package query approximately in two phases over an
offline partitioning of the input relation:

* **SKETCH** — solve the query over the representative relation R̃ (one
  centroid per group), with extra constraints capping how many times each
  representative may be picked (at most ``|G_j| · (K + 1)`` for REPEAT K).
  The resulting *sketch package* fixes how much of the answer should come
  from each group.
* **REFINE** — replace the chosen representatives with actual tuples, one
  small ILP per group, each constraint's bounds shifted by the contribution
  of everything else (the refined groups' tuples plus the other groups'
  representatives).  The paper notes these per-group ILPs are embarrassingly
  parallel; this evaluator runs them as a **round-based refine with
  deterministic merge**: every round, the refine ILPs of *all* still-pending
  groups are solved one after the other against the same fixed context.
  Results are then merged in **ascending group-id order**: a group's solution
  is accepted only if the mixed package (accepted groups' actual tuples +
  remaining groups' representatives) still satisfies every global
  constraint; the first feasible candidate in merge order always merges (its
  ILP enforced exactly that residual), so every round with a feasible result
  makes progress.  Rejected groups are deferred and re-solved next round
  against the updated context.  When a round produces no acceptable group
  (all refine ILPs infeasible) the evaluator backtracks in the spirit of
  Algorithm 2: the failed groups are prioritised to the front of the merge
  order and refinement restarts from the sketch, until an ordering succeeds,
  the ordering repeats, or ``_MAX_BACKTRACKS`` is exhausted.

  Rounds run in-process because a refine solve is small, about 5 ms: two
  worker processes on two CPUs ran the ``refine_20k`` benchmark queries at
  0.79–0.92× of the serial speed, dispatch costing more than overlap saved.

When the sketch itself is infeasible, the *hybrid sketch* mitigation of
Section 4.4 is always applied (matching the experimental setup in Section
5.1): the sketch is merged with one group's refine query, trying groups in
turn, so a single awkward centroid cannot make the whole query look
infeasible.  When every hybrid sketch, or refinement under every group
ordering, fails too, the evaluator raises a possibly-false infeasibility; the
engine's AUTO answers that query with DIRECT, the limit Section 4.4's group
merging ends in.

The PaQL→ILP translation is DIRECT's: the query is linearised once by
:func:`repro.core.translator.linearise` (one column per eligible tuple) and
every ILP here comes out of :func:`repro.core.translator.build_model`.  A
:class:`PartitionedQuery` holds that linearisation next to its reduction to
per-group means (the centroid value of a linear function is the mean of its
per-tuple values): the sketch is the reduced linearisation under the group
caps, a hybrid sketch swaps one group's column for its tuples' columns, and a
refine query is the slice of one group's columns with residual right-hand
sides.  Setting a query up is a fixed number of array passes, none per
group: the columns are sorted by group once (a group is a slice of them),
and the reduction is one ``np.bincount`` per constraint row and one for the
objective, each summing a group's columns one after the other in ascending
column order.  That order is part of the contract, not merely the value:
another order moves the last bits of R̃, and with them the sketch's and the
refine queries' branch-and-bound trees (:meth:`Linearisation.group_means`).
Rows, groups and assignments are addressed by linearisation column
throughout and mapped back to table rows once, when the package is built.

Every refine ILP, a group's retry included, is one black-box ``solve`` of its
own model (:func:`run_solve_task`); the evaluator keeps no solver state from
one solve to the next.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.base_relations import compute_base_relation
from repro.core.package import Package
from repro.core.translator import Linearisation, build_model, linearise, repetition_cap
from repro.dataset.table import Table
from repro.errors import (
    EvaluationError,
    InfeasiblePackageQueryError,
    SolverCapacityError,
)
from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.model import ConstraintSense, IlpModel
from repro.ilp.status import Solution, SolveStats, SolverStatus
from repro.paql.ast import PackageQuery
from repro.partition.partitioning import Partitioning

#: Seed for the (arbitrary) group order the hybrid-sketch fallback tries.  The
#: refine merge order itself is fixed: ascending group id.
_HYBRID_ORDER_SEED = 0
#: Safety cap on the number of backtracking restarts before giving up.
_MAX_BACKTRACKS = 1000


@dataclass
class SketchRefineStats:
    """Timing and search statistics for one SKETCHREFINE evaluation."""

    sketch_seconds: float = 0.0
    refine_seconds: float = 0.0
    total_seconds: float = 0.0
    num_groups: int = 0
    groups_in_sketch: int = 0
    refine_queries: int = 0
    backtracks: int = 0
    used_hybrid_sketch: bool = False
    sketch_objective: float = float("nan")
    solver_lp_solves: int = 0
    """LP relaxation solves summed over the sketch and every refine ILP."""
    solver_simplex_iterations: int = 0
    """Simplex pivots summed over all solves."""
    solver_nodes_explored: int = 0
    """Branch-and-bound nodes summed over the sketch and every refine ILP."""
    solver_warm_start_hits: int = 0
    """LP solves that reoptimised from a parent basis."""
    two_phase_starts: int = 0
    """Cold LP solves that went two-phase instead of dual from the slack basis."""
    refine_rounds: int = 0
    """Refine rounds executed (each solves every then-pending group)."""
    merge_deferrals: int = 0
    """Refine solutions rejected by the deterministic merge check and
    re-solved in a later round against the updated context."""
    refine_workers: int = 1
    """Processes the refine solves ran in: always 1, refine rounds run
    in-process (``benchmarks/e2e/run.py`` still reports it)."""
    refine_parallel_tasks: int = 0
    """Refine solves run in other processes: always 0 (``benchmarks/e2e/run.py``
    still reports it)."""
    partitioning_version: int = 0
    """Table version the partitioning this evaluation ran over describes."""
    partitioning_maintenance: dict = field(default_factory=dict)
    """Cumulative incremental-maintenance profile of that partitioning
    (deltas applied, rows inserted/deleted, groups created/retired/re-split,
    maintenance seconds) — all zero for a fresh offline build."""


@dataclass
class PartitionedQuery:
    """A query linearised once over a partitioned relation.

    Everything SKETCH and REFINE solve is built from this: the per-tuple
    linearisation, which of its columns fall in which group, and the same
    linearisation reduced to one mean column per group (column ``g`` of
    ``means`` is group ``g``'s representative).
    """

    query: PackageQuery
    rows: np.ndarray
    """The table row each linearisation column stands for (the eligible rows)."""
    linearisation: Linearisation
    columns: np.ndarray
    """Linearisation columns ordered by group, ascending within a group."""
    boundaries: np.ndarray
    """``columns[boundaries[g] : boundaries[g + 1]]`` are group ``g``'s columns
    (none when no tuple of the group satisfies the base predicate)."""
    means: Linearisation
    eligible_groups: np.ndarray
    """Groups with at least one eligible tuple, ascending."""

    @classmethod
    def build(
        cls, table: Table, query: PackageQuery, partitioning: Partitioning
    ) -> "PartitionedQuery":
        rows = compute_base_relation(table, query).eligible_indices
        linearisation = linearise(table, query, rows)
        column_of_row = np.full(table.num_rows, -1, dtype=np.int64)
        column_of_row[rows] = np.arange(len(rows))
        order, _ = partitioning.rows_by_group()
        columns = column_of_row[order]
        columns = columns[columns >= 0]
        group_of_column = partitioning.group_ids[rows]
        counts = np.bincount(group_of_column, minlength=partitioning.num_groups)
        return cls(
            query,
            rows,
            linearisation,
            columns,
            np.concatenate(([0], np.cumsum(counts))),
            linearisation.group_means(group_of_column, counts),
            np.flatnonzero(counts),
        )

    def group_columns(self, gid: int) -> np.ndarray:
        """Linearisation columns of group ``gid``, ascending."""
        return self.columns[self.boundaries[gid] : self.boundaries[gid + 1]]

    def sketch_model(self, hybrid_group: int | None = None) -> IlpModel:
        """The SKETCH ILP: one column per eligible group, capped at ``|G_j| · (K + 1)``.

        With ``hybrid_group`` set, that group's column is replaced, in place,
        by the columns of its tuples (Section 4.4's hybrid sketch).
        """
        eligible = self.eligible_groups
        cap = repetition_cap(self.query)
        sizes = np.diff(self.boundaries)[eligible]
        name = f"sketch_{self.query.name or self.query.relation}"
        if hybrid_group is None:
            return build_model(self.means.take(eligible), sizes * cap, name)
        split = int(np.searchsorted(eligible, hybrid_group))
        tuples = self.group_columns(hybrid_group)
        sketch = Linearisation.concatenate(
            [
                self.means.take(eligible[:split]),
                self.linearisation.take(tuples),
                self.means.take(eligible[split + 1 :]),
            ]
        )
        upper = np.concatenate(
            [sizes[:split] * cap, np.full(len(tuples), cap), sizes[split + 1 :] * cap]
        )
        return build_model(sketch, upper, name)

    def refine_model(self, gid: int, fixed: np.ndarray) -> IlpModel:
        """Q[G_j]: pick real tuples of group ``gid`` given the constraint-row
        totals ``fixed`` of everything else in the package."""
        refine = self.linearisation.take(
            self.group_columns(gid), rhs=self.linearisation.rhs - fixed
        )
        return build_model(refine, repetition_cap(self.query), f"refine_{gid}")


class SketchRefineEvaluator:
    """Scalable approximate package evaluation over an offline partitioning."""

    def __init__(self, solver=None):
        """Args:
            solver: Black-box ILP solver (``solve(IlpModel) -> Solution``);
                defaults to :class:`BranchAndBoundSolver`.
        """
        self.solver = solver or BranchAndBoundSolver()
        self.last_stats = SketchRefineStats()

    # -- public API -----------------------------------------------------------------------

    def evaluate(
        self,
        table: Table,
        query: PackageQuery,
        partitioning: Partitioning,
    ) -> Package:
        """Return an approximately-optimal package for ``query`` over ``table``.

        Args:
            table: The source relation.
            query: The package query.
            partitioning: Offline partitioning of ``table``.

        Raises:
            InfeasiblePackageQueryError: If no feasible package was found.
                This may be a *false* infeasibility (the flag
                ``false_negative_possible`` is set) when the true query is
                feasible but the sketch and every hybrid sketch, or every
                refinement order, failed; ``method="auto"`` at the engine
                answers such a query with DIRECT.
        """
        if partitioning.table is not table:
            raise EvaluationError(
                "the partitioning was built for a different table instance"
            )
        start = time.perf_counter()
        stats = SketchRefineStats(
            num_groups=partitioning.num_groups,
            partitioning_version=partitioning.version,
            partitioning_maintenance=partitioning.maintenance.as_dict(),
        )
        self.last_stats = stats

        problem = PartitionedQuery.build(table, query, partitioning)
        if not len(problem.eligible_groups):
            raise InfeasiblePackageQueryError("no tuple satisfies the base predicate")

        # ---- SKETCH ----
        sketch_start = time.perf_counter()
        sketch_multiplicities, initial_assignments, used_hybrid = self._sketch(problem)
        stats.sketch_seconds = time.perf_counter() - sketch_start
        stats.used_hybrid_sketch = used_hybrid

        # ---- REFINE ----
        refine_start = time.perf_counter()
        assignments = self._refine_root(
            problem, sketch_multiplicities, initial_assignments, stats
        )
        stats.refine_seconds = time.perf_counter() - refine_start
        stats.total_seconds = time.perf_counter() - start

        combined: dict[int, int] = {}
        for group_assignment in assignments.values():
            for column, multiplicity in group_assignment.items():
                combined[int(problem.rows[column])] = multiplicity
        return Package.from_multiplicity_map(table, combined)

    # -- SKETCH -------------------------------------------------------------------------------

    def _sketch(
        self, problem: PartitionedQuery
    ) -> tuple[dict[int, int], dict[int, dict[int, int]], bool]:
        """Solve the sketch query.

        Returns ``(sketch multiplicities per group, pre-refined assignments,
        used_hybrid)``.  Pre-refined assignments are non-empty only when the
        hybrid-sketch fallback solved one group with original tuples.
        """
        solution = self._solve_sketch_model(problem, None)
        hybrid_group: int | None = None
        if solution is None:
            # Hybrid sketch: replace one group's representative with its
            # original tuples and re-try, in arbitrary group order (Section 4.4).
            order = problem.eligible_groups.tolist()
            np.random.default_rng(_HYBRID_ORDER_SEED).shuffle(order)
            for hybrid_group in order:
                solution = self._solve_sketch_model(problem, hybrid_group)
                if solution is not None:
                    break
        if solution is None:
            raise InfeasiblePackageQueryError(
                "sketch query (and every hybrid sketch) is infeasible; "
                'method="auto" answers such a query with DIRECT',
                false_negative_possible=True,
            )
        counts, hybrid_assignment = solution
        eligible = problem.eligible_groups
        # Summed left to right over the groups (cumsum), not pairwise.
        contributions = problem.means.objective[eligible] * counts
        self.last_stats.sketch_objective = float(np.cumsum(contributions)[-1])
        self.last_stats.groups_in_sketch = int(np.count_nonzero(counts))
        assignments = (
            {hybrid_group: hybrid_assignment}
            if hybrid_group is not None and hybrid_assignment
            else {}
        )
        return dict(zip(eligible.tolist(), counts.tolist())), assignments, hybrid_group is not None

    def _solve_sketch_model(
        self, problem: PartitionedQuery, hybrid_group: int | None
    ) -> tuple[np.ndarray, dict[int, int]] | None:
        """Build and solve the (possibly hybrid) sketch ILP.

        Returns ``None`` when infeasible; otherwise the multiplicity of each
        eligible group, ascending (0 for the hybrid group), and, for a hybrid
        sketch, the per-column assignment of the hybrid group.
        """
        model = problem.sketch_model(hybrid_group)
        solution = self.solver.solve(model)
        self._absorb_solve_stats(getattr(solution, "stats", None))
        if solution.status is SolverStatus.INFEASIBLE:
            return None
        if solution.status is SolverStatus.CAPACITY_EXCEEDED:
            raise SolverCapacityError(
                f"sketch problem with {model.num_variables} variables exceeds solver capacity"
            )
        if not solution.has_solution:
            raise EvaluationError(f"sketch solve failed with status {solution.status.value}")

        counts = solution.integral_values()
        if hybrid_group is None:
            return counts, {}
        # The hybrid group's tuples sit where its column would (sketch_model).
        split = int(np.searchsorted(problem.eligible_groups, hybrid_group))
        tuples = problem.group_columns(hybrid_group)
        tuple_counts = counts[split : split + len(tuples)]
        chosen = tuple_counts > 0
        hybrid_assignment = dict(zip(tuples[chosen].tolist(), tuple_counts[chosen].tolist()))
        counts = np.concatenate([counts[:split], [0], counts[split + len(tuples) :]])
        return counts, hybrid_assignment

    # -- REFINE ---------------------------------------------------------------------------------

    def _refine_root(
        self,
        problem: PartitionedQuery,
        sketch_multiplicities: dict[int, int],
        initial_assignments: dict[int, dict[int, int]],
        stats: SketchRefineStats,
    ) -> dict[int, dict[int, int]]:
        """Round-based refinement with deterministic merge (see module docstring).

        Each round solves the refine ILPs of every still-pending group against
        the same fixed context, then merges the results in ascending group-id
        order (prioritised groups first after a backtracking restart),
        accepting a solution only while the mixed package stays feasible.
        A round in which nothing merges — every pending refine ILP came back
        infeasible — is a dead end: refinement restarts from the sketch with
        the failed groups promoted to the front of the merge order,
        Algorithm 2's greedy backtracking recast as a restart.  Orderings
        never repeat (the ``tried`` set), so the loop terminates even without
        the ``_MAX_BACKTRACKS`` cap.
        """
        # The sketch's groups come in ascending order (``_sketch``).
        base_pending = [
            gid
            for gid, count in sketch_multiplicities.items()
            if count > 0 and gid not in initial_assignments
        ]
        if not base_pending:
            return dict(initial_assignments)

        priority: tuple[int, ...] = ()
        tried: set[tuple[int, ...]] = set()
        while True:
            tried.add(priority)
            assignments = dict(initial_assignments)
            pending = list(base_pending)
            dead_end: list[int] | None = None
            while pending:
                stats.refine_rounds += 1
                prioritised = set(priority)
                order = [g for g in priority if g in pending] + [
                    g for g in pending if g not in prioritised
                ]
                results = self._solve_refine_round(
                    problem, sketch_multiplicities, assignments, pending, order, stats
                )
                accepted, infeasible = self._merge_round(
                    order, results, problem, sketch_multiplicities, assignments, pending, stats
                )
                if not accepted:
                    dead_end = infeasible
                    break
                pending = [g for g in pending if g not in assignments]
            if dead_end is None:
                return assignments
            stats.backtracks += 1
            next_priority = tuple(sorted(dead_end)) + tuple(
                g for g in priority if g not in dead_end
            )
            if stats.backtracks > _MAX_BACKTRACKS or next_priority in tried:
                raise InfeasiblePackageQueryError(
                    "refinement failed for every group ordering; "
                    'method="auto" answers such a query with DIRECT',
                    false_negative_possible=True,
                )
            priority = next_priority

    def _solve_refine_round(
        self,
        problem: PartitionedQuery,
        sketch_multiplicities: dict[int, int],
        assignments: dict[int, dict[int, int]],
        pending: list[int],
        order: list[int],
        stats: SketchRefineStats,
    ) -> dict[int, Solution]:
        """Solve every pending group's refine ILP against the round's context."""
        results: dict[int, Solution] = {}
        for gid in order:
            model = self._build_refine_model(
                problem, sketch_multiplicities, assignments, pending, gid
            )
            solution = run_solve_task(self.solver, model)
            self._absorb_solve_stats(solution.stats)
            results[gid] = solution
        stats.refine_queries += len(order)
        return results

    def _build_refine_model(
        self,
        problem: PartitionedQuery,
        sketch_multiplicities: dict[int, int],
        assignments: dict[int, dict[int, int]],
        pending: list[int],
        gid: int,
    ) -> IlpModel:
        """Build Q[G_j]: pick real tuples for group ``gid`` given everything else fixed."""
        # Contribution of the fixed part p̄_j: refined groups' tuples plus the
        # other unrefined groups' representatives at their sketch multiplicities.
        fixed_constraint = np.zeros(problem.linearisation.num_constraints)
        for other_gid, assignment in assignments.items():
            if other_gid == gid or not assignment:
                continue
            fixed_constraint += self._assignment_contribution(problem, assignment)
        for other_gid in pending:
            if other_gid == gid or other_gid in assignments:
                continue
            count = sketch_multiplicities.get(other_gid, 0)
            if count:
                fixed_constraint += count * problem.means.constraint_matrix[:, other_gid]
        return problem.refine_model(gid, fixed_constraint)

    def _merge_round(
        self,
        order: list[int],
        results: dict[int, Solution],
        problem: PartitionedQuery,
        sketch_multiplicities: dict[int, int],
        assignments: dict[int, dict[int, int]],
        pending: list[int],
        stats: SketchRefineStats,
    ) -> tuple[list[int], list[int]]:
        """Deterministically merge one round's solutions into ``assignments``.

        Walks ``order`` (ascending group id, prioritised groups first) and
        accepts each group's solution only if the mixed package — accepted
        groups' actual tuples plus the remaining groups' representatives —
        still satisfies every global constraint.  The first feasible candidate
        always merges: its ILP enforced exactly the residual of the unchanged
        round context, so a round makes progress whenever any pending group
        is refinable.  Rejected groups are deferred to the next round.

        Returns ``(accepted group ids, infeasible group ids)``; mutates
        ``assignments`` in place.
        """
        # Constraint-row totals of the current mix: every assignment's actual
        # tuples plus every unassigned pending group's representatives.
        group_means = problem.means.constraint_matrix
        mix = np.zeros(problem.linearisation.num_constraints)
        for assignment in assignments.values():
            mix += self._assignment_contribution(problem, assignment)
        for gid in pending:
            mix += sketch_multiplicities[gid] * group_means[:, gid]

        accepted: list[int] = []
        infeasible: list[int] = []
        for gid in order:
            result = results[gid]
            if result.status is SolverStatus.INFEASIBLE:
                infeasible.append(gid)
                continue
            if result.status is SolverStatus.CAPACITY_EXCEEDED:
                raise SolverCapacityError(
                    f"refine problem for group {gid} exceeds solver capacity"
                )
            if not result.has_solution:
                raise EvaluationError(
                    f"refine solve for group {gid} failed with status {result.status.value}"
                )
            values = result.integral_values()
            chosen = values > 0
            assignment = dict(
                zip(problem.group_columns(gid)[chosen].tolist(), values[chosen].tolist())
            )
            candidate = (
                mix
                - sketch_multiplicities[gid] * group_means[:, gid]
                + self._assignment_contribution(problem, assignment)
            )
            if accepted and not self._mix_feasible(problem.linearisation, candidate):
                stats.merge_deferrals += 1
                continue
            mix = candidate
            assignments[gid] = assignment
            accepted.append(gid)
        return accepted, infeasible

    @staticmethod
    def _assignment_contribution(
        problem: PartitionedQuery, assignment: dict[int, int]
    ) -> np.ndarray:
        """Constraint-row totals contributed by one group's tuple assignment."""
        if not assignment:
            return np.zeros(problem.linearisation.num_constraints)
        columns = np.fromiter(assignment.keys(), dtype=np.int64, count=len(assignment))
        multiplicities = np.fromiter(
            assignment.values(), dtype=np.float64, count=len(assignment)
        )
        return problem.linearisation.constraint_matrix[:, columns] @ multiplicities

    @staticmethod
    def _mix_feasible(
        linearisation: Linearisation, mix: np.ndarray, tolerance: float = 1e-6
    ) -> bool:
        """Whether the mixed package satisfies every global constraint.

        Uses a relative tolerance so legitimate solver-precision noise on
        large right-hand sides is not mistaken for a violation.
        """
        for value, sense, rhs in zip(
            mix.tolist(), linearisation.senses, linearisation.rhs.tolist()
        ):
            slack = tolerance * max(1.0, abs(rhs))
            if sense is ConstraintSense.LE:
                if value > rhs + slack:
                    return False
            elif sense is ConstraintSense.GE:
                if value < rhs - slack:
                    return False
            else:
                if abs(value - rhs) > slack:
                    return False
        return True

    def _absorb_solve_stats(self, stats_obj: SolveStats | None) -> None:
        """Fold one solve's solver statistics into the running totals."""
        if stats_obj is None:
            return
        self.last_stats.solver_lp_solves += stats_obj.lp_solves
        self.last_stats.solver_simplex_iterations += stats_obj.simplex_iterations
        self.last_stats.solver_nodes_explored += stats_obj.nodes_explored
        self.last_stats.solver_warm_start_hits += stats_obj.warm_start_hits
        self.last_stats.two_phase_starts += stats_obj.two_phase_starts


def run_solve_task(solver, model: IlpModel) -> Solution:
    """Solve one refine ILP."""
    return solver.solve(model)
