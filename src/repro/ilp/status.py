"""Solver status codes, statistics and solution containers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class SolverStatus(enum.Enum):
    """Outcome of an LP or ILP solve."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"          # A feasible incumbent exists but optimality was not proven.
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    CAPACITY_EXCEEDED = "capacity_exceeded"  # Problem too large for configured limits.
    TIME_LIMIT = "time_limit"
    NUMERICAL_ERROR = "numerical_error"      # Solver state went singular / non-finite.
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        """Whether a variable assignment accompanies this status."""
        return self in (SolverStatus.OPTIMAL, SolverStatus.FEASIBLE)


@dataclass
class SolveStats:
    """Statistics accumulated during a solve.

    ``simplex_iterations`` counts pivots/bound-flips summed over all LP
    solves; ``warm_start_hits`` counts LP solves that successfully
    reoptimised from a parent basis instead of starting cold (see
    :attr:`warm_start_rate`).

    ``vars_fixed`` is always 0: there is no presolve, and the field stays
    only because the benchmark's tracer reads it (it goes with the
    benchmark's next revision).  ``numerical_retries`` counts node LPs that
    came back :attr:`SolverStatus.NUMERICAL_ERROR` from a warm start and were
    retried cold.

    ``refactorizations`` counts reinversions of the simplex basis (its
    explicit inverse rebuilt from the basis columns) summed over all LP solves.
    ``reduced_cost_fixings`` counts the column bounds branch-and-bound moved
    by reduced-cost fixing against the incumbent: those of each branching
    node's children, plus those of each recomputation of the root's fixings.
    ``two_phase_starts`` counts the LP solves that started cold two-phase
    rather than with the dual simplex from the slack basis: some column
    lacked the bound its cost prefers, or that start stalled (see
    :mod:`repro.ilp.simplex`).

    ``core_columns`` and ``sift_rounds`` sum what the LP solves report: the
    columns of each certified core of a wide cold LP, and the pricing passes
    over every column that certified them (see :mod:`repro.ilp.lp_backend`).
    """

    nodes_explored: int = 0
    lp_solves: int = 0
    incumbent_updates: int = 0
    best_bound: float = float("nan")
    wall_time_seconds: float = 0.0
    gap: float = float("nan")
    simplex_iterations: int = 0
    warm_start_hits: int = 0
    two_phase_starts: int = 0
    vars_fixed: int = 0
    numerical_retries: int = 0
    refactorizations: int = 0
    reduced_cost_fixings: int = 0
    core_columns: int = 0
    sift_rounds: int = 0

    @property
    def warm_start_rate(self) -> float:
        """Fraction of LP solves that reused a parent basis (0.0 when none ran)."""
        if self.lp_solves == 0:
            return 0.0
        return self.warm_start_hits / self.lp_solves


@dataclass
class Solution:
    """Result of solving an :class:`~repro.ilp.model.IlpModel`.

    Attributes:
        status: Solve outcome.
        values: Variable assignment (empty array when no solution exists).
        objective_value: Objective under ``values`` in the model's own sense
            (NaN when no solution exists).
        stats: Solver statistics.
    """

    status: SolverStatus
    values: np.ndarray = field(default_factory=lambda: np.empty(0))
    objective_value: float = float("nan")
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def has_solution(self) -> bool:
        return self.status.has_solution

    def integral_values(self) -> np.ndarray:
        """Return the assignment rounded to the nearest integers."""
        return np.rint(self.values).astype(np.int64)

    @classmethod
    def infeasible(cls, stats: SolveStats | None = None) -> "Solution":
        return cls(SolverStatus.INFEASIBLE, stats=stats or SolveStats())

    @classmethod
    def failure(cls, status: SolverStatus, stats: SolveStats | None = None) -> "Solution":
        return cls(status, stats=stats or SolveStats())
