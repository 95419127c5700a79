"""Mitigation strategies for false infeasibility (Section 4.4 of the paper).

SKETCHREFINE can report a feasible query as infeasible when the sketch query
or every refinement ordering fails.  The paper lists four ways out; the first
(the *hybrid sketch query*) is built into
:class:`~repro.core.sketchrefine.SketchRefineEvaluator` because it is the one
used in the experiments.  This module implements the remaining three as
composable fallback strategies plus a resolver that applies them in sequence:

2. **Further partitioning** — halve the size threshold τ and re-partition, so
   centroids become better representatives of their (smaller) groups.
3. **Dropping partitioning attributes** — project the partitioning onto fewer
   dimensions, merging groups and increasing the chance that previously
   infeasible refine queries become feasible.  The attributes to drop are
   chosen with the solver's IIS facility on the sketch ILP, as the paper
   suggests: attributes participating in the irreducible infeasible constraint
   set go first.  The probed model is the one the evaluator solves
   (:meth:`~repro.core.sketchrefine.PartitionedQuery.sketch_model`), not a
   re-derivation of it.
4. **Iterative group merging** — merge groups pairwise until the sub-queries
   become feasible; in the limit a single group remains and SKETCHREFINE
   degenerates to DIRECT, so any feasible query is eventually answered (at the
   cost of performance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.core.direct import DirectEvaluator
from repro.core.package import Package
from repro.core.sketchrefine import PartitionedQuery, SketchRefineEvaluator
from repro.dataset.table import Table
from repro.errors import InfeasiblePackageQueryError
from repro.ilp.iis import find_iis
from repro.paql.ast import PackageQuery
from repro.partition.partitioning import Partitioning, PartitioningStats
from repro.partition.quadtree import QuadTreePartitioner


class FalseInfeasibilityStrategy(Protocol):
    """A fallback that derives alternative partitionings to retry with."""

    name: str

    def candidate_partitionings(
        self, table: Table, query: PackageQuery, partitioning: Partitioning
    ) -> list[Partitioning]:
        """Return alternative partitionings, most promising first."""
        ...  # pragma: no cover - protocol definition


@dataclass
class FurtherPartitioning:
    """Strategy 2: re-partition with progressively smaller size thresholds."""

    shrink_factor: float = 0.5
    rounds: int = 2
    name: str = "further-partitioning"

    def candidate_partitionings(
        self, table: Table, query: PackageQuery, partitioning: Partitioning
    ) -> list[Partitioning]:
        candidates = []
        tau = partitioning.stats.size_threshold
        for _ in range(self.rounds):
            tau = max(1, int(tau * self.shrink_factor))
            partitioner = QuadTreePartitioner(
                size_threshold=tau, radius_limit=partitioning.stats.radius_limit
            )
            candidates.append(partitioner.partition(table, partitioning.attributes))
            if tau == 1:
                break
        return candidates


@dataclass
class DropPartitioningAttributes:
    """Strategy 3: project the partitioning onto fewer attributes.

    The order in which attributes are dropped is guided by an IIS computed on
    the sketch ILP (group centroids with per-group caps): attributes whose
    constraints belong to the irreducible infeasible set are dropped first,
    then any remaining partitioning attributes.
    """

    max_drops: int = 3
    name: str = "drop-partitioning-attributes"

    def candidate_partitionings(
        self, table: Table, query: PackageQuery, partitioning: Partitioning
    ) -> list[Partitioning]:
        order = self._drop_order(table, query, partitioning)
        candidates = []
        remaining = list(partitioning.attributes)
        for attribute in order[: self.max_drops]:
            if len(remaining) <= 1:
                break
            remaining = [a for a in remaining if a != attribute]
            partitioner = QuadTreePartitioner(
                size_threshold=partitioning.stats.size_threshold,
                radius_limit=partitioning.stats.radius_limit,
            )
            candidates.append(partitioner.partition(table, remaining))
        return candidates

    def _drop_order(
        self, table: Table, query: PackageQuery, partitioning: Partitioning
    ) -> list[str]:
        conflicted = self._conflicted_attributes(table, query, partitioning)
        ordered = [a for a in partitioning.attributes if a in conflicted]
        ordered += [a for a in partitioning.attributes if a not in conflicted]
        return ordered

    def _conflicted_attributes(
        self, table: Table, query: PackageQuery, partitioning: Partitioning
    ) -> set[str]:
        """Attributes participating in the IIS of the sketch ILP."""
        problem = PartitionedQuery.build(table, query, partitioning)
        if not problem.eligible_groups:
            return set()
        infeasible_set = set(find_iis(problem.sketch_model()))
        conflicted: set[str] = set()
        for constraint, name in zip(problem.linearisation.sources, problem.linearisation.names):
            if name in infeasible_set:
                conflicted |= set(constraint.referenced_columns)
        return conflicted & set(partitioning.attributes)


@dataclass
class IterativeGroupMerging:
    """Strategy 4: merge groups pairwise until the query becomes answerable.

    In the limit this reduces the problem to a single group; the resolver then
    completes the paper's recipe by falling back to DIRECT on the original
    relation, which guarantees an answer for any feasible query (at the cost
    of performance).
    """

    rounds: int = 4
    name: str = "iterative-group-merging"

    def candidate_partitionings(
        self, table: Table, query: PackageQuery, partitioning: Partitioning
    ) -> list[Partitioning]:
        candidates = []
        current = partitioning
        for _ in range(self.rounds):
            if current.num_groups <= 1:
                break
            current = merge_groups_pairwise(current)
            candidates.append(current)
        return candidates


def merge_groups_pairwise(partitioning: Partitioning) -> Partitioning:
    """Merge groups (2k, 2k+1) → k, halving the number of groups."""
    if partitioning.num_groups <= 1:
        return partitioning
    merged_ids = partitioning.group_ids // 2
    stats = PartitioningStats(
        num_groups=int(merged_ids.max()) + 1,
        max_group_size=int(np.bincount(merged_ids).max()),
        max_radius=partitioning.stats.max_radius,
        build_seconds=0.0,
        size_threshold=partitioning.stats.size_threshold * 2,
        radius_limit=partitioning.stats.radius_limit,
        method=f"{partitioning.stats.method}(merged)",
    )
    return Partitioning(partitioning.table, merged_ids, partitioning.attributes, stats)


@dataclass
class ResolutionReport:
    """What the resolver tried and what finally worked."""

    attempts: list[str] = field(default_factory=list)
    succeeded_with: str | None = None

    @property
    def used_fallback(self) -> bool:
        return self.succeeded_with not in (None, "original-partitioning")


class FalseInfeasibilityResolver:
    """Run SKETCHREFINE, falling back through the Section 4.4 strategies.

    The resolver only retries when the failure is a *possible* false negative
    (the sketch or refinement failed); genuine infeasibility detected by a
    DIRECT-equivalent sub-problem is re-raised immediately.
    """

    def __init__(
        self,
        evaluator: SketchRefineEvaluator | None = None,
        strategies: list[FalseInfeasibilityStrategy] | None = None,
        fallback_to_direct: bool = True,
    ):
        self.evaluator = evaluator or SketchRefineEvaluator()
        self.strategies = strategies or [
            FurtherPartitioning(),
            DropPartitioningAttributes(),
            IterativeGroupMerging(),
        ]
        self.fallback_to_direct = fallback_to_direct
        self.last_report = ResolutionReport()

    def evaluate(
        self, table: Table, query: PackageQuery, partitioning: Partitioning
    ) -> Package:
        """Evaluate the query, applying fallback partitionings on false infeasibility."""
        report = ResolutionReport()
        self.last_report = report

        report.attempts.append("original-partitioning")
        try:
            package = self.evaluator.evaluate(table, query, partitioning)
            report.succeeded_with = "original-partitioning"
            return package
        except InfeasiblePackageQueryError as error:
            if not error.false_negative_possible:
                raise
            last_error = error

        for strategy in self.strategies:
            for candidate in strategy.candidate_partitionings(table, query, partitioning):
                report.attempts.append(f"{strategy.name}({candidate.num_groups} groups)")
                try:
                    package = self.evaluator.evaluate(table, query, candidate)
                    report.succeeded_with = strategy.name
                    return package
                except InfeasiblePackageQueryError as error:
                    if not error.false_negative_possible:
                        raise
                    last_error = error

        if self.fallback_to_direct:
            # The paper's brute-force endpoint: with no partitioning left to
            # try, solve the original problem directly.  DIRECT either returns
            # a package or proves genuine infeasibility.
            report.attempts.append("direct")
            package = DirectEvaluator(solver=self.evaluator.solver).evaluate(table, query)
            report.succeeded_with = "direct"
            return package

        raise InfeasiblePackageQueryError(
            "query remained infeasible after every false-infeasibility mitigation "
            f"(tried: {', '.join(report.attempts)})",
            false_negative_possible=True,
        ) from last_error
