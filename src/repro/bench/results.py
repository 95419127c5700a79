"""Result records for benchmark experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.validation import approximation_ratio
from repro.paql.ast import ObjectiveDirection


@dataclass
class MethodRun:
    """One evaluation of one query with one method at one configuration."""

    dataset: str
    query_name: str
    method: str
    wall_seconds: float
    objective: float = float("nan")
    feasible: bool = False
    failed: bool = False
    failure_reason: str = ""
    parameters: dict = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return not self.failed


@dataclass
class QueryScalingResult:
    """All runs for one query across a swept parameter (data size, τ, coverage...)."""

    dataset: str
    query_name: str
    parameter_name: str
    runs: list[MethodRun] = field(default_factory=list)

    def runs_for(self, method: str) -> list[MethodRun]:
        return [run for run in self.runs if run.method == method]

    def approximation_ratios(
        self, approximate_method: str = "sketchrefine", exact_method: str = "direct"
    ) -> list[float]:
        """Per-configuration approximation ratios where both methods succeeded.

        The ratio is :func:`~repro.core.validation.approximation_ratio`'s, so
        1.0 means SKETCHREFINE matched DIRECT.  The objective direction is
        recorded per run in ``parameters['direction']``.  A configuration
        whose denominator is zero (and numerator not) has no ratio and is
        skipped.
        """
        ratios = []
        exact_by_parameter = {
            _parameter_key(run.parameters): run for run in self.runs_for(exact_method) if run.succeeded
        }
        for run in self.runs_for(approximate_method):
            if not run.succeeded:
                continue
            exact = exact_by_parameter.get(_parameter_key(run.parameters))
            if exact is None or not exact.succeeded:
                continue
            direction = (
                ObjectiveDirection.MAXIMIZE
                if run.parameters.get("direction") == "maximize"
                else ObjectiveDirection.MINIMIZE
            )
            ratio = approximation_ratio(run.objective, exact.objective, direction)
            if not math.isinf(ratio):  # a zero denominator has no ratio
                ratios.append(ratio)
        return ratios

    def mean_approximation_ratio(self) -> float:
        ratios = self.approximation_ratios()
        return float(sum(ratios) / len(ratios)) if ratios else float("nan")

    def median_approximation_ratio(self) -> float:
        ratios = sorted(self.approximation_ratios())
        if not ratios:
            return float("nan")
        middle = len(ratios) // 2
        if len(ratios) % 2:
            return ratios[middle]
        return 0.5 * (ratios[middle - 1] + ratios[middle])

    def speedup(self, fast_method: str = "sketchrefine", slow_method: str = "direct") -> float:
        """Geometric-mean speed-up of ``fast_method`` over ``slow_method``."""
        fast = {_parameter_key(r.parameters): r for r in self.runs_for(fast_method) if r.succeeded}
        slow = {_parameter_key(r.parameters): r for r in self.runs_for(slow_method) if r.succeeded}
        logs = []
        for key, fast_run in fast.items():
            slow_run = slow.get(key)
            if slow_run is None or fast_run.wall_seconds <= 0:
                continue
            logs.append(math.log(slow_run.wall_seconds / fast_run.wall_seconds))
        if not logs:
            return float("nan")
        return math.exp(sum(logs) / len(logs))


@dataclass
class ExperimentResult:
    """A full experiment: one paper artefact (figure or table)."""

    name: str
    description: str
    query_results: list[QueryScalingResult] = field(default_factory=list)
    tables: dict[str, list[dict]] = field(default_factory=dict)

    def add_table(self, name: str, rows: Iterable[dict]) -> None:
        self.tables[name] = list(rows)

    def result_for(self, query_name: str) -> QueryScalingResult:
        for result in self.query_results:
            if result.query_name == query_name:
                return result
        raise KeyError(f"experiment {self.name!r} has no result for query {query_name!r}")


def _parameter_key(parameters: dict) -> tuple:
    return tuple(sorted((k, v) for k, v in parameters.items() if k != "direction"))
