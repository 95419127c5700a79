"""PaQL → ILP translation rules (Section 3.1 of the paper).

One integer variable ``x_i`` is created per tuple eligible under the base
predicate, indicating how many times the tuple appears in the answer package.
The translation rules are:

1. **Repetition constraint** — ``REPEAT K`` becomes the variable bound
   ``0 <= x_i <= K + 1``.
2. **Base predicate** — tuples failing the WHERE clause are excluded up front
   (they would be fixed to zero, so their variables are simply not created).
3. **Global predicates** — each ``f(P) ⊙ v`` becomes a linear constraint:
   ``COUNT(P.*)`` contributes coefficient 1 per variable, ``SUM(P.attr)``
   contributes ``t_i.attr``, ``AVG(P.attr) ⊙ v`` is linearised as
   ``Σ (t_i.attr − v)·x_i ⊙ 0``, and filtered aggregates multiply the
   coefficients by the 0/1 indicator of the filter (the paper's indicator
   base relations).  ``BETWEEN`` bounds produce two constraints.
4. **Objective** — MAXIMIZE/MINIMIZE of a linear aggregate expression maps to
   the ILP objective with the same coefficients; a query without an objective
   gets the vacuous objective ``max Σ 0·x_i``.

The rules are applied in exactly one place.  :func:`linearise` turns a query
into a :class:`Linearisation` over the tuples rule 2 leaves eligible — the
constraint rows stacked into one coefficient matrix (rule 3) and the
objective vector (rule 4), one column per tuple — and :func:`build_model`
turns a linearisation plus an upper-bound vector (rule 1) into an
:class:`IlpModel`.  DIRECT builds the whole linearisation; SKETCHREFINE builds
the same linearisation reduced to per-group means
(:meth:`Linearisation.group_means`, the sketch) or sliced to one group with
residual right-hand sides (:meth:`Linearisation.take`, a refine query).
Columns and rows
reach the model as arrays — the coefficient matrix built here is the one the
model keeps — and nothing here runs once per tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.core.base_relations import BaseRelation, compute_base_relation, indicator_vector
from repro.core.package import Package
from repro.dataset.table import Table
from repro.db.aggregates import AggregateFunction
from repro.errors import TranslationError
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.status import Solution
from repro.paql.ast import (
    AggregateRef,
    ConstraintSenseKeyword,
    GlobalConstraint,
    LinearAggregateExpression,
    ObjectiveDirection,
    PackageQuery,
)

_SENSE_MAP = {
    ConstraintSenseKeyword.LE: ConstraintSense.LE,
    ConstraintSenseKeyword.GE: ConstraintSense.GE,
    ConstraintSenseKeyword.EQ: ConstraintSense.EQ,
}


@dataclass
class IlpTranslation:
    """A PaQL query translated into an integer linear program.

    Attributes:
        model: The ILP handed to the black-box solver.
        variable_rows: For each ILP variable, the source-table row index it
            represents (``variable_rows[k]`` is the row of variable ``k``).
        query: The translated query.
        base_relation: The eligible-tuple set the variables were created from.
    """

    model: IlpModel
    variable_rows: np.ndarray
    query: PackageQuery
    base_relation: BaseRelation

    @property
    def num_variables(self) -> int:
        return self.model.num_variables

    def package_from_solution(self, solution: Solution) -> Package:
        """Convert a solver solution back into a :class:`Package`."""
        if not solution.has_solution:
            raise TranslationError("cannot build a package from a solution without values")
        return Package.from_solution_values(
            self.base_relation.table, solution.values, self.variable_rows
        )


@dataclass
class Linearisation:
    """A query as linear rows over a set of columns.

    Attributes:
        constraint_matrix: ``(num_constraints, num_columns)`` coefficients,
            one row per translated global-constraint row.
        senses: Sense of each constraint row.
        rhs: Right-hand side of each constraint row.
        names: Name of each constraint row.
        sources: The global constraint each constraint row translates.
        objective_sense: Optimisation direction.
        objective: Per-column objective coefficients.
    """

    constraint_matrix: np.ndarray
    senses: list[ConstraintSense]
    rhs: np.ndarray
    names: list[str]
    sources: list[GlobalConstraint]
    objective_sense: ObjectiveSense
    objective: np.ndarray

    @property
    def num_constraints(self) -> int:
        return len(self.senses)

    @property
    def num_columns(self) -> int:
        return len(self.objective)

    def take(self, columns: np.ndarray, rhs: np.ndarray | None = None) -> "Linearisation":
        """The linearisation sliced to ``columns``, optionally with new right-hand sides."""
        return replace(
            self,
            constraint_matrix=self.constraint_matrix[:, columns],
            objective=self.objective[columns],
            rhs=self.rhs if rhs is None else rhs,
        )

    def group_means(self, group_of_column: np.ndarray, counts: np.ndarray) -> "Linearisation":
        """One column per group of columns: the mean of the group's columns.

        Every translated row is linear in the tuple attributes, so the mean
        coefficient over a group is the coefficient of the group's centroid —
        the representative tuple of the SKETCH query.  ``group_of_column`` is
        the group of each column and ``counts[g]`` the number of columns of
        group ``g``.  An empty group gets a zero column.

        Each group's sum runs one column after the other in ascending column
        order — what ``np.bincount`` with a row as weights does — and tests
        pin it to the bit: a reordered sum moves the branch-and-bound trees
        of the sketch and of every refine query built from its residuals.
        """
        num_groups = len(counts)
        sums = np.array(
            [
                np.bincount(group_of_column, weights=row, minlength=num_groups)
                for row in (*self.constraint_matrix, self.objective)
            ],
            dtype=np.float64,
        ).reshape(self.num_constraints + 1, num_groups)
        means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
        return replace(self, constraint_matrix=means[:-1], objective=means[-1])

    @staticmethod
    def concatenate(parts: Sequence["Linearisation"]) -> "Linearisation":
        """Columns of several linearisations of the same query, side by side."""
        return replace(
            parts[0],
            constraint_matrix=np.hstack([part.constraint_matrix for part in parts]),
            objective=np.concatenate([part.objective for part in parts]),
        )


def linearise(table: Table, query: PackageQuery, rows: np.ndarray) -> Linearisation:
    """Apply translation rules 3–4: ``query`` as linear rows over the tuples ``rows``.

    ``rows`` are the table rows that get a column — for a whole query, the
    eligible rows of its base relation (rule 2).
    """
    constraint_rows: list[LinearConstraintRow] = []
    sources: list[GlobalConstraint] = []
    for number, constraint in enumerate(query.global_constraints):
        name = constraint.name or f"global_{number}"
        translated = constraint_linear_rows(table, rows, constraint, name)
        constraint_rows.extend(translated)
        sources.extend([constraint] * len(translated))
    sense, objective = objective_linear(table, rows, query)
    return Linearisation(
        constraint_matrix=(
            np.vstack([row.coefficients for row in constraint_rows])
            if constraint_rows
            else np.empty((0, len(rows)))
        ),
        senses=[row.sense for row in constraint_rows],
        rhs=np.array([row.rhs for row in constraint_rows], dtype=np.float64),
        names=[row.name for row in constraint_rows],
        sources=sources,
        objective_sense=sense,
        objective=objective,
    )


def repetition_cap(query: PackageQuery) -> float:
    """Rule 1: the most often one tuple may appear (``inf`` without REPEAT)."""
    cap = query.max_multiplicity
    return np.inf if cap is None else float(cap)


def build_model(linearisation: Linearisation, upper: np.ndarray | float, name: str) -> IlpModel:
    """Turn a linearisation and per-column upper bounds into an ILP.

    Columns are integer with lower bound 0; ``upper`` is one bound per column
    or a single bound for all of them.  The model takes the linearisation's
    coefficient matrix and objective vector over as they are.
    """
    model = IlpModel(name=name)
    num_columns = linearisation.num_columns
    model.add_variables(np.zeros(num_columns), np.broadcast_to(upper, (num_columns,)))
    model.add_constraints(
        linearisation.constraint_matrix,
        linearisation.senses,
        linearisation.rhs,
        linearisation.names,
    )
    model.set_objective_vector(linearisation.objective_sense, linearisation.objective)
    return model


def translate_query(table: Table, query: PackageQuery) -> IlpTranslation:
    """Translate a PaQL query over ``table`` into the ILP DIRECT solves."""
    base = compute_base_relation(table, query)
    linearisation = linearise(table, query, base.eligible_indices)
    model = build_model(linearisation, repetition_cap(query), query.name or "paql")
    return IlpTranslation(
        model=model, variable_rows=base.eligible_indices, query=query, base_relation=base
    )


def aggregate_coefficients(
    table: Table, rows: np.ndarray, aggregate: AggregateRef
) -> np.ndarray:
    """Per-variable coefficients contributed by one aggregate term.

    COUNT contributes 1 per tuple, SUM(attr) contributes the attribute value;
    a filter multiplies by the 0/1 indicator of the filter predicate.
    """
    if aggregate.function is AggregateFunction.COUNT:
        coefficients = np.ones(len(rows), dtype=np.float64)
    elif aggregate.function in (AggregateFunction.SUM, AggregateFunction.AVG):
        coefficients = table.numeric_column(aggregate.column)[rows]
    else:
        raise TranslationError(
            f"{aggregate.function.value} aggregates cannot be translated to a linear program"
        )
    if aggregate.filter is not None:
        coefficients = coefficients * indicator_vector(table, aggregate.filter, rows)
    return coefficients


def expression_coefficients(
    table: Table, rows: np.ndarray, expression: LinearAggregateExpression
) -> np.ndarray:
    """Per-variable coefficients of a full linear aggregate expression.

    AVG terms are not allowed here (they need the bound-dependent rewrite and
    are handled separately in :func:`constraint_linear_rows`).
    """
    coefficients = np.zeros(len(rows), dtype=np.float64)
    for weight, aggregate in expression.terms:
        if aggregate.function is AggregateFunction.AVG:
            raise TranslationError("AVG terms require the constraint-level rewrite")
        coefficients += weight * aggregate_coefficients(table, rows, aggregate)
    return coefficients


@dataclass
class LinearConstraintRow:
    """One translated linear constraint: ``coefficients · x  <sense>  rhs``.

    The coefficient vector is aligned with the ``rows`` it was computed over
    (one entry per candidate tuple); :func:`linearise` stacks these rows into
    a :class:`Linearisation`.
    """

    coefficients: np.ndarray
    sense: ConstraintSense
    rhs: float
    name: str


def constraint_linear_rows(
    table: Table, rows: np.ndarray, constraint: GlobalConstraint, name: str
) -> list[LinearConstraintRow]:
    """Translate one global constraint into one or two linear constraint rows."""
    has_avg = any(a.function is AggregateFunction.AVG for _, a in constraint.expression.terms)
    if has_avg:
        return _average_constraint_rows(table, rows, constraint, name)

    coefficients = expression_coefficients(table, rows, constraint.expression)
    if constraint.sense is ConstraintSenseKeyword.BETWEEN:
        return [
            LinearConstraintRow(coefficients, ConstraintSense.GE, constraint.lower, f"{name}_lo"),
            LinearConstraintRow(coefficients, ConstraintSense.LE, constraint.upper, f"{name}_hi"),
        ]
    return [
        LinearConstraintRow(
            coefficients, _SENSE_MAP[constraint.sense], constraint.lower, name
        )
    ]


def objective_linear(
    table: Table, rows: np.ndarray, query: PackageQuery
) -> tuple[ObjectiveSense, np.ndarray]:
    """Translate the objective clause into ``(sense, per-tuple coefficients)``.

    Rule 4: a query without an objective gets the vacuous objective
    ``max Σ 0·x_i``.
    """
    if query.objective is None:
        return ObjectiveSense.MAXIMIZE, np.zeros(len(rows), dtype=np.float64)
    coefficients = expression_coefficients(table, rows, query.objective.expression)
    sense = (
        ObjectiveSense.MINIMIZE
        if query.objective.direction is ObjectiveDirection.MINIMIZE
        else ObjectiveSense.MAXIMIZE
    )
    return sense, coefficients


def _average_constraint_rows(
    table: Table, rows: np.ndarray, constraint: GlobalConstraint, name: str
) -> list[LinearConstraintRow]:
    """Linearise ``c * AVG(P.attr) ⊙ v`` as ``Σ (t_i.attr − v/c)·x_i ⊙ 0``."""
    if len(constraint.expression.terms) != 1:
        raise TranslationError("AVG must be the only term of its global constraint")
    weight, aggregate = constraint.expression.terms[0]
    if weight == 0:
        raise TranslationError("AVG constraint with zero coefficient is meaningless")
    values = table.numeric_column(aggregate.column)[rows]
    if aggregate.filter is not None:
        raise TranslationError("filtered AVG aggregates are not supported")

    def row(bound: float, sense: ConstraintSenseKeyword, suffix: str) -> LinearConstraintRow:
        target = bound / weight
        effective_sense = _flip(sense) if weight < 0 else sense
        return LinearConstraintRow(
            values - target, _SENSE_MAP[effective_sense], 0.0, f"{name}{suffix}"
        )

    if constraint.sense is ConstraintSenseKeyword.BETWEEN:
        return [
            row(constraint.lower, ConstraintSenseKeyword.GE, "_lo"),
            row(constraint.upper, ConstraintSenseKeyword.LE, "_hi"),
        ]
    return [row(constraint.lower, constraint.sense, "")]


def _flip(sense: ConstraintSenseKeyword) -> ConstraintSenseKeyword:
    if sense is ConstraintSenseKeyword.LE:
        return ConstraintSenseKeyword.GE
    if sense is ConstraintSenseKeyword.GE:
        return ConstraintSenseKeyword.LE
    return sense
