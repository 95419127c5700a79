"""Abstract syntax tree for PaQL package queries.

The AST mirrors the language of Section 2.1 of the paper:

* base predicates (WHERE) are ordinary per-tuple boolean expressions and are
  represented with the vectorised expression classes of :mod:`repro.db`,
* global predicates (SUCH THAT) are linear combinations of aggregates over the
  package compared against constants (or against each other, which normalises
  to a single linear combination compared against zero),
* the objective (MINIMIZE / MAXIMIZE) is a linear combination of aggregates.

Aggregates may carry a per-tuple *filter* expression, which models the
sub-query form ``(SELECT COUNT(*) FROM P WHERE P.carbs > 0)`` from the paper;
the filter restricts which tuples of the package contribute to the aggregate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.db.aggregates import AggregateFunction
from repro.db.expressions import Expression
from repro.errors import PaQLValidationError


class ConstraintSenseKeyword(enum.Enum):
    """Comparison operators allowed in global predicates."""

    LE = "<="
    GE = ">="
    EQ = "="
    BETWEEN = "BETWEEN"


class ObjectiveDirection(enum.Enum):
    """Objective direction keywords."""

    MINIMIZE = "MINIMIZE"
    MAXIMIZE = "MAXIMIZE"


@dataclass(frozen=True)
class AggregateRef:
    """One aggregate over the package, e.g. ``SUM(P.kcal)`` or ``COUNT(P.*)``.

    Attributes:
        function: COUNT, SUM or AVG (the linear aggregates of the paper).
        column: Target attribute; ``None`` only for COUNT.
        filter: Optional per-tuple predicate restricting which package tuples
            contribute (the sub-query ``WHERE`` form).
    """

    function: AggregateFunction
    column: str | None = None
    filter: Expression | None = None

    def __post_init__(self) -> None:
        if self.function is not AggregateFunction.COUNT and self.column is None:
            raise PaQLValidationError(f"{self.function.value} requires a column")

    @property
    def referenced_columns(self) -> set[str]:
        columns: set[str] = set()
        if self.column is not None:
            columns.add(self.column)
        if self.filter is not None:
            columns |= self.filter.referenced_columns()
        return columns

    def describe(self) -> str:
        target = f"P.{self.column}" if self.column else "P.*"
        text = f"{self.function.value}({target})"
        if self.filter is not None:
            text = f"(SELECT {self.function.value}({'*' if self.column is None else self.column}) FROM P WHERE {self.filter!r})"
        return text


@dataclass
class LinearAggregateExpression:
    """A linear combination ``sum_k coefficient_k * aggregate_k + constant``."""

    terms: list[tuple[float, AggregateRef]] = field(default_factory=list)
    constant: float = 0.0

    def add(self, coefficient: float, aggregate: AggregateRef) -> "LinearAggregateExpression":
        self.terms.append((float(coefficient), aggregate))
        return self

    def negated(self) -> "LinearAggregateExpression":
        return LinearAggregateExpression(
            [(-c, a) for c, a in self.terms], constant=-self.constant
        )

    def plus(self, other: "LinearAggregateExpression") -> "LinearAggregateExpression":
        return LinearAggregateExpression(
            list(self.terms) + list(other.terms), self.constant + other.constant
        )

    def scaled(self, factor: float) -> "LinearAggregateExpression":
        return LinearAggregateExpression(
            [(c * factor, a) for c, a in self.terms], self.constant * factor
        )

    @property
    def referenced_columns(self) -> set[str]:
        columns: set[str] = set()
        for _, aggregate in self.terms:
            columns |= aggregate.referenced_columns
        return columns

    @property
    def is_constant(self) -> bool:
        return not self.terms

    @classmethod
    def of(cls, aggregate: AggregateRef, coefficient: float = 1.0) -> "LinearAggregateExpression":
        return cls([(coefficient, aggregate)])

    @classmethod
    def constant_of(cls, value: float) -> "LinearAggregateExpression":
        return cls([], constant=float(value))


@dataclass
class GlobalConstraint:
    """A global predicate ``expression <sense> bound`` over the package.

    A BETWEEN constraint stores both bounds (``lower`` and ``upper``); the
    other senses store the single bound in ``lower``.
    Constraints are normalised so the right-hand side is a constant: a
    comparison between two aggregate expressions ``f(P) >= g(P)`` becomes
    ``f(P) - g(P) >= 0``.
    """

    expression: LinearAggregateExpression
    sense: ConstraintSenseKeyword
    lower: float
    upper: float | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        if self.sense is ConstraintSenseKeyword.BETWEEN:
            if self.upper is None:
                raise PaQLValidationError("BETWEEN constraint requires two bounds")
            if self.lower > self.upper:
                raise PaQLValidationError(
                    f"BETWEEN bounds out of order: {self.lower} > {self.upper}"
                )
        elif self.upper is not None:
            raise PaQLValidationError(f"{self.sense.value} constraint takes a single bound")

    @property
    def referenced_columns(self) -> set[str]:
        return self.expression.referenced_columns

    def describe(self) -> str:
        lhs = _describe_expression(self.expression)
        if self.sense is ConstraintSenseKeyword.BETWEEN:
            return f"{lhs} BETWEEN {_fmt(self.lower)} AND {_fmt(self.upper)}"
        return f"{lhs} {self.sense.value} {_fmt(self.lower)}"


@dataclass
class Objective:
    """The MINIMIZE/MAXIMIZE clause."""

    direction: ObjectiveDirection
    expression: LinearAggregateExpression

    @property
    def referenced_columns(self) -> set[str]:
        return self.expression.referenced_columns

    def describe(self) -> str:
        return f"{self.direction.value} {_describe_expression(self.expression)}"


@dataclass
class PackageQuery:
    """A complete PaQL package query.

    Attributes:
        relation: Name of the input relation in the catalog.
        package_alias: Name given to the package result (``AS P``).
        relation_alias: Alias of the input relation in the FROM clause.
        repeat: Maximum number of *additional* repetitions of a tuple
            (``REPEAT 0`` forbids repetition; ``None`` means unbounded).
        base_predicate: WHERE-clause per-tuple predicate, or ``None``.
        global_constraints: SUCH THAT constraints (conjunctive).
        objective: Optional MINIMIZE/MAXIMIZE clause.
    """

    relation: str
    package_alias: str = "P"
    relation_alias: str = "R"
    repeat: int | None = None
    base_predicate: Expression | None = None
    global_constraints: list[GlobalConstraint] = field(default_factory=list)
    objective: Objective | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        if self.repeat is not None and self.repeat < 0:
            raise PaQLValidationError("REPEAT must be non-negative")

    @property
    def referenced_columns(self) -> set[str]:
        """All attribute names the query mentions anywhere."""
        columns: set[str] = set()
        if self.base_predicate is not None:
            columns |= self.base_predicate.referenced_columns()
        for constraint in self.global_constraints:
            columns |= constraint.referenced_columns
        if self.objective is not None:
            columns |= self.objective.referenced_columns
        return columns

    @property
    def numeric_query_columns(self) -> set[str]:
        """Attributes used in global constraints and the objective.

        These are the attributes that matter for partitioning (the paper's
        "query attributes").
        """
        columns: set[str] = set()
        for constraint in self.global_constraints:
            columns |= constraint.referenced_columns
        if self.objective is not None:
            columns |= self.objective.referenced_columns
        return columns

    @property
    def max_multiplicity(self) -> int | None:
        """Maximum allowed multiplicity per tuple (``None`` = unbounded)."""
        return None if self.repeat is None else self.repeat + 1

    def describe(self) -> str:
        parts = [f"PackageQuery over {self.relation}"]
        if self.repeat is not None:
            parts.append(f"REPEAT {self.repeat}")
        parts.extend(c.describe() for c in self.global_constraints)
        if self.objective is not None:
            parts.append(self.objective.describe())
        return "; ".join(parts)


def _describe_expression(expression: LinearAggregateExpression) -> str:
    chunks = []
    for coefficient, aggregate in expression.terms:
        prefix = "" if coefficient == 1.0 else f"{_fmt(coefficient)}*"
        chunks.append(f"{prefix}{aggregate.describe()}")
    if expression.constant:
        chunks.append(_fmt(expression.constant))
    return " + ".join(chunks) if chunks else "0"


def _fmt(value: float | None) -> str:
    if value is None:
        return "?"
    if value == int(value):
        return str(int(value))
    return f"{value:g}"
