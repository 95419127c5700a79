"""The aggregate functions of PaQL and of :meth:`Package.aggregate`.

PaQL global predicates are linear aggregates over a package (COUNT, SUM, and
AVG which is rewritten linearly during ILP translation).  MIN and MAX parse,
and :meth:`~repro.core.package.Package.aggregate` computes them, but the
validator rejects them in a package query because they are not linear.
"""

from __future__ import annotations

import enum

from repro.errors import ExpressionError


class AggregateFunction(enum.Enum):
    """Aggregate function names, as PaQL spells them."""

    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"

    @property
    def is_linear(self) -> bool:
        """Whether the aggregate can be expressed as a linear function.

        COUNT and SUM are directly linear; AVG becomes linear when moved to
        one side of a constraint (the rewrite used by the translation rules).
        MIN / MAX are not linear and therefore not allowed in PaQL global
        predicates in this implementation (matching the paper's scope).
        """
        return self in (AggregateFunction.COUNT, AggregateFunction.SUM, AggregateFunction.AVG)

    @classmethod
    def parse(cls, name: str) -> "AggregateFunction":
        try:
            return cls(name.upper())
        except ValueError:
            raise ExpressionError(f"unknown aggregate function: {name!r}") from None
