"""Vectorised scalar expressions over tables.

Expressions form a small AST — column references, literals, arithmetic,
comparisons and boolean connectives — that evaluates to a NumPy array over all
rows of a :class:`~repro.dataset.table.Table`.  They are used for:

* WHERE-clause base predicates of PaQL queries,
* per-tuple coefficient computation during PaQL→ILP translation, and
* filters inside the relational operators.

The convenience constructors :func:`col` and :func:`lit` plus operator
overloading give a fluent syntax::

    predicate = (col("gluten") == "free") & (col("kcal") < 900)

A NULL (``None`` in a string column, NaN in a float one) fails ``=``,
``<>`` and ``IN``, and on a float column every comparison, as in SQL's
WHERE: ``col("category") <> "x"`` drops the row whose category is NULL.
The connectives stay two-valued: ``NOT (x = 1)`` keeps the NULL rows that
``x = 1`` dropped.
"""

from __future__ import annotations

import abc
import enum
from typing import Iterable

import numpy as np

from repro.dataset.table import Table
from repro.errors import ExpressionError


class Expression(abc.ABC):
    """Base class for all scalar expressions."""

    @abc.abstractmethod
    def evaluate(self, table: Table) -> np.ndarray:
        """Evaluate the expression over every row of ``table``."""

    @abc.abstractmethod
    def referenced_columns(self) -> set[str]:
        """Return the set of column names the expression reads."""

    # -- operator overloading -------------------------------------------------

    def _binary(self, other: object, op: "ArithmeticOperator") -> "BinaryOp":
        return BinaryOp(self, op, _wrap(other))

    def __add__(self, other: object) -> "BinaryOp":
        return self._binary(other, ArithmeticOperator.ADD)

    def __radd__(self, other: object) -> "BinaryOp":
        return BinaryOp(_wrap(other), ArithmeticOperator.ADD, self)

    def __sub__(self, other: object) -> "BinaryOp":
        return self._binary(other, ArithmeticOperator.SUB)

    def __rsub__(self, other: object) -> "BinaryOp":
        return BinaryOp(_wrap(other), ArithmeticOperator.SUB, self)

    def __mul__(self, other: object) -> "BinaryOp":
        return self._binary(other, ArithmeticOperator.MUL)

    def __rmul__(self, other: object) -> "BinaryOp":
        return BinaryOp(_wrap(other), ArithmeticOperator.MUL, self)

    def __truediv__(self, other: object) -> "BinaryOp":
        return self._binary(other, ArithmeticOperator.DIV)

    def __rtruediv__(self, other: object) -> "BinaryOp":
        return BinaryOp(_wrap(other), ArithmeticOperator.DIV, self)

    def __neg__(self) -> "BinaryOp":
        return BinaryOp(Literal(-1.0), ArithmeticOperator.MUL, self)

    def _compare(self, other: object, op: "ComparisonOperator") -> "Comparison":
        return Comparison(self, op, _wrap(other))

    def __eq__(self, other: object):  # type: ignore[override]
        return self._compare(other, ComparisonOperator.EQ)

    def __ne__(self, other: object):  # type: ignore[override]
        return self._compare(other, ComparisonOperator.NE)

    def __lt__(self, other: object) -> "Comparison":
        return self._compare(other, ComparisonOperator.LT)

    def __le__(self, other: object) -> "Comparison":
        return self._compare(other, ComparisonOperator.LE)

    def __gt__(self, other: object) -> "Comparison":
        return self._compare(other, ComparisonOperator.GT)

    def __ge__(self, other: object) -> "Comparison":
        return self._compare(other, ComparisonOperator.GE)

    def __and__(self, other: "Expression") -> "LogicalOp":
        return LogicalOp(LogicalOperator.AND, [self, other])

    def __or__(self, other: "Expression") -> "LogicalOp":
        return LogicalOp(LogicalOperator.OR, [self, other])

    def __invert__(self) -> "Not":
        return Not(self)

    def __hash__(self) -> int:  # Expressions are identity-hashed (== is overloaded).
        return id(self)

    def isin(self, values: Iterable[object]) -> "InList":
        """Return the predicate ``self IN values``."""
        return InList(self, list(values))


class ArithmeticOperator(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"


class ComparisonOperator(enum.Enum):
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def flip(self) -> "ComparisonOperator":
        """Return the operator with its operand order reversed."""
        mapping = {
            ComparisonOperator.LT: ComparisonOperator.GT,
            ComparisonOperator.LE: ComparisonOperator.GE,
            ComparisonOperator.GT: ComparisonOperator.LT,
            ComparisonOperator.GE: ComparisonOperator.LE,
        }
        return mapping.get(self, self)


class LogicalOperator(enum.Enum):
    AND = "AND"
    OR = "OR"


class ColumnRef(Expression):
    """Reference to a column of the evaluated table."""

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, table: Table) -> np.ndarray:
        return table.column(self.name)

    def referenced_columns(self) -> set[str]:
        return {self.name}

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class Literal(Expression):
    """A constant scalar (number or string)."""

    def __init__(self, value: object):
        if isinstance(value, Expression):
            raise ExpressionError("Literal cannot wrap another expression")
        self.value = value

    def evaluate(self, table: Table) -> np.ndarray:
        return np.full(table.num_rows, self.value, dtype=object if isinstance(self.value, str) else np.float64)

    def referenced_columns(self) -> set[str]:
        return set()

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


class BinaryOp(Expression):
    """Arithmetic combination of two expressions."""

    def __init__(self, left: Expression, op: ArithmeticOperator, right: Expression):
        self.left = left
        self.op = op
        self.right = right

    def evaluate(self, table: Table) -> np.ndarray:
        left = np.asarray(self.left.evaluate(table), dtype=np.float64)
        right = np.asarray(self.right.evaluate(table), dtype=np.float64)
        if self.op is ArithmeticOperator.ADD:
            return left + right
        if self.op is ArithmeticOperator.SUB:
            return left - right
        if self.op is ArithmeticOperator.MUL:
            return left * right
        with np.errstate(divide="ignore", invalid="ignore"):
            return left / right

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op.value} {self.right!r})"


_ORDERINGS = {
    ComparisonOperator.LT: np.less,
    ComparisonOperator.LE: np.less_equal,
    ComparisonOperator.GT: np.greater,
    ComparisonOperator.GE: np.greater_equal,
}


class Comparison(Expression):
    """Comparison of two expressions, yielding a boolean mask."""

    def __init__(self, left: Expression, op: ComparisonOperator, right: Expression):
        self.left = left
        self.op = op
        self.right = right

    def evaluate(self, table: Table) -> np.ndarray:
        left = self.left.evaluate(table)
        right = self.right.evaluate(table)
        if _is_string_like(left) or _is_string_like(right):
            left_values = np.asarray(left, dtype=object)
            right_values = np.asarray(right, dtype=object)
        else:
            left_values = np.asarray(left, dtype=np.float64)
            right_values = np.asarray(right, dtype=np.float64)
        if self.op is ComparisonOperator.EQ:
            return left_values == right_values
        if self.op is ComparisonOperator.NE:
            return (left_values != right_values) & ~_is_null(left_values) & ~_is_null(right_values)
        compare = _ORDERINGS[self.op]
        if left_values.dtype != object:
            return compare(left_values, right_values)  # NaN already compares False
        # Python refuses to order None against a string: compare known values only.
        left_values, right_values = np.broadcast_arrays(left_values, right_values)
        known = ~_is_null(left_values) & ~_is_null(right_values)
        mask = np.zeros(known.shape, dtype=bool)
        mask[known] = compare(left_values[known], right_values[known])
        return mask

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op.value} {self.right!r})"


class LogicalOp(Expression):
    """Boolean conjunction / disjunction of predicate expressions."""

    def __init__(self, op: LogicalOperator, operands: list[Expression]):
        if len(operands) < 2:
            raise ExpressionError("logical operators need at least two operands")
        self.op = op
        self.operands = list(operands)

    def evaluate(self, table: Table) -> np.ndarray:
        masks = [np.asarray(o.evaluate(table), dtype=bool) for o in self.operands]
        result = masks[0]
        for mask in masks[1:]:
            result = result & mask if self.op is LogicalOperator.AND else result | mask
        return result

    def referenced_columns(self) -> set[str]:
        result: set[str] = set()
        for operand in self.operands:
            result |= operand.referenced_columns()
        return result

    def __repr__(self) -> str:
        joiner = f" {self.op.value} "
        return "(" + joiner.join(repr(o) for o in self.operands) + ")"


class Not(Expression):
    """Boolean negation of a predicate expression."""

    def __init__(self, operand: Expression):
        self.operand = operand

    def evaluate(self, table: Table) -> np.ndarray:
        return ~np.asarray(self.operand.evaluate(table), dtype=bool)

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def __repr__(self) -> str:
        return f"NOT {self.operand!r}"


class InList(Expression):
    """Membership predicate: expression value is one of a list of constants."""

    def __init__(self, operand: Expression, values: list[object]):
        self.operand = operand
        self.values = list(values)

    def evaluate(self, table: Table) -> np.ndarray:
        evaluated = self.operand.evaluate(table)
        allowed = set(self.values)
        return np.array([v in allowed for v in evaluated], dtype=bool)

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def __repr__(self) -> str:
        return f"({self.operand!r} IN {self.values!r})"


def col(name: str) -> ColumnRef:
    """Shorthand for a column reference expression."""
    return ColumnRef(name)


def lit(value: object) -> Literal:
    """Shorthand for a literal expression."""
    return Literal(value)


def _wrap(value: object) -> Expression:
    return value if isinstance(value, Expression) else Literal(value)


def _is_null(values: np.ndarray) -> np.ndarray:
    """Where ``values`` is NULL: NaN in a float array, ``None`` (or a NaN)
    in an object array."""
    if values.dtype != object:
        return np.isnan(values)
    return np.array([v is None or v != v for v in values.ravel()], dtype=bool).reshape(values.shape)


def _is_string_like(values: np.ndarray | object) -> bool:
    array = np.asarray(values)
    return array.dtype == object or array.dtype.kind in ("U", "S")
