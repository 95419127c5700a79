"""Typed schemas for columnar tables.

A :class:`Schema` is an ordered collection of named, typed :class:`Column`
definitions.  Types are deliberately small — integers, floats and strings —
because that is all the paper's datasets (SDSS Galaxy, TPC-H) require, and all
numeric package-query machinery operates on floats.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.errors import ColumnNotFoundError, SchemaError


class DataType(enum.Enum):
    """Supported column data types."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type participate in arithmetic."""
        return self in (DataType.INT, DataType.FLOAT)

    @classmethod
    def infer(cls, values: Iterable[object]) -> "DataType":
        """Infer the narrowest type able to hold every value in ``values``.

        Empty input defaults to ``FLOAT`` since numeric columns are by far the
        most common in package queries.
        """
        seen_float = False
        seen_any = False
        for value in values:
            seen_any = True
            if value is None:
                seen_float = True
                continue
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, np.integer)):
                continue
            if isinstance(value, (float, np.floating)):
                seen_float = True
                continue
            return cls.STRING
        if not seen_any:
            return cls.FLOAT
        return cls.FLOAT if seen_float else cls.INT


@dataclass(frozen=True)
class Column:
    """A named, typed column definition.

    Attributes:
        name: Column name; must be a non-empty identifier-like string.
        dtype: The column's :class:`DataType`.
        nullable: Whether the column may contain NULLs (NaN for floats,
            ``None`` for strings).  Integer columns cannot be nullable.
    """

    name: str
    dtype: DataType = DataType.FLOAT
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"invalid column name: {self.name!r}")
        if self.nullable and self.dtype is DataType.INT:
            raise SchemaError(
                f"column {self.name!r}: integer columns cannot be nullable; use FLOAT"
            )

    @property
    def is_numeric(self) -> bool:
        return self.dtype.is_numeric


class Schema:
    """An ordered, immutable collection of :class:`Column` definitions."""

    __slots__ = ("_columns", "_by_name")

    def __init__(self, columns: Iterable[Column]):
        cols = tuple(columns)
        if not cols:
            raise SchemaError("a schema must contain at least one column")
        by_name: dict[str, Column] = {}
        for col in cols:
            if not isinstance(col, Column):
                raise SchemaError(f"expected Column, got {type(col).__name__}")
            if col.name in by_name:
                raise SchemaError(f"duplicate column name: {col.name!r}")
            by_name[col.name] = col
        self._columns = cols
        self._by_name = by_name

    # -- construction helpers ------------------------------------------------

    @classmethod
    def of(cls, **dtypes: DataType | str) -> "Schema":
        """Build a schema from keyword arguments, e.g. ``Schema.of(a="float")``."""
        columns = []
        for name, dtype in dtypes.items():
            if isinstance(dtype, str):
                dtype = DataType(dtype)
            columns.append(Column(name, dtype))
        return cls(columns)

    @classmethod
    def numeric(cls, names: Iterable[str]) -> "Schema":
        """Build an all-float schema from column names."""
        return cls(Column(name, DataType.FLOAT) for name in names)

    # -- lookup ---------------------------------------------------------------

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self._columns)

    @property
    def numeric_names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self._columns if col.is_numeric)

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise ColumnNotFoundError(name, self.names) from None

    def column(self, name: str) -> Column:
        """Return the column definition for ``name`` or raise."""
        return self[name]

    def require(self, names: Iterable[str]) -> None:
        """Raise if any of ``names`` is missing from the schema."""
        for name in names:
            if name not in self:
                raise ColumnNotFoundError(name, self.names)

    def require_numeric(self, names: Iterable[str]) -> None:
        """Raise if any of ``names`` is missing or non-numeric."""
        for name in names:
            col = self[name]
            if not col.is_numeric:
                raise SchemaError(f"column {name!r} is not numeric (type {col.dtype.value})")

    # -- derivation -----------------------------------------------------------

    def with_column(self, column: Column) -> "Schema":
        """Return a new schema with ``column`` appended."""
        return Schema(self._columns + (column,))

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """Return a new schema with columns renamed according to ``mapping``."""
        self.require(mapping)
        return Schema(
            Column(mapping.get(col.name, col.name), col.dtype, col.nullable)
            for col in self._columns
        )

    # -- equality / repr ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name}:{c.dtype.value}" for c in self._columns)
        return f"Schema({cols})"
