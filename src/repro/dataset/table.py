"""Columnar in-memory tables backed by NumPy arrays.

A :class:`Table` is the universal data container of the library: workload
generators produce tables, the relational operators consume and return tables,
the PaQL engine evaluates package queries over a table, and packages can be
materialised back into tables.

Tables are immutable by convention: every operation returns a new ``Table``
that shares column arrays where possible (NumPy fancy indexing copies, simple
projections do not).

Base relations registered in a catalog additionally carry a *version* number.
Updates never mutate a table in place: :meth:`Table.append_rows` and
:meth:`Table.delete_rows` return a new table at ``version + 1`` together with
a :class:`TableDelta` describing exactly what changed (the inserted row block
and the deleted-row mask), so downstream structures — partitionings, caches —
can be maintained incrementally instead of rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.dataset.schema import Column, DataType, Schema
from repro.errors import ColumnNotFoundError, TableError

_NULL_SENTINEL = None


@dataclass(frozen=True)
class TableDelta:
    """One versioned change to a table: a block of inserts plus a delete mask.

    The new relation is defined as the surviving base rows (those where
    ``deleted_mask`` is False, in their original order) followed by the rows
    of ``inserted``.  A delta is anchored to the version it was derived from,
    so applying it to any other version is an error.
    """

    base_version: int
    inserted: "Table"
    deleted_mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        mask = np.asarray(self.deleted_mask)
        if mask.dtype != bool:
            # An integer 0/1 array would silently flip semantics downstream
            # (bitwise-NOT and fancy indexing instead of masking).
            raise TableError(
                f"deleted_mask must be a boolean array, got dtype {mask.dtype}"
            )
        object.__setattr__(self, "deleted_mask", mask)

    @property
    def new_version(self) -> int:
        return self.base_version + 1

    @property
    def num_inserted(self) -> int:
        return self.inserted.num_rows

    @property
    def num_deleted(self) -> int:
        return int(np.count_nonzero(self.deleted_mask))

    def deleted_rows(self) -> np.ndarray:
        """Base-table row indices the delta deletes, ascending."""
        return np.flatnonzero(self.deleted_mask)

    def __repr__(self) -> str:
        return (
            f"TableDelta(base_version={self.base_version}, "
            f"inserted={self.num_inserted}, deleted={self.num_deleted})"
        )


def survivor_runs(deleted: np.ndarray, num_rows: int) -> list[slice]:
    """The contiguous row ranges of ``range(num_rows)`` between the
    ``deleted`` rows (sorted, unique) — one more than there are deletions."""
    bounds = deleted.tolist()
    return [
        slice(start, stop)
        for start, stop in zip([0, *(row + 1 for row in bounds)], [*bounds, num_rows])
    ]


def without_rows(base: np.ndarray, runs: list[slice], tail: np.ndarray) -> np.ndarray:
    """``concatenate([base[keep], tail])`` for the surviving ``runs`` of
    ``base`` (see :func:`survivor_runs`), copied once into one new array:
    views of the runs need no gather through a mask and no second copy."""
    pieces = [base[run] for run in runs]
    if len(tail):
        pieces.append(tail)
    return np.concatenate(pieces)


class Table:
    """An immutable, columnar relation.

    Args:
        schema: The table schema.
        columns: Mapping from column name to a 1-D array (or sequence) of
            values.  All columns must have the same length and the mapping
            must cover exactly the schema's columns.
        name: Optional relation name, used in error messages and the catalog.
        version: Version number of this snapshot of the relation.  Freshly
            built tables are version 0; :meth:`append_rows` /
            :meth:`delete_rows` / :meth:`apply_delta` bump it by one.
    """

    __slots__ = ("_schema", "_columns", "name", "version")

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, Sequence | np.ndarray],
        name: str = "table",
        version: int = 0,
    ):
        missing = [c for c in schema.names if c not in columns]
        extra = [c for c in columns if c not in schema]
        if missing:
            raise TableError(f"missing data for columns: {missing}")
        if extra:
            raise TableError(f"data provided for unknown columns: {extra}")

        arrays: dict[str, np.ndarray] = {}
        length: int | None = None
        for col in schema:
            raw = columns[col.name]
            array = _coerce_column(raw, col)
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise TableError(
                    f"column {col.name!r} has length {len(array)}, expected {length}"
                )
            arrays[col.name] = array
        self._schema = schema
        self._columns = arrays
        self.name = name
        self.version = int(version)

    # -- construction ---------------------------------------------------------

    @classmethod
    def _from_arrays(
        cls,
        schema: Schema,
        arrays: dict[str, np.ndarray],
        name: str,
        version: int,
    ) -> "Table":
        """Fast internal constructor for arrays already in canonical form.

        Skips per-column coercion/validation; callers must pass arrays that
        came out of an existing table with the same schema.
        """
        table = cls.__new__(cls)
        table._schema = schema
        table._columns = arrays
        table.name = name
        table.version = int(version)
        return table

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Iterable[Sequence | Mapping[str, object]],
        name: str = "table",
    ) -> "Table":
        """Build a table from an iterable of row tuples or row dicts."""
        rows = list(rows)
        columns: dict[str, list] = {c: [] for c in schema.names}
        for row in rows:
            if isinstance(row, Mapping):
                for col in schema.names:
                    columns[col].append(row.get(col))
            else:
                if len(row) != len(schema):
                    raise TableError(
                        f"row has {len(row)} values, schema has {len(schema)} columns"
                    )
                for col, value in zip(schema.names, row):
                    columns[col].append(value)
        return cls(schema, columns, name=name)

    @classmethod
    def from_dict(cls, data: Mapping[str, Sequence], name: str = "table") -> "Table":
        """Build a table from a column-name → values mapping, inferring types."""
        columns = []
        for col_name, values in data.items():
            dtype = DataType.infer(values)
            nullable = dtype is DataType.STRING or any(
                v is None or (isinstance(v, float) and np.isnan(v)) for v in values
            )
            if nullable and dtype is DataType.INT:
                dtype = DataType.FLOAT
            columns.append(Column(col_name, dtype, nullable=nullable and dtype is not DataType.INT))
        schema = Schema(columns)
        return cls(schema, data, name=name)

    @classmethod
    def empty(cls, schema: Schema, name: str = "table") -> "Table":
        """Build an empty table with the given schema."""
        return cls(schema, {c: [] for c in schema.names}, name=name)

    # -- basic accessors -------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_rows(self) -> int:
        return len(next(iter(self._columns.values()))) if self._columns else 0

    @property
    def num_columns(self) -> int:
        return len(self._schema)

    def __len__(self) -> int:
        return self.num_rows

    def __bool__(self) -> bool:
        # A table is truthy even when empty; emptiness is a row-count question.
        return True

    def column(self, name: str) -> np.ndarray:
        """Return the raw column array for ``name`` (do not mutate it)."""
        try:
            return self._columns[name]
        except KeyError:
            raise ColumnNotFoundError(name, self._schema.names) from None

    def numeric_column(self, name: str) -> np.ndarray:
        """Return column ``name`` as a float64 array, validating it is numeric."""
        self._schema.require_numeric([name])
        return np.asarray(self.column(name), dtype=np.float64)

    def numeric_matrix(self, names: Sequence[str]) -> np.ndarray:
        """Return an ``(num_rows, len(names))`` float64 matrix of the columns."""
        self._schema.require_numeric(names)
        if not names:
            return np.empty((self.num_rows, 0), dtype=np.float64)
        return np.column_stack([self.numeric_column(n) for n in names])

    def row(self, index: int) -> dict[str, object]:
        """Return row ``index`` as a plain dict."""
        if not 0 <= index < self.num_rows:
            raise TableError(f"row index {index} out of range [0, {self.num_rows})")
        return {name: _to_python(self._columns[name][index]) for name in self._schema.names}

    def rows(self) -> Iterator[dict[str, object]]:
        """Iterate over rows as dicts (slow path, intended for small results)."""
        for i in range(self.num_rows):
            yield self.row(i)

    def to_dict(self) -> dict[str, list]:
        """Return the table contents as a column-name → list-of-values dict."""
        return {name: [_to_python(v) for v in self._columns[name]] for name in self._schema.names}

    # -- derivation -------------------------------------------------------------

    def take(self, indices: Sequence[int] | np.ndarray, name: str | None = None) -> "Table":
        """Return a new table containing the given row indices (with repeats)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_rows):
            raise TableError("row index out of range in take()")
        data = {c: self._columns[c][idx] for c in self._schema.names}
        return Table(self._schema, data, name=name or self.name)

    def filter(self, mask: np.ndarray, name: str | None = None) -> "Table":
        """Return a new table with rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.num_rows,):
            raise TableError(
                f"mask has shape {mask.shape}, expected ({self.num_rows},)"
            )
        data = {c: self._columns[c][mask] for c in self._schema.names}
        return Table(self._schema, data, name=name or self.name)

    def with_column(
        self, column: Column, values: Sequence | np.ndarray, name: str | None = None
    ) -> "Table":
        """Return a new table with an extra column appended."""
        schema = self._schema.with_column(column)
        data = dict(self._columns)
        data[column.name] = values
        return Table(schema, data, name=name or self.name)

    def replace_column(self, column_name: str, values: Sequence | np.ndarray) -> "Table":
        """Return a new table with one column's values replaced."""
        self._schema.require([column_name])
        data = dict(self._columns)
        data[column_name] = values
        return Table(self._schema, data, name=self.name)

    def rename(self, mapping: dict[str, str], name: str | None = None) -> "Table":
        """Return a new table with columns renamed."""
        schema = self._schema.rename(mapping)
        data = {mapping.get(c, c): self._columns[c] for c in self._schema.names}
        return Table(schema, data, name=name or self.name)

    def head(self, n: int) -> "Table":
        """Return the first ``n`` rows."""
        return self.take(np.arange(min(n, self.num_rows)))

    def sample(self, n: int, seed: int | None = None, replace: bool = False) -> "Table":
        """Return a uniform random sample of ``n`` rows."""
        rng = np.random.default_rng(seed)
        if not replace and n > self.num_rows:
            raise TableError(f"cannot sample {n} rows without replacement from {self.num_rows}")
        idx = rng.choice(self.num_rows, size=n, replace=replace)
        return self.take(idx)

    def concat(self, other: "Table", name: str | None = None) -> "Table":
        """Return the row-wise concatenation of this table with ``other``."""
        if other.schema != self._schema:
            raise TableError("cannot concat tables with different schemas")
        data = {
            c: np.concatenate([self._columns[c], other._columns[c]])
            for c in self._schema.names
        }
        return Table(self._schema, data, name=name or self.name)

    # -- versioned updates ------------------------------------------------------

    def append_rows(
        self, rows: "Table" | Iterable[Sequence | Mapping[str, object]]
    ) -> tuple["Table", TableDelta]:
        """Append rows, returning the next version and the delta that made it.

        ``rows`` may be another table with the same schema or an iterable of
        row tuples/dicts.  The base table is untouched; unchanged data is
        carried over without re-coercion or validation.
        """
        inserted = self._as_row_block(rows)
        delta = TableDelta(
            base_version=self.version,
            inserted=inserted,
            deleted_mask=np.zeros(self.num_rows, dtype=bool),
        )
        return self.apply_delta(delta), delta

    def delete_rows(self, rows: np.ndarray | Sequence[int]) -> tuple["Table", TableDelta]:
        """Delete rows (boolean mask or index array), returning ``(table, delta)``."""
        mask = self._as_delete_mask(rows)
        delta = TableDelta(
            base_version=self.version,
            inserted=Table.empty(self._schema, name=self.name),
            deleted_mask=mask,
        )
        return self.apply_delta(delta), delta

    def make_delta(
        self,
        insert: "Table" | Iterable[Sequence | Mapping[str, object]] | None = None,
        delete: np.ndarray | Sequence[int] | None = None,
    ) -> TableDelta:
        """Describe a combined insert + delete change without applying it."""
        inserted = (
            self._as_row_block(insert)
            if insert is not None
            else Table.empty(self._schema, name=self.name)
        )
        mask = (
            self._as_delete_mask(delete)
            if delete is not None
            else np.zeros(self.num_rows, dtype=bool)
        )
        return TableDelta(self.version, inserted, mask)

    def update_rows(
        self,
        insert: "Table" | Iterable[Sequence | Mapping[str, object]] | None = None,
        delete: np.ndarray | Sequence[int] | None = None,
    ) -> tuple["Table", TableDelta]:
        """Apply one combined insert + delete change as a single version bump."""
        delta = self.make_delta(insert=insert, delete=delete)
        return self.apply_delta(delta), delta

    def apply_delta(self, delta: TableDelta) -> "Table":
        """Return the table at ``delta.new_version``: survivors then inserts.

        Each column is written once (:func:`without_rows`); a delta that
        keeps every row and inserts none shares the base arrays.
        """
        if delta.base_version != self.version:
            raise TableError(
                f"delta targets version {delta.base_version}, table is at {self.version}"
            )
        if delta.deleted_mask.shape != (self.num_rows,):
            raise TableError(
                f"delete mask has shape {delta.deleted_mask.shape}, "
                f"expected ({self.num_rows},)"
            )
        if delta.inserted.schema != self._schema:
            raise TableError("inserted rows do not match the table schema")
        deleted = delta.deleted_rows()
        if len(deleted) or delta.num_inserted:
            runs = survivor_runs(deleted, self.num_rows)
            arrays = {
                col: without_rows(self._columns[col], runs, delta.inserted._columns[col])
                for col in self._schema.names
            }
        else:
            arrays = dict(self._columns)
        return Table._from_arrays(self._schema, arrays, self.name, delta.new_version)

    def _as_row_block(
        self, rows: "Table" | Iterable[Sequence | Mapping[str, object]]
    ) -> "Table":
        if isinstance(rows, Table):
            if rows.schema != self._schema:
                raise TableError("appended table does not match the base schema")
            return rows
        return Table.from_rows(self._schema, rows, name=self.name)

    def _as_delete_mask(self, rows: np.ndarray | Sequence[int]) -> np.ndarray:
        array = np.asarray(rows)
        if array.dtype == bool:
            if array.shape != (self.num_rows,):
                raise TableError(
                    f"delete mask has shape {array.shape}, expected ({self.num_rows},)"
                )
            return array.copy()
        if array.size == 0:
            # An empty index list (whatever its dtype) deletes nothing.
            return np.zeros(self.num_rows, dtype=bool)
        if array.dtype.kind not in "iu":
            raise TableError(
                f"delete rows must be a boolean mask or integer indices, "
                f"got dtype {array.dtype}"
            )
        idx = array.astype(np.int64, copy=False)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_rows):
            raise TableError("row index out of range in delete_rows()")
        if len(np.unique(idx)) != len(idx):
            # Deleting an index twice is meaningless — and a repeated-value
            # array is usually a 0/1 mask passed as ints, which would
            # otherwise silently delete the wrong rows.
            raise TableError(
                "duplicate row indices in delete; to delete by mask, pass a "
                "boolean array (dtype=bool)"
            )
        mask = np.zeros(self.num_rows, dtype=bool)
        mask[idx] = True
        return mask

    def drop_nulls(self, names: Sequence[str] | None = None) -> "Table":
        """Return a new table with rows containing NULLs in ``names`` removed.

        NULL means NaN for float columns and ``None`` for string columns.
        """
        names = list(names) if names is not None else list(self._schema.names)
        mask = np.ones(self.num_rows, dtype=bool)
        for col_name in names:
            col = self._schema[col_name]
            values = self._columns[col_name]
            if col.dtype is DataType.FLOAT:
                mask &= ~np.isnan(values)
            elif col.dtype is DataType.STRING:
                mask &= np.array([v is not None for v in values], dtype=bool)
        return self.filter(mask)

    def null_mask(self, column_name: str) -> np.ndarray:
        """Return a boolean mask of NULL positions in the given column."""
        col = self._schema[column_name]
        values = self._columns[column_name]
        if col.dtype is DataType.FLOAT:
            return np.isnan(values)
        if col.dtype is DataType.STRING:
            return np.array([v is None for v in values], dtype=bool)
        return np.zeros(self.num_rows, dtype=bool)

    # -- equality / repr --------------------------------------------------------

    def equals(self, other: "Table") -> bool:
        """Deep equality: same schema and identical cell values."""
        if self._schema != other._schema or self.num_rows != other.num_rows:
            return False
        for col in self._schema:
            a, b = self._columns[col.name], other._columns[col.name]
            if col.dtype is DataType.FLOAT:
                if not np.allclose(a, b, equal_nan=True):
                    return False
            else:
                if not all(x == y for x, y in zip(a, b)):
                    return False
        return True

    def __repr__(self) -> str:
        version = f", version={self.version}" if self.version else ""
        return (
            f"Table(name={self.name!r}, rows={self.num_rows}, "
            f"columns={list(self._schema.names)}{version})"
        )


def _coerce_column(raw: Sequence | np.ndarray, col: Column) -> np.ndarray:
    """Coerce raw values into the NumPy representation for ``col``."""
    if col.dtype is DataType.STRING:
        array = np.empty(len(raw), dtype=object)
        for i, value in enumerate(raw):
            array[i] = None if value is None else str(value)
        return array
    if col.dtype is DataType.FLOAT:
        values = [np.nan if v is None else v for v in raw] if _has_none(raw) else raw
        return np.asarray(values, dtype=np.float64)
    # INT
    try:
        return np.asarray(raw, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise TableError(f"column {col.name!r}: cannot coerce values to int64: {exc}") from exc


def _has_none(raw: Sequence | np.ndarray) -> bool:
    if isinstance(raw, np.ndarray) and raw.dtype != object:
        return False
    return any(v is None for v in raw)


def _to_python(value: object) -> object:
    """Convert a NumPy scalar to its closest native Python type."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value
