"""CSV and NPZ persistence for :class:`~repro.dataset.table.Table`.

The paper keeps its datasets in PostgreSQL; here datasets live on disk as CSV
(human-readable interchange) or compressed NPZ (fast reload of large generated
workloads and partitionings).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.dataset.schema import Column, DataType, Schema
from repro.dataset.table import Table
from repro.errors import TableError

_NULL_TOKEN = ""


def write_csv(table: Table, path: str | Path) -> None:
    """Write ``table`` to ``path`` as CSV with a header row."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.schema.names)
        columns = [table.column(name) for name in table.schema.names]
        dtypes = [table.schema[name].dtype for name in table.schema.names]
        for i in range(table.num_rows):
            row = []
            for values, dtype in zip(columns, dtypes):
                value = values[i]
                row.append(_format_value(value, dtype))
            writer.writerow(row)


def read_csv(path: str | Path, schema: Schema | None = None, name: str | None = None) -> Table:
    """Read a CSV file (with header) into a :class:`Table`.

    If ``schema`` is omitted, column types are inferred from the data.
    """
    path = Path(path)
    with path.open("r", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise TableError(f"CSV file {path} is empty") from None
        raw_columns: dict[str, list[str]] = {col: [] for col in header}
        for row in reader:
            if len(row) != len(header):
                raise TableError(
                    f"CSV row has {len(row)} fields, header has {len(header)}"
                )
            for col, value in zip(header, row):
                raw_columns[col].append(value)

    if schema is None:
        schema = _infer_schema(header, raw_columns)
    data = {
        col.name: [_parse_value(v, col.dtype) for v in raw_columns[col.name]]
        for col in schema
    }
    return Table(schema, data, name=name or path.stem)


def table_arrays(table: Table) -> tuple[dict, dict[str, np.ndarray]]:
    """``(meta, arrays)`` encoding ``table``: JSON-ready metadata (name,
    version, schema) and one plain array per column.

    Strings become fixed-width unicode plus an explicit NULL mask (NumPy's
    unicode arrays cannot represent None directly).  The snapshot's ``.npz``
    files and the write-ahead log both store tables in this form.
    """
    meta = {
        "name": table.name,
        "version": table.version,
        "columns": [
            {"name": c.name, "dtype": c.dtype.value, "nullable": c.nullable}
            for c in table.schema
        ],
    }
    arrays: dict[str, np.ndarray] = {}
    for col in table.schema:
        values = table.column(col.name)
        if col.dtype is DataType.STRING:
            arrays[f"nullmask_{col.name}"] = np.array([v is None for v in values], dtype=bool)
            values = np.array(["" if v is None else str(v) for v in values])
        arrays[f"col_{col.name}"] = values
    return meta, arrays


def table_from_arrays(meta: dict, arrays: Mapping[str, np.ndarray]) -> Table:
    """The table :func:`table_arrays` encoded as ``(meta, arrays)``."""
    columns = [Column(c["name"], DataType(c["dtype"]), c["nullable"]) for c in meta["columns"]]
    data: dict[str, np.ndarray | list] = {}
    for col in columns:
        values = arrays[f"col_{col.name}"]
        if col.dtype is DataType.STRING:
            null_mask = arrays[f"nullmask_{col.name}"]
            data[col.name] = [
                None if is_null else str(v) for v, is_null in zip(values, null_mask)
            ]
        else:
            data[col.name] = values
    return Table(Schema(columns), data, name=meta["name"], version=meta.get("version", 0))


def save_table(table: Table, path: str | Path) -> None:
    """Persist ``table`` to a compressed ``.npz`` file (fast binary format)."""
    meta, arrays = table_arrays(table)
    np.savez_compressed(Path(path), __meta__=np.array([json.dumps(meta)]), **arrays)


def load_table(path: str | Path) -> Table:
    """Load a table previously written with :func:`save_table`."""
    with np.load(Path(path), allow_pickle=False) as archive:
        return table_from_arrays(json.loads(str(archive["__meta__"][0])), archive)


def _format_value(value: object, dtype: DataType) -> str:
    if dtype is DataType.FLOAT and (value is None or np.isnan(value)):
        return _NULL_TOKEN
    if dtype is DataType.STRING and value is None:
        return _NULL_TOKEN
    if dtype is DataType.FLOAT:
        return repr(float(value))
    if dtype is DataType.INT:
        return str(int(value))
    return str(value)


def _parse_value(text: str, dtype: DataType) -> object:
    if text == _NULL_TOKEN:
        return None
    if dtype is DataType.INT:
        return int(text)
    if dtype is DataType.FLOAT:
        return float(text)
    return text


def _infer_schema(header: list[str], raw_columns: dict[str, list[str]]) -> Schema:
    columns = []
    for name in header:
        values = raw_columns[name]
        dtype = _infer_text_dtype(values)
        nullable = dtype is not DataType.INT and any(v == _NULL_TOKEN for v in values)
        columns.append(Column(name, dtype, nullable))
    return Schema(columns)


def _infer_text_dtype(values: list[str]) -> DataType:
    has_null = False
    has_float = False
    for text in values:
        if text == _NULL_TOKEN:
            has_null = True
            continue
        try:
            int(text)
            continue
        except ValueError:
            pass
        try:
            float(text)
            has_float = True
        except ValueError:
            return DataType.STRING
    if has_float or has_null:
        return DataType.FLOAT
    return DataType.INT
