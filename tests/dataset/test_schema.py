"""Tests for repro.dataset.schema."""

import numpy as np
import pytest

from repro.dataset.schema import Column, DataType, Schema
from repro.errors import ColumnNotFoundError, SchemaError


class TestDataType:
    def test_numpy_dtypes(self):
        assert DataType.INT.numpy_dtype == np.dtype(np.int64)
        assert DataType.FLOAT.numpy_dtype == np.dtype(np.float64)
        assert DataType.STRING.numpy_dtype == np.dtype(object)

    def test_is_numeric(self):
        assert DataType.INT.is_numeric
        assert DataType.FLOAT.is_numeric
        assert not DataType.STRING.is_numeric

    def test_infer_int(self):
        assert DataType.infer([1, 2, 3]) is DataType.INT

    def test_infer_float_from_mixed(self):
        assert DataType.infer([1, 2.5, 3]) is DataType.FLOAT

    def test_infer_float_from_none(self):
        assert DataType.infer([1, None, 3]) is DataType.FLOAT

    def test_infer_string(self):
        assert DataType.infer([1, "x", 3]) is DataType.STRING

    def test_infer_empty_defaults_to_float(self):
        assert DataType.infer([]) is DataType.FLOAT

    def test_infer_numpy_scalars(self):
        assert DataType.infer([np.int64(1), np.int64(2)]) is DataType.INT
        assert DataType.infer([np.float64(1.5)]) is DataType.FLOAT


class TestColumn:
    def test_valid_column(self):
        column = Column("kcal", DataType.FLOAT)
        assert column.name == "kcal"
        assert column.is_numeric

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("", DataType.FLOAT)

    def test_nullable_int_rejected(self):
        with pytest.raises(SchemaError):
            Column("count", DataType.INT, nullable=True)

    def test_nullable_float_allowed(self):
        column = Column("value", DataType.FLOAT, nullable=True)
        assert column.nullable


class TestSchema:
    def test_basic_construction(self):
        schema = Schema([Column("a", DataType.FLOAT), Column("b", DataType.STRING)])
        assert len(schema) == 2
        assert schema.names == ("a", "b")

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Column("a", DataType.FLOAT), Column("a", DataType.INT)])

    def test_non_column_rejected(self):
        with pytest.raises(SchemaError):
            Schema(["not a column"])

    def test_of_constructor(self):
        schema = Schema.of(a="float", b="int", c="string")
        assert schema["a"].dtype is DataType.FLOAT
        assert schema["b"].dtype is DataType.INT
        assert schema["c"].dtype is DataType.STRING

    def test_numeric_constructor(self):
        schema = Schema.numeric(["x", "y"])
        assert all(c.dtype is DataType.FLOAT for c in schema)

    def test_contains_and_getitem(self):
        schema = Schema.numeric(["x", "y"])
        assert "x" in schema
        assert "z" not in schema
        assert schema["y"].name == "y"

    def test_missing_column_error_lists_available(self):
        schema = Schema.numeric(["x", "y"])
        with pytest.raises(ColumnNotFoundError) as excinfo:
            schema["z"]
        assert "x" in str(excinfo.value)

    def test_index_of(self):
        schema = Schema.numeric(["x", "y", "z"])
        assert schema.index_of("y") == 1
        with pytest.raises(ColumnNotFoundError):
            schema.index_of("w")

    def test_require(self):
        schema = Schema.numeric(["x", "y"])
        schema.require(["x"])
        with pytest.raises(ColumnNotFoundError):
            schema.require(["x", "missing"])

    def test_require_numeric(self):
        schema = Schema([Column("x", DataType.FLOAT), Column("s", DataType.STRING)])
        schema.require_numeric(["x"])
        with pytest.raises(SchemaError):
            schema.require_numeric(["s"])

    def test_numeric_names(self):
        schema = Schema([Column("x", DataType.FLOAT), Column("s", DataType.STRING), Column("i", DataType.INT)])
        assert schema.numeric_names == ("x", "i")

    def test_with_column(self):
        schema = Schema.numeric(["x"])
        extended = schema.with_column(Column("y", DataType.STRING))
        assert extended.names == ("x", "y")
        assert schema.names == ("x",)  # Original unchanged.

    def test_rename(self):
        schema = Schema.numeric(["x", "y"])
        renamed = schema.rename({"x": "a"})
        assert renamed.names == ("a", "y")
        with pytest.raises(ColumnNotFoundError):
            schema.rename({"missing": "a"})

    def test_equality_and_hash(self):
        schema_one = Schema.numeric(["x", "y"])
        schema_two = Schema.numeric(["x", "y"])
        schema_three = Schema.numeric(["y", "x"])
        assert schema_one == schema_two
        assert hash(schema_one) == hash(schema_two)
        assert schema_one != schema_three

    def test_repr(self):
        schema = Schema.numeric(["x"])
        assert "x:float" in repr(schema)
