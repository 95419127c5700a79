"""Tests for repro.dataset.table."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset.schema import Column, DataType, Schema
from repro.dataset.table import Table, survivor_runs, without_rows
from repro.errors import ColumnNotFoundError, TableError


class TestConstruction:
    def test_basic(self, small_numeric_table):
        assert small_numeric_table.num_rows == 5
        assert small_numeric_table.num_columns == 3
        assert len(small_numeric_table) == 5

    def test_missing_column_data(self):
        schema = Schema.numeric(["a", "b"])
        with pytest.raises(TableError, match="missing data"):
            Table(schema, {"a": [1.0]})

    def test_extra_column_data(self):
        schema = Schema.numeric(["a"])
        with pytest.raises(TableError, match="unknown columns"):
            Table(schema, {"a": [1.0], "b": [2.0]})

    def test_length_mismatch(self):
        schema = Schema.numeric(["a", "b"])
        with pytest.raises(TableError, match="length"):
            Table(schema, {"a": [1.0, 2.0], "b": [1.0]})

    def test_from_rows_tuples(self):
        schema = Schema.numeric(["a", "b"])
        table = Table.from_rows(schema, [(1, 2), (3, 4)])
        assert table.row(1) == {"a": 3.0, "b": 4.0}

    def test_from_rows_dicts(self):
        schema = Schema.numeric(["a", "b"])
        table = Table.from_rows(schema, [{"a": 1, "b": 2}, {"b": 4, "a": 3}])
        assert table.row(1) == {"a": 3.0, "b": 4.0}

    def test_from_rows_wrong_arity(self):
        schema = Schema.numeric(["a", "b"])
        with pytest.raises(TableError):
            Table.from_rows(schema, [(1, 2, 3)])

    def test_from_dict_infers_types(self):
        table = Table.from_dict({"x": [1, 2, 3], "s": ["a", "b", None], "f": [1.0, None, 3.0]})
        assert table.schema["x"].dtype is DataType.INT
        assert table.schema["s"].dtype is DataType.STRING
        assert table.schema["f"].dtype is DataType.FLOAT
        assert table.schema["f"].nullable

    def test_empty_table(self):
        table = Table.empty(Schema.numeric(["a"]))
        assert table.num_rows == 0
        assert bool(table) is True

    def test_int_coercion_failure(self):
        schema = Schema([Column("a", DataType.INT)])
        with pytest.raises(TableError):
            Table(schema, {"a": ["not-an-int"]})

    def test_string_column_preserves_none(self, mixed_table):
        assert mixed_table.column("category")[1] is None


class TestAccessors:
    def test_column_returns_array(self, small_numeric_table):
        column = small_numeric_table.column("a")
        assert isinstance(column, np.ndarray)
        assert column.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_unknown_column(self, small_numeric_table):
        with pytest.raises(ColumnNotFoundError):
            small_numeric_table.column("missing")

    def test_numeric_column_on_int(self, small_numeric_table):
        values = small_numeric_table.numeric_column("c")
        assert values.dtype == np.float64

    def test_numeric_matrix(self, small_numeric_table):
        matrix = small_numeric_table.numeric_matrix(["a", "b"])
        assert matrix.shape == (5, 2)
        assert matrix[2].tolist() == [3.0, 30.0]

    def test_numeric_matrix_empty_columns(self, small_numeric_table):
        matrix = small_numeric_table.numeric_matrix([])
        assert matrix.shape == (5, 0)

    def test_row_out_of_range(self, small_numeric_table):
        with pytest.raises(TableError):
            small_numeric_table.row(99)

    def test_rows_iteration(self, small_numeric_table):
        rows = list(small_numeric_table.rows())
        assert len(rows) == 5
        assert rows[0] == {"a": 1.0, "b": 10.0, "c": 1}

    def test_to_dict_native_types(self, small_numeric_table):
        data = small_numeric_table.to_dict()
        assert isinstance(data["c"][0], int)
        assert isinstance(data["a"][0], float)


class TestDerivation:
    def test_take_with_repeats(self, small_numeric_table):
        taken = small_numeric_table.take([0, 0, 4])
        assert taken.num_rows == 3
        assert taken.column("a").tolist() == [1.0, 1.0, 5.0]

    def test_take_out_of_range(self, small_numeric_table):
        with pytest.raises(TableError):
            small_numeric_table.take([10])

    def test_filter(self, small_numeric_table):
        mask = small_numeric_table.column("a") > 2.5
        filtered = small_numeric_table.filter(mask)
        assert filtered.num_rows == 3

    def test_filter_shape_mismatch(self, small_numeric_table):
        with pytest.raises(TableError):
            small_numeric_table.filter(np.array([True, False]))

    def test_with_column(self, small_numeric_table):
        extended = small_numeric_table.with_column(Column("d", DataType.FLOAT), [0.0] * 5)
        assert "d" in extended.schema
        assert "d" not in small_numeric_table.schema

    def test_rename(self, small_numeric_table):
        renamed = small_numeric_table.rename({"a": "alpha"})
        assert "alpha" in renamed.schema
        assert "a" not in renamed.schema

    def test_head(self, small_numeric_table):
        assert small_numeric_table.head(2).num_rows == 2
        assert small_numeric_table.head(100).num_rows == 5

    def test_sample_without_replacement(self, small_numeric_table):
        sample = small_numeric_table.sample(3, seed=1)
        assert sample.num_rows == 3
        with pytest.raises(TableError):
            small_numeric_table.sample(10)

    def test_sample_with_replacement(self, small_numeric_table):
        sample = small_numeric_table.sample(10, seed=1, replace=True)
        assert sample.num_rows == 10

    def test_concat(self, small_numeric_table):
        combined = small_numeric_table.concat(small_numeric_table)
        assert combined.num_rows == 10

    def test_concat_schema_mismatch(self, small_numeric_table, mixed_table):
        with pytest.raises(TableError):
            small_numeric_table.concat(mixed_table)

    def test_take_no_rows_keeps_schema(self, mixed_table):
        taken = mixed_table.take([])
        assert taken.num_rows == 0
        assert taken.schema == mixed_table.schema

    def test_filter_preserves_row_order_and_strings(self, mixed_table):
        filtered = mixed_table.filter(mixed_table.column("weight") != 2.0)
        assert filtered.column("name").tolist() == ["alpha", "gamma", "delta"]
        assert filtered.column("category").tolist() == ["x", "y", "x"]

    def test_rename_keeps_values(self, small_numeric_table):
        renamed = small_numeric_table.rename({"a": "alpha"})
        assert renamed.column("alpha").tolist() == small_numeric_table.column("a").tolist()
        assert renamed.schema.names == ("alpha", "b", "c")

    def test_sample_is_reproducible_from_its_seed(self, small_numeric_table):
        first = small_numeric_table.sample(3, seed=42)
        assert first.equals(small_numeric_table.sample(3, seed=42))

    def test_concat_keeps_nulls(self, mixed_table):
        combined = mixed_table.concat(mixed_table)
        assert combined.null_mask("category").tolist() == [False, True, False, False] * 2
        assert combined.null_mask("value").tolist() == [False, False, True, False] * 2

    def test_with_column_length_mismatch(self, small_numeric_table):
        with pytest.raises(TableError):
            small_numeric_table.with_column(Column("d", DataType.FLOAT), [0.0] * 4)


class TestNullHandling:
    def test_null_mask_float(self, mixed_table):
        mask = mixed_table.null_mask("value")
        assert mask.tolist() == [False, False, True, False]

    def test_null_mask_string(self, mixed_table):
        mask = mixed_table.null_mask("category")
        assert mask.tolist() == [False, True, False, False]

    def test_null_mask_non_nullable(self, small_numeric_table):
        assert not small_numeric_table.null_mask("c").any()

    def test_drop_nulls_all_columns(self, mixed_table):
        clean = mixed_table.drop_nulls()
        assert clean.num_rows == 2

    def test_drop_nulls_subset(self, mixed_table):
        clean = mixed_table.drop_nulls(["value"])
        assert clean.num_rows == 3


class TestEquality:
    def test_equals_same_content(self, small_numeric_table):
        copy = small_numeric_table.take(np.arange(5))
        assert small_numeric_table.equals(copy)

    def test_equals_detects_difference(self, small_numeric_table):
        columns = {name: small_numeric_table.column(name) for name in small_numeric_table.schema.names}
        other = Table(small_numeric_table.schema, {**columns, "a": [0.0] * 5})
        assert not small_numeric_table.equals(other)

    def test_equals_nan_aware(self):
        table_one = Table.from_dict({"x": [1.0, None]})
        table_two = Table.from_dict({"x": [1.0, None]})
        assert table_one.equals(table_two)

    def test_repr_mentions_name(self, small_numeric_table):
        assert "numbers" in repr(small_numeric_table)


class TestVersionedUpdates:
    def test_fresh_tables_are_version_zero(self, small_numeric_table):
        assert small_numeric_table.version == 0

    def test_append_rows_bumps_version_and_keeps_base(self, small_numeric_table):
        appended, delta = small_numeric_table.append_rows([(6.0, 60.0, 0), (7.0, 70.0, 1)])
        assert small_numeric_table.version == 0
        assert small_numeric_table.num_rows == 5
        assert appended.version == 1
        assert appended.num_rows == 7
        assert appended.column("a").tolist()[-2:] == [6.0, 7.0]
        assert delta.base_version == 0 and delta.new_version == 1
        assert delta.num_inserted == 2 and delta.num_deleted == 0

    def test_append_table_block_shares_schema(self, small_numeric_table):
        block = small_numeric_table.take(np.array([0, 1]))
        appended, _ = small_numeric_table.append_rows(block)
        assert appended.num_rows == 7

    def test_append_schema_mismatch_rejected(self, small_numeric_table, mixed_table):
        with pytest.raises(TableError):
            small_numeric_table.append_rows(mixed_table)

    def test_delete_rows_by_mask(self, small_numeric_table):
        mask = np.array([True, False, False, True, False])
        deleted, delta = small_numeric_table.delete_rows(mask)
        assert deleted.version == 1
        assert deleted.column("a").tolist() == [2.0, 3.0, 5.0]
        assert delta.num_deleted == 2
        assert delta.deleted_rows().tolist() == [0, 3]

    def test_delete_rows_by_indices(self, small_numeric_table):
        deleted, _ = small_numeric_table.delete_rows([0, 4])
        assert deleted.column("a").tolist() == [2.0, 3.0, 4.0]

    def test_delete_out_of_range_rejected(self, small_numeric_table):
        with pytest.raises(TableError):
            small_numeric_table.delete_rows([99])

    def test_update_rows_combined_single_version_bump(self, small_numeric_table):
        updated, delta = small_numeric_table.update_rows(
            insert=[(9.0, 90.0, 0)], delete=[0]
        )
        assert updated.version == 1
        assert updated.num_rows == 5
        assert updated.column("a").tolist() == [2.0, 3.0, 4.0, 5.0, 9.0]
        assert delta.num_inserted == 1 and delta.num_deleted == 1

    def test_apply_delta_wrong_version_rejected(self, small_numeric_table):
        appended, delta = small_numeric_table.append_rows([(6.0, 60.0, 0)])
        with pytest.raises(TableError, match="version"):
            appended.apply_delta(delta)

    def test_deleted_rows_are_ascending(self, small_numeric_table):
        _, delta = small_numeric_table.update_rows(insert=[(6.0, 60.0, 0)], delete=[3, 1])
        assert delta.deleted_rows().tolist() == [1, 3]

    def test_chained_versions(self, small_numeric_table):
        table = small_numeric_table
        for expected in (1, 2, 3):
            table, _ = table.append_rows([(1.0, 1.0, 1)])
            assert table.version == expected
        assert table.num_rows == 8

    def test_version_in_repr(self, small_numeric_table):
        appended, _ = small_numeric_table.append_rows([(6.0, 60.0, 0)])
        assert "version=1" in repr(appended)

    def test_string_and_null_columns_survive_updates(self, mixed_table):
        appended, _ = mixed_table.append_rows(
            [{"name": "epsilon", "category": None, "value": None, "weight": 5.0}]
        )
        assert appended.column("name")[-1] == "epsilon"
        assert appended.column("category")[-1] is None
        deleted, _ = appended.delete_rows([0])
        assert deleted.column("name")[0] == "beta"

    def test_delete_rejects_non_integer_indices(self, small_numeric_table):
        with pytest.raises(TableError, match="integer"):
            small_numeric_table.delete_rows(np.array([1.9, 2.9]))

    def test_delete_empty_index_list_is_noop(self, small_numeric_table):
        deleted, delta = small_numeric_table.delete_rows([])
        assert deleted.version == 1
        assert deleted.num_rows == 5
        assert delta.num_deleted == 0

    def test_delta_rejects_non_boolean_mask(self, small_numeric_table):
        from repro.dataset.table import TableDelta

        empty = Table.empty(small_numeric_table.schema)
        with pytest.raises(TableError, match="boolean"):
            TableDelta(0, empty, np.array([0, 1, 0, 0, 1]))

    def test_delete_rejects_duplicate_indices(self, small_numeric_table):
        # Catches 0/1 masks passed as ints, which would silently delete the
        # wrong rows if interpreted as indices.
        with pytest.raises(TableError, match="duplicate"):
            small_numeric_table.delete_rows([0, 1, 1, 0])


def reference_apply_delta(table: Table, delta) -> dict:
    """The columns ``Table.apply_delta`` built before it copied runs: gather
    the survivors through the keep mask, then concatenate the inserts."""
    keep = ~delta.deleted_mask
    keep_all = bool(keep.all())
    arrays = {}
    for name in table.schema.names:
        base = table.column(name)
        survivors = base if keep_all else base[keep]
        if delta.num_inserted:
            arrays[name] = np.concatenate([survivors, delta.inserted.column(name)])
        else:
            arrays[name] = survivors
    return arrays


def assert_same_column(actual: np.ndarray, expected: np.ndarray) -> None:
    """Same dtype, shape and bytes (for object columns: the same objects)."""
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    if actual.dtype == object:
        assert all(a is b for a, b in zip(actual, expected))
    else:
        assert actual.tobytes() == expected.tobytes()


class TestRunCopiedApplyDelta:
    """``apply_delta`` writes survivor runs and the insert tail into one array
    per column; the result must be the mask-and-concatenate copy's, byte for
    byte and dtype for dtype."""

    CASES = {
        "deletes_at_both_ends": ([0, 8], 2),
        "adjacent_deletes": ([3, 4, 5], 0),
        "deletes_and_inserts": ([2, 6], 3),
        "all_rows_deleted": (list(range(9)), 2),
        "all_rows_deleted_no_insert": (list(range(9)), 0),
        "insert_only": ([], 3),
        "no_change": ([], 0),
    }

    @pytest.fixture
    def mixed(self):
        # int, float with NULLs, string with NULLs, and a flag given as bools.
        schema = Schema(
            [
                Column("i", DataType.INT),
                Column("f", DataType.FLOAT, nullable=True),
                Column("s", DataType.STRING, nullable=True),
                Column("flag", DataType.INT),
            ]
        )
        rows = range(9)
        return Table(
            schema,
            {
                "i": list(rows),
                "f": [0.5 * k if k % 3 else None for k in rows],
                "s": [f"r{k}" if k % 4 else None for k in rows],
                "flag": [k % 2 == 0 for k in rows],
            },
            name="mixed",
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_the_mask_and_concatenate_copy(self, mixed, case):
        deleted, inserted = self.CASES[case]
        insert = mixed.take(np.arange(inserted)) if inserted else None
        delta = mixed.make_delta(insert=insert, delete=deleted or None)
        result = mixed.apply_delta(delta)
        expected = reference_apply_delta(mixed, delta)
        assert result.version == 1
        for name in mixed.schema.names:
            assert_same_column(result.column(name), expected[name])

    def test_no_change_shares_the_base_arrays(self, mixed):
        result = mixed.apply_delta(mixed.make_delta())
        assert all(result.column(n) is mixed.column(n) for n in mixed.schema.names)

    @settings(max_examples=150, deadline=None)
    @given(dtype=st.sampled_from(["int64", "float64", "object", "bool"]), data=st.data())
    def test_without_rows_equals_gather_and_concatenate(self, dtype, data):
        num_rows = data.draw(st.integers(0, 40), label="num_rows")
        mask = np.array(
            data.draw(st.lists(st.booleans(), min_size=num_rows, max_size=num_rows)),
            dtype=bool,
        )
        num_tail = data.draw(st.integers(0, 3), label="num_tail")

        def column(length, offset):
            values = np.arange(offset, offset + length)
            if dtype == "object":
                return np.array([f"v{v}" for v in values.tolist()], dtype=object)
            if dtype == "float64":
                return np.where(values % 5 == 0, np.nan, values / 3.0)
            return (values % 2 == 0) if dtype == "bool" else values.astype(np.int64)

        base, tail = column(num_rows, 0), column(num_tail, 100)
        expected = np.concatenate([base[~mask], tail])
        runs = survivor_runs(np.flatnonzero(mask), num_rows)
        assert len(runs) == mask.sum() + 1
        assert_same_column(without_rows(base, runs, tail), expected)
