"""Unit tests for tables and schemas."""

import pytest

from repro.errors import SchemaError, StorageError
from repro.storage.column import Column
from repro.storage.table import ColumnSpec, Schema, Table
from repro.storage.dtypes import INT64, FLOAT64


class TestSchema:
    def test_names_and_order(self):
        schema = Schema([ColumnSpec("a", INT64), ColumnSpec("b", FLOAT64)])
        assert schema.names == ["a", "b"]
        assert schema.index_of("b") == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([ColumnSpec("a", INT64), ColumnSpec("a", INT64)])

    def test_unknown_column(self):
        schema = Schema([ColumnSpec("a", INT64)])
        with pytest.raises(SchemaError):
            schema.index_of("missing")

    def test_contains(self):
        schema = Schema([ColumnSpec("a", INT64)])
        assert "a" in schema
        assert "b" not in schema

    def test_equality(self):
        s1 = Schema([ColumnSpec("a", INT64)])
        s2 = Schema([ColumnSpec("a", INT64)])
        s3 = Schema([ColumnSpec("a", FLOAT64)])
        assert s1 == s2
        assert s1 != s3

    def test_spec_lookup(self):
        schema = Schema([ColumnSpec("a", INT64)])
        assert schema.spec("a").dtype is INT64


class TestTableConstruction:
    def test_from_arrays(self, small_table):
        assert len(small_table) == 1000
        assert small_table.num_columns == 4
        assert small_table.column_names == ["id", "value", "category", "score"]

    def test_unequal_lengths_rejected(self):
        with pytest.raises(StorageError):
            Table("bad", [Column("a", [1, 2]), Column("b", [1])])

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(SchemaError):
            Table("bad", [Column("a", [1]), Column("a", [2])])

    def test_empty_column_list_rejected(self):
        with pytest.raises(SchemaError):
            Table("bad", [])

    def test_schema_matches_columns(self, small_table):
        schema = small_table.schema
        assert schema.names == small_table.column_names
        assert schema.spec("id").dtype.name == "int64"

    def test_size_bytes(self, small_table):
        assert small_table.size_bytes == sum(c.size_bytes for c in small_table.columns)


class TestTableAccess:
    def test_tuple_at(self, small_table):
        row = small_table.tuple_at(10)
        assert row["id"] == 10
        assert row["value"] == 20
        assert row["category"] == 3

    def test_tuple_at_out_of_range(self, small_table):
        with pytest.raises(StorageError):
            small_table.tuple_at(1000)

    def test_value_at(self, small_table):
        assert small_table.value_at(5, "value") == 10

    def test_column_lookup(self, small_table):
        assert small_table.column("score").dtype.name == "float64"

    def test_unknown_column(self, small_table):
        with pytest.raises(SchemaError):
            small_table.column("missing")

    def test_column_at(self, small_table):
        assert small_table.column_at(0).name == "id"
        with pytest.raises(SchemaError):
            small_table.column_at(4)

    def test_gather(self, small_table):
        out = small_table.gather([1, 3], columns=["id", "value"])
        assert list(out["id"]) == [1, 3]
        assert list(out["value"]) == [2, 6]

    def test_contains(self, small_table):
        assert "id" in small_table
        assert "nope" not in small_table
