"""Unit tests for data loading (CSV and generated columns)."""

import pytest

from repro.errors import LoaderError, StorageError
from repro.storage.loader import (
    generate_integer_column,
    load_table_from_csv_file,
    load_table_from_csv_text,
)


class TestCsvLoading:
    CSV = "id,score,label\n1,0.5,alpha\n2,0.75,beta\n3,1.0,gamma\n"

    def test_types_inferred(self):
        table = load_table_from_csv_text("t", self.CSV)
        assert table.column("id").dtype.name == "int64"
        assert table.column("score").dtype.name == "float64"
        assert not table.column("label").is_numeric

    def test_values(self):
        table = load_table_from_csv_text("t", self.CSV)
        assert table.value_at(1, "id") == 2
        assert table.value_at(2, "label") == "gamma"

    def test_header_only_rejected(self):
        with pytest.raises(StorageError):
            load_table_from_csv_text("t", "a,b\n")

    def test_ragged_rows_rejected(self):
        with pytest.raises(StorageError):
            load_table_from_csv_text("t", "a,b\n1,2\n3\n")

    def test_alternate_delimiter(self):
        table = load_table_from_csv_text("t", "a;b\n1;2\n", delimiter=";")
        assert table.value_at(0, "b") == 2

    def test_from_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(self.CSV, encoding="utf-8")
        table = load_table_from_csv_file("t", path)
        assert len(table) == 3

    def test_from_file_explicit_encoding(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes("id,label\n1,café\n".encode("latin-1"))
        table = load_table_from_csv_file("t", path, encoding="latin-1")
        assert table.value_at(0, "label") == "café"

    def test_missing_file_raises_loader_error(self, tmp_path):
        with pytest.raises(LoaderError, match="cannot read CSV file"):
            load_table_from_csv_file("t", tmp_path / "absent.csv")

    def test_unreadable_encoding_raises_loader_error(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes("id,label\n1,café\n".encode("latin-1"))
        with pytest.raises(LoaderError, match="not valid utf-8"):
            load_table_from_csv_file("t", path)

    def test_unknown_encoding_raises_loader_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(self.CSV, encoding="utf-8")
        with pytest.raises(LoaderError, match="unknown text encoding"):
            load_table_from_csv_file("t", path, encoding="no-such-codec")

    def test_loader_error_is_a_storage_error(self):
        assert issubclass(LoaderError, StorageError)


class TestGeneratedColumn:
    def test_deterministic(self):
        a = generate_integer_column("c", 1000, seed=5)
        b = generate_integer_column("c", 1000, seed=5)
        assert a == b

    def test_range_respected(self):
        col = generate_integer_column("c", 10_000, low=10, high=20, seed=1)
        assert col.min() >= 10
        assert col.max() < 20

    def test_invalid_arguments(self):
        with pytest.raises(StorageError):
            generate_integer_column("c", -1)
        with pytest.raises(StorageError):
            generate_integer_column("c", 10, low=5, high=5)
