"""Unit tests for data loading (eager, CSV and adaptive)."""

import numpy as np
import pytest

from repro.errors import LoaderError, StorageError
from repro.storage.loader import (
    AdaptiveLoader,
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


class TestAdaptiveLoader:
    @staticmethod
    def _generator(start: int, stop: int) -> np.ndarray:
        return np.arange(start, stop, dtype=np.int64)

    def test_nothing_loaded_up_front(self):
        loader = AdaptiveLoader("lazy", 1000, self._generator, chunk_rows=100)
        assert loader.chunks_loaded == 0
        assert loader.fraction_loaded == 0.0

    def test_first_access_loads_one_chunk(self):
        loader = AdaptiveLoader("lazy", 1000, self._generator, chunk_rows=100)
        assert loader.value_at(250) == 250
        assert loader.chunks_loaded == 1
        assert loader.fraction_loaded == pytest.approx(0.1)

    def test_same_chunk_not_reloaded(self):
        loader = AdaptiveLoader("lazy", 1000, self._generator, chunk_rows=100)
        loader.value_at(5)
        loader.value_at(7)
        assert loader.chunks_loaded == 1

    def test_out_of_range(self):
        loader = AdaptiveLoader("lazy", 1000, self._generator)
        with pytest.raises(StorageError):
            loader.value_at(1000)

    def test_materialize(self):
        loader = AdaptiveLoader("lazy", 250, self._generator, chunk_rows=100)
        column = loader.materialize()
        assert len(column) == 250
        assert column.value_at(249) == 249
        assert loader.fraction_loaded == 1.0

    def test_bad_generator_length_detected(self):
        loader = AdaptiveLoader("bad", 100, lambda start, stop: np.arange(3), chunk_rows=50)
        with pytest.raises(StorageError):
            loader.value_at(0)

    def test_invalid_parameters(self):
        with pytest.raises(StorageError):
            AdaptiveLoader("bad", -1, self._generator)
        with pytest.raises(StorageError):
            AdaptiveLoader("bad", 10, self._generator, chunk_rows=0)


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
