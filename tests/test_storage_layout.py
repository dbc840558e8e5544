"""Unit tests for physical layouts and layout rotation."""

import numpy as np
import pytest

from repro.storage.layout import (
    ColumnStoreLayout,
    RowStoreLayout,
    conversion_cost_cells,
)
from repro.storage.table import Table


@pytest.fixture
def table():
    n = 100
    return Table.from_arrays(
        "t",
        {
            "a": np.arange(n, dtype=np.int64),
            "b": np.arange(n, dtype=np.int64) * 10,
            "c": np.linspace(0, 1, n),
        },
    )


class TestColumnStore:
    def test_read_cell(self, table):
        layout = ColumnStoreLayout(table)
        assert layout.read_cell(5, "b") == 50
        assert layout.cells_touched == 1

    def test_read_tuple_counts_all_attributes(self, table):
        layout = ColumnStoreLayout(table)
        row = layout.read_tuple(3)
        assert row["a"] == 3 and row["b"] == 30
        assert layout.cells_touched == 3

    def test_read_range_counts_rows(self, table):
        layout = ColumnStoreLayout(table)
        values = layout.read_column_range("a", 10, 20)
        assert list(values) == list(range(10, 20))
        assert layout.cells_touched == 10

    def test_read_range_clamped(self, table):
        layout = ColumnStoreLayout(table)
        assert len(layout.read_column_range("a", 95, 200)) == 5

    def test_empty_range(self, table):
        layout = ColumnStoreLayout(table)
        assert len(layout.read_column_range("a", 20, 10)) == 0
        assert layout.cells_touched == 0

    def test_reset_counters(self, table):
        layout = ColumnStoreLayout(table)
        layout.read_cell(0, "a")
        layout.reset_counters()
        assert layout.cells_touched == 0


class TestRowStore:
    def test_read_cell_charges_full_row(self, table):
        layout = RowStoreLayout(table)
        assert layout.read_cell(5, "b") == 50
        assert layout.cells_touched == table.num_columns

    def test_read_tuple(self, table):
        layout = RowStoreLayout(table)
        row = layout.read_tuple(2)
        assert row["a"] == 2
        assert list(row.keys()) == table.column_names

    def test_column_scan_drags_full_rows(self, table):
        layout = RowStoreLayout(table)
        values = layout.read_column_range("a", 0, 10)
        assert list(values) == list(range(10))
        assert layout.cells_touched == 10 * table.num_columns

    def test_non_numeric_columns_supported(self):
        t = Table.from_arrays("t", {"a": [1, 2, 3], "label": ["x", "y", "z"]})
        layout = RowStoreLayout(t)
        assert layout.read_cell(1, "label") == "y"
        assert layout.read_tuple(2)["label"] == "z"
        assert list(layout.read_column_range("label", 0, 2)) == ["x", "y"]


def test_conversion_cost(table):
    assert conversion_cost_cells(table) == len(table) * table.num_columns
