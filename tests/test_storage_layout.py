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
    def test_read_tuple_counts_all_attributes(self, table):
        layout = ColumnStoreLayout(table)
        row = layout.read_tuple(3)
        assert row["a"] == 3 and row["b"] == 30
        assert layout.cells_touched == 3


class TestRowStore:
    def test_read_tuple(self, table):
        layout = RowStoreLayout(table)
        row = layout.read_tuple(2)
        assert row["a"] == 2
        assert list(row.keys()) == table.column_names

    def test_non_numeric_columns_supported(self):
        t = Table.from_arrays("t", {"a": [1, 2, 3], "label": ["x", "y", "z"]})
        layout = RowStoreLayout(t)
        assert layout.read_tuple(1)["label"] == "y"
        assert layout.read_tuple(2)["label"] == "z"


def test_conversion_cost(table):
    assert conversion_cost_cells(table) == len(table) * table.num_columns
