"""Unit tests for the value-sorted index over an in-memory column."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.indexing.sorted_index import SortedIndex
from repro.storage.column import Column
from repro.storage.dtypes import FixedWidthType, TypeKind


@pytest.fixture
def random_column():
    rng = np.random.default_rng(5)
    return Column("random", rng.integers(0, 1000, size=10_000, dtype=np.int64))


class TestSortedIndex:
    """The manager's per-column index (``IndexManager.cracker_for``), a
    :class:`SortedIndex` over an in-memory column."""

    def test_range_lookup_correct(self, random_column):
        index = SortedIndex(random_column)
        expected = np.nonzero((random_column.values >= 100) & (random_column.values < 200))[0]
        result = index.rows_in_range(100, 200)[0]
        assert np.array_equal(result, expected)

    def test_lookup_without_cracking(self, random_column):
        """A lookup reorders nothing: its only state is run 0's packed keys,
        whose low bits are exactly the stable argsort, beside an untouched
        column."""
        before = random_column.values.copy()
        index = SortedIndex(random_column)
        result = index.rows_in_range(100, 200)[0]
        expected = np.nonzero((random_column.values >= 100) & (random_column.values < 200))[0]
        assert np.array_equal(result, expected)
        assert np.array_equal(random_column.values, before)
        (run,) = index._runs
        rowids = run.keys & np.uint64((1 << run.bits) - 1)
        assert np.array_equal(rowids, np.argsort(before, kind="stable"))

    def test_invalid_range(self, random_column):
        index = SortedIndex(random_column)
        with pytest.raises(StorageError):
            index.rows_in_range(200, 100)

    def test_non_numeric_rejected(self):
        with pytest.raises(StorageError):
            SortedIndex(Column("s", ["a", "b"]))

    @pytest.mark.parametrize("kind", ["int64", "uint64", "float64"])
    def test_empty_column_matches_nothing(self, kind):
        """No row to sort: a lookup answers empty rowids and values (it
        raised numpy's zero-size ``min`` error on an integer column)."""
        dtype = np.dtype(kind)
        # the type system names no uint64: the index is driven over one built here
        storage = FixedWidthType(kind, TypeKind.INTEGER, dtype) if kind == "uint64" else None
        index = SortedIndex(Column("e", np.empty(0, dtype=dtype), dtype=storage))
        rowids, values = index.rows_in_range(0, 10)
        assert rowids.dtype == np.int64 and rowids.size == 0
        assert values.dtype == dtype and values.size == 0
        assert index.size_bytes == 0
        with pytest.raises(StorageError):
            index.rows_in_range(10, 0)
