"""Unit tests for fixed-width columns."""

import pickle

import numpy as np
import pytest

from repro.errors import IngestError, StorageError
from repro.storage.column import Column
from repro.storage.dtypes import FLOAT64
from repro.storage.table import Table


class TestConstruction:
    def test_from_list(self):
        col = Column("c", [1, 2, 3])
        assert len(col) == 3
        assert col.dtype.name == "int64"

    def test_from_numpy(self):
        col = Column("c", np.linspace(0, 1, 11))
        assert col.dtype.name == "float64"

    def test_explicit_dtype(self):
        col = Column("c", [1, 2, 3], dtype=FLOAT64)
        assert col.dtype.name == "float64"
        assert col.values.dtype == np.float64

    def test_rejects_2d(self):
        with pytest.raises(StorageError):
            Column("c", np.zeros((3, 3)))

    def test_repr_contains_name(self):
        assert "Column" in repr(Column("abc", [1]))

    def test_equality(self):
        assert Column("c", [1, 2]) == Column("c", [1, 2])
        assert Column("c", [1, 2]) != Column("c", [1, 3])
        assert Column("a", [1, 2]) != Column("b", [1, 2])

    def test_equality_with_other_type(self):
        assert Column("c", [1]).__eq__(42) is NotImplemented


class TestAccess:
    def test_value_at(self, small_column):
        assert small_column.value_at(0) == 0
        assert small_column.value_at(99) == 99

    def test_value_at_out_of_range(self, small_column):
        with pytest.raises(StorageError):
            small_column.value_at(100)
        with pytest.raises(StorageError):
            small_column.value_at(-1)

    def test_slice_clamps(self, small_column):
        assert list(small_column.slice(95, 200)) == [95, 96, 97, 98, 99]
        assert list(small_column.slice(-10, 3)) == [0, 1, 2]

    def test_slice_empty_when_inverted(self, small_column):
        assert len(small_column.slice(50, 40)) == 0

    def test_gather(self, small_column):
        out = small_column.gather([5, 1, 7])
        assert list(out) == [5, 1, 7]

    def test_gather_out_of_range(self, small_column):
        with pytest.raises(StorageError):
            small_column.gather([5, 100])

    def test_gather_empty(self, small_column):
        assert len(small_column.gather([])) == 0

    def test_iteration(self):
        assert list(Column("c", [3, 1, 2])) == [3, 1, 2]

    def test_getitem(self, small_column):
        assert small_column[10] == 10
        assert list(small_column[2:5]) == [2, 3, 4]


class TestDerived:
    def test_rename_shares_data(self, small_column):
        renamed = small_column.rename("other")
        assert renamed.name == "other"
        assert renamed.values is small_column.values

    def test_take_every(self, small_column):
        sampled = small_column.take_every(10)
        assert len(sampled) == 10
        assert list(sampled) == list(range(0, 100, 10))

    def test_take_every_invalid_step(self, small_column):
        with pytest.raises(StorageError):
            small_column.take_every(0)

    def test_copy_is_independent(self, small_column):
        clone = small_column.copy()
        clone.values[0] = 42
        assert small_column.value_at(0) == 0


class TestStats:
    def test_min_max_mean_std(self, small_column):
        assert small_column.min() == 0
        assert small_column.max() == 99
        assert small_column.mean() == pytest.approx(49.5)
        assert small_column.std() == pytest.approx(np.arange(100).std())

    def test_empty_column_stats(self):
        empty = Column("e", np.array([], dtype=np.int64))
        assert empty.min() is None
        assert empty.max() is None
        assert empty.mean() is None
        assert empty.std() is None

    def test_size_bytes(self, small_column):
        assert small_column.size_bytes == 100 * 8

    def test_is_numeric_for_strings(self):
        assert not Column("s", ["a", "b"]).is_numeric


class TestAppendBuffer:
    """``append_batch`` writes into spare capacity: amortised O(batch)."""

    def test_appends_after_the_first_growth_share_one_buffer(self):
        col = Column("c", np.arange(100, dtype=np.int64))
        col.append_batch([100])  # capacity == length: the one forced growth
        earlier = col.values
        for k in range(50):  # 101 + 50 rows fit the doubled buffer
            col.append_batch([101 + k])
            assert np.shares_memory(col.values, earlier)
        assert np.array_equal(col.values, np.arange(151))

    def test_thousand_appends_reallocate_logarithmically(self):
        col = Column("c", np.arange(8, dtype=np.int64))
        buffers = {col.values.__array_interface__["data"][0]}
        for k in range(1_000):
            col.append_batch([8 + k, 8 + k])
            buffers.add(col.values.__array_interface__["data"][0])
        assert np.array_equal(col.values[8:], np.repeat(np.arange(8, 1_008), 2))
        # 8 -> 2,008 rows by doubling: ceil(log2(2008 / 8)) = 8 growths
        assert len(buffers) - 1 <= 9

    def test_captured_values_stay_a_valid_prefix(self):
        col = Column("c", np.arange(10, dtype=np.int64))
        views = [col.values]
        for k in range(40):  # crosses several reallocations
            col.append_batch(np.arange(3, dtype=np.int64) + 100 * k)
            views.append(col.values)
        final = col.values.copy()
        for view in views:
            assert np.array_equal(view, final[: view.shape[0]])

    def test_callers_array_is_never_written(self):
        data = np.arange(16, dtype=np.int64)
        col = Column("c", data[:10])  # a view with room behind it, as far as numpy knows
        assert np.shares_memory(col.values, data)
        col.append_batch([-1, -2, -3])
        assert np.array_equal(data, np.arange(16))
        assert not np.shares_memory(col.values, data)

    def test_rename_clone_and_original_append_independently(self):
        col = Column("c", np.arange(4, dtype=np.int64))
        col.append_batch([4])  # the original now has spare capacity
        clone = col.rename("d")
        col.append_batch([5, 6])
        clone.append_batch([-5])
        col.append_batch([7])
        assert col.values.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
        assert clone.values.tolist() == [0, 1, 2, 3, 4, -5]

    def test_copies_and_pickles_carry_no_spare_capacity(self):
        col = Column("c", np.arange(1_000, dtype=np.int64))
        col.append_batch([1_000])  # capacity 2,000
        revived = pickle.loads(pickle.dumps(col))
        assert len(pickle.dumps(col)) < 1_500 * 8
        for twin in (col.copy(), revived):
            assert twin == col and len(twin) == 1_001
            before = twin.values
            twin.append_batch([-1])
            # capacity == length: the twin's first append had to reallocate
            assert not np.shares_memory(twin.values, before)
            assert not np.shares_memory(twin.values, col.values)
            assert col.values[-1] == 1_000 and len(col) == 1_001

    def test_refused_and_empty_appends_leave_the_column_alone(self):
        col = Column("c", np.arange(5, dtype=np.int64))
        col.append_batch([5])
        before = col.values
        with pytest.raises(IngestError):
            col.append_batch([1.5])
        with pytest.raises(IngestError):
            col.append_batch(np.zeros((2, 2)))
        assert col.append_batch([]) == 6
        assert col.values is before
        strings = Column("s", ["ab", "cd"])
        with pytest.raises(IngestError):
            strings.append_batch(["too long"])
        assert strings.values.tolist() == ["ab", "cd"]

    def test_table_append_is_atomic_when_only_one_column_reallocates(self):
        a = Column("a", np.arange(3, dtype=np.int64))
        a.append_batch([3])  # 4 rows in a 6-row buffer: room for the next batch
        b = Column("b", np.zeros(2))
        b.append_batch(np.zeros(2))  # 4 rows in a 4-row buffer: full
        table = Table("t", [a, b])
        a_view, b_view = a.values, b.values
        with pytest.raises(IngestError):
            table.append_batch({"a": [4], "b": ["not a float"]})
        with pytest.raises(IngestError):
            table.append_batch({"a": [4, 5], "b": [1.0]})
        assert a.values is a_view and b.values is b_view
        assert table.append_batch({"a": [4], "b": [1.0]}) == 5
        assert np.shares_memory(a.values, a_view)  # written in place
        assert not np.shares_memory(b.values, b_view)  # reallocated
        assert a.values.tolist() == [0, 1, 2, 3, 4]
        assert b.values.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
