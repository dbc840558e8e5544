"""Unit tests for the sample hierarchy."""

import numpy as np
import pytest

from repro.errors import SampleError
from repro.storage.column import Column
from repro.storage.sample import SampleHierarchy


@pytest.fixture
def column():
    return Column("c", np.arange(10_000, dtype=np.int64))


class TestConstruction:
    def test_base_is_level_zero(self, column):
        h = SampleHierarchy(column, factor=4)
        assert h.level(0).step == 1
        assert h.level(0).column is column

    def test_levels_shrink_by_factor(self, column):
        h = SampleHierarchy(column, factor=4, min_rows=64)
        steps = [lvl.step for lvl in h.levels]
        assert steps == sorted(steps)
        for prev, cur in zip(steps, steps[1:]):
            assert cur == prev * 4

    def test_min_rows_bound(self, column):
        h = SampleHierarchy(column, factor=4, min_rows=64)
        assert all(lvl.num_rows >= 64 for lvl in h.levels)

    def test_bad_factor(self, column):
        with pytest.raises(SampleError):
            SampleHierarchy(column, factor=1)

    def test_bad_min_rows(self, column):
        with pytest.raises(SampleError):
            SampleHierarchy(column, min_rows=0)

    def test_level_out_of_range(self, column):
        h = SampleHierarchy(column)
        with pytest.raises(SampleError):
            h.level(h.num_levels)

    def test_small_column_only_base(self):
        h = SampleHierarchy(Column("tiny", np.arange(10)), factor=4, min_rows=64)
        assert h.num_levels == 1

    def test_sample_bytes_excludes_base(self, column):
        h = SampleHierarchy(column, factor=4)
        assert h.total_sample_bytes < column.size_bytes


class TestLevelMapping:
    def test_base_rowid_round_trip(self, column):
        h = SampleHierarchy(column, factor=4)
        lvl = h.level(1)
        assert lvl.base_rowid(5) == 20
        assert lvl.sample_rowid(20) == 5

    def test_sample_rowid_clamped(self, column):
        h = SampleHierarchy(column, factor=4)
        lvl = h.level(1)
        assert lvl.sample_rowid(10_000_000) == lvl.num_rows - 1


class TestLevelSelection:
    def test_stride_one_uses_base(self, column):
        h = SampleHierarchy(column, factor=4)
        assert h.level_for_stride(1).step == 1

    def test_large_stride_uses_coarse_level(self, column):
        h = SampleHierarchy(column, factor=4)
        chosen = h.level_for_stride(100)
        assert chosen.step > 1
        assert chosen.step <= 100

    def test_stride_below_one_treated_as_one(self, column):
        h = SampleHierarchy(column, factor=4)
        assert h.level_for_stride(0).step == 1

    def test_chosen_level_never_exceeds_stride(self, column):
        h = SampleHierarchy(column, factor=4)
        for stride in (1, 3, 5, 17, 64, 999):
            assert h.level_for_stride(stride).step <= max(1, stride)


class TestReads:
    def test_read_at_base(self, column):
        h = SampleHierarchy(column, factor=4)
        value, lvl = h.read_at(123, stride_hint=1)
        assert value == 123
        assert lvl.level == 0

    def test_read_at_coarse_is_nearby(self, column):
        h = SampleHierarchy(column, factor=4)
        value, lvl = h.read_at(1000, stride_hint=64)
        assert lvl.step > 1
        # the sampled value is the nearest stored entry at that level
        assert abs(int(value) - 1000) < lvl.step

    def test_read_at_out_of_range(self, column):
        h = SampleHierarchy(column)
        with pytest.raises(SampleError):
            h.read_at(len(column))

    def test_read_window_base(self, column):
        h = SampleHierarchy(column, factor=4)
        window, lvl = h.read_window(100, half_window=5, stride_hint=1)
        assert lvl.level == 0
        assert list(window) == list(range(95, 106))

    def test_read_window_at_edges(self, column):
        h = SampleHierarchy(column, factor=4)
        window, _ = h.read_window(0, half_window=5, stride_hint=1)
        assert list(window) == list(range(0, 6))
        window, _ = h.read_window(len(column) - 1, half_window=5, stride_hint=1)
        assert window[-1] == len(column) - 1

    def test_read_window_coarse_smaller(self, column):
        h = SampleHierarchy(column, factor=4)
        fine, _ = h.read_window(5000, half_window=8, stride_hint=1)
        coarse, lvl = h.read_window(5000, half_window=8, stride_hint=256)
        assert lvl.step > 1
        assert len(coarse) <= len(fine)
