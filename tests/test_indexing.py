"""Unit tests for zone maps, the sorted index and per-sample-level indexes."""

import numpy as np
import pytest

from repro.engine.filter import Comparison, Predicate
from repro.errors import SampleError, StorageError
from repro.indexing.sample_index import SampleLevelIndex
from repro.indexing.sorted_index import SortedIndex
from repro.indexing.zonemap import ZoneMap
from repro.storage.column import Column
from repro.storage.dtypes import FixedWidthType, TypeKind
from repro.storage.sample import SampleHierarchy


@pytest.fixture
def sorted_column():
    return Column("sorted", np.arange(10_000, dtype=np.int64))


@pytest.fixture
def random_column():
    rng = np.random.default_rng(5)
    return Column("random", rng.integers(0, 1000, size=10_000, dtype=np.int64))


class TestZoneMap:
    def test_zone_count(self, sorted_column):
        zm = ZoneMap(sorted_column, block_rows=1000)
        assert len(zm.zones) == 10

    def test_zone_minmax(self, sorted_column):
        zm = ZoneMap(sorted_column, block_rows=1000)
        zone = zm.zones[2]
        assert zone.minimum == 2000 and zone.maximum == 2999
        assert zone.num_rows == 1000

    def test_pruning_on_sorted_data(self, sorted_column):
        zm = ZoneMap(sorted_column, block_rows=1000)
        pred = Predicate(Comparison.BETWEEN, 5000, upper=5100)
        candidates = zm.candidate_zones(pred)
        assert len(candidates) == 1
        assert zm.pruned_fraction(pred) == pytest.approx(0.9)

    def test_no_pruning_on_uniform_random(self, random_column):
        zm = ZoneMap(random_column, block_rows=1000)
        pred = Predicate(Comparison.BETWEEN, 400, upper=600)
        assert zm.pruned_fraction(pred) == pytest.approx(0.0)

    def test_may_contain_operators(self, sorted_column):
        zm = ZoneMap(sorted_column, block_rows=1000)
        zone = zm.zones[0]  # covers 0..999
        assert zone.may_contain(Predicate(Comparison.EQ, 500))
        assert not zone.may_contain(Predicate(Comparison.EQ, 5000))
        assert zone.may_contain(Predicate(Comparison.GE, 999))
        assert not zone.may_contain(Predicate(Comparison.GT, 999))
        assert zone.may_contain(Predicate(Comparison.LE, 0))
        assert not zone.may_contain(Predicate(Comparison.LT, 0))
        assert zone.may_contain(Predicate(Comparison.NE, 5))

    def test_constructor_validation(self, sorted_column):
        with pytest.raises(StorageError):
            ZoneMap(sorted_column, block_rows=0)
        with pytest.raises(StorageError):
            ZoneMap(Column("s", ["a", "b"]))

    def test_int64_bounds_are_exact(self):
        # envelopes keep native int scalars, not lossy float64 coercions
        column = Column("big", np.arange(2**60, 2**60 + 100, dtype=np.int64))
        zm = ZoneMap(column, block_rows=100)
        zone = zm.zones[0]
        assert isinstance(zone.minimum, int) and isinstance(zone.maximum, int)
        assert zone.minimum == 2**60 and zone.maximum == 2**60 + 99

    def test_no_false_prune_beyond_2_to_53(self):
        # 2**53 + 1 is not float64-representable: a float envelope rounds
        # the block max down to 2**53, and GT-2**53 then wrongly prunes a
        # block that is nothing *but* matches
        boundary = 2**53
        column = Column("edge", np.full(256, boundary + 1, dtype=np.int64))
        zm = ZoneMap(column, block_rows=256)
        pred = Predicate(Comparison.GT, boundary)
        assert zm.zones[0].may_contain(pred)
        assert [z.start for z in zm.candidate_zones(pred)] == [0]
        assert zm.pruned_fraction(pred) == pytest.approx(0.0)

    def test_exact_bounds_eq_at_boundary(self):
        # EQ on the unrepresentable neighbour must keep the right block
        value = 2**53 + 1
        data = np.concatenate(
            [
                np.full(128, 2**53 - 1, dtype=np.int64),
                np.full(128, value, dtype=np.int64),
            ]
        )
        zm = ZoneMap(Column("eq", data), block_rows=128)
        pred = Predicate(Comparison.EQ, value)
        candidates = zm.candidate_zones(pred)
        assert [z.start for z in candidates] == [128]

    def test_float_columns_keep_float_bounds(self):
        rng = np.random.default_rng(3)
        zm = ZoneMap(Column("f", rng.normal(size=1000)), block_rows=500)
        for zone in zm.zones:
            assert isinstance(zone.minimum, float) and isinstance(zone.maximum, float)


class TestCrackerIndex:
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


class TestSampleLevelIndex:
    def test_lazy_builds(self, sorted_column):
        hierarchy = SampleHierarchy(sorted_column, factor=4, min_rows=16)
        index = SampleLevelIndex(hierarchy)
        assert index.builds == 0
        assert index.lookup_range(100, 200, stride_hint=1).level == 0
        assert index.builds == 1
        index.lookup_range(100, 200, stride_hint=1)
        assert index.builds == 1  # the level's index is reused
        index.lookup_range(100, 200, stride_hint=64)
        assert index.builds == 2

    def test_lookup_correct_at_base_level(self, sorted_column):
        hierarchy = SampleHierarchy(sorted_column, factor=4)
        index = SampleLevelIndex(hierarchy)
        result = index.lookup_range(100, 110, stride_hint=1)
        assert list(result.base_rowids) == list(range(100, 111))
        assert result.level == 0

    def test_lookup_at_coarse_level_returns_base_rowids(self, sorted_column):
        hierarchy = SampleHierarchy(sorted_column, factor=4)
        index = SampleLevelIndex(hierarchy)
        result = index.lookup_range(0, 1000, stride_hint=64)
        assert result.step > 1
        assert all(r % result.step == 0 for r in result.base_rowids)

    def test_invalid_range(self, sorted_column):
        index = SampleLevelIndex(SampleHierarchy(sorted_column))
        with pytest.raises(SampleError):
            index.lookup_range(10, 5)
