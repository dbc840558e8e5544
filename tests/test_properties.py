"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.result_stream import ResultStream
from repro.core.touch_mapping import TouchMapper
from repro.engine.aggregate import make_aggregate
from repro.engine.filter import Comparison, Predicate
from repro.engine.join import BlockingHashJoin, join_arrays_symmetric
from repro.indexing.sorted_index import SortedIndex
from repro.storage.column import Column
from repro.storage.sample import SampleHierarchy
from repro.touchio.views import make_column_view

# keep hypothesis fast and deterministic inside the test suite
settings.register_profile("repro", max_examples=50, deadline=None, derandomize=True)
settings.load_profile("repro")


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestRuleOfThreeProperties:
    @given(
        touch=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        size=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
        n=st.integers(min_value=1, max_value=10**9),
    )
    def test_rowid_always_in_range(self, touch, size, n):
        rowid = TouchMapper.rule_of_three(min(touch, size), size, n)
        assert 0 <= rowid < n

    @given(
        n=st.integers(min_value=1, max_value=10**7),
        fractions=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2, max_size=20
        ),
    )
    def test_mapping_is_monotone_in_position(self, n, fractions):
        """Touching lower on the object never maps to an earlier tuple."""
        view = make_column_view("v", "o", num_tuples=n, height_cm=10.0)
        mapper = TouchMapper()
        ordered = sorted(fractions)
        rowids = [mapper.map_touch(view, 1.0, f * 10.0).rowid for f in ordered]
        assert rowids == sorted(rowids)

    @given(
        n=st.integers(min_value=1, max_value=10**7),
        fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_zoom_does_not_change_fraction_semantics(self, n, fraction):
        """The same *fractional* position maps to the same rowid at any zoom."""
        view = make_column_view("v", "o", num_tuples=n, height_cm=10.0)
        mapper = TouchMapper()
        before = mapper.map_touch(view, 1.0, fraction * view.height).rowid
        view.resize(2.0)
        after = mapper.map_touch(view, 1.0, fraction * view.height).rowid
        assert abs(after - before) <= max(1, n // 1000)


class TestAggregateProperties:
    @given(values=st.lists(finite_floats, min_size=1, max_size=200))
    def test_running_aggregates_match_numpy(self, values):
        arr = np.asarray(values, dtype=np.float64)
        for kind, expected in [
            ("sum", arr.sum()),
            ("avg", arr.mean()),
            ("min", arr.min()),
            ("max", arr.max()),
            ("count", float(len(arr))),
        ]:
            agg = make_aggregate(kind)
            for i, v in enumerate(arr):
                agg.on_touch(i, float(v))
            assert agg.current() == pytest.approx(expected, rel=1e-9, abs=1e-6)

    @given(values=st.lists(finite_floats, min_size=2, max_size=200))
    def test_std_matches_numpy(self, values):
        arr = np.asarray(values, dtype=np.float64)
        agg = make_aggregate("std")
        agg.update_many(arr)
        assert agg.current() == pytest.approx(arr.std(), rel=1e-6, abs=1e-6)

    @given(
        values=st.lists(finite_floats, min_size=1, max_size=100),
        split=st.integers(min_value=0, max_value=100),
    )
    def test_order_of_batching_does_not_matter(self, values, split):
        arr = np.asarray(values, dtype=np.float64)
        split = min(split, len(arr))
        one = make_aggregate("avg")
        one.update_many(arr)
        two = make_aggregate("avg")
        two.update_many(arr[:split])
        two.update_many(arr[split:])
        assert one.current() == pytest.approx(two.current(), rel=1e-9, abs=1e-9)


class TestPredicateProperties:
    @given(values=st.lists(finite_floats, min_size=1, max_size=100), operand=finite_floats)
    def test_mask_agrees_with_matches(self, values, operand):
        arr = np.asarray(values, dtype=np.float64)
        comparisons = (
            Comparison.LT, Comparison.LE, Comparison.GT,
            Comparison.GE, Comparison.EQ, Comparison.NE,
        )
        for comparison in comparisons:
            pred = Predicate(comparison, operand)
            mask = pred.mask(arr)
            assert list(mask) == [pred.matches(float(v)) for v in arr]


class TestSampleHierarchyProperties:
    @given(
        n=st.integers(min_value=64, max_value=5000),
        factor=st.integers(min_value=2, max_value=8),
        stride=st.integers(min_value=1, max_value=2000),
    )
    def test_level_for_stride_never_exceeds_stride(self, n, factor, stride):
        hierarchy = SampleHierarchy(Column("c", np.arange(n)), factor=factor, min_rows=8)
        level = hierarchy.level_for_stride(stride)
        assert level.step <= max(1, stride)

    @given(
        n=st.integers(min_value=64, max_value=5000),
        rowid_fraction=st.floats(min_value=0.0, max_value=0.999),
    )
    def test_read_at_returns_nearby_value(self, n, rowid_fraction):
        column = Column("c", np.arange(n))
        hierarchy = SampleHierarchy(column, factor=4, min_rows=8)
        rowid = int(rowid_fraction * n)
        value, level = hierarchy.read_at(rowid, stride_hint=64)
        assert abs(int(value) - rowid) <= level.step


class TestJoinProperties:
    @given(
        left=st.lists(st.integers(min_value=0, max_value=10), min_size=0, max_size=60),
        right=st.lists(st.integers(min_value=0, max_value=10), min_size=0, max_size=60),
    )
    def test_symmetric_join_matches_blocking_join(self, left, right):
        left_arr, right_arr = np.asarray(left), np.asarray(right)
        symmetric = join_arrays_symmetric(left_arr, right_arr) if len(left) or len(right) else None
        blocking = BlockingHashJoin().join(left, right)
        symmetric_count = symmetric.num_matches if symmetric else 0
        assert symmetric_count == len(blocking)


class TestCrackerProperties:
    @given(
        values=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=300),
        bounds=st.tuples(
            st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=1000)
        ),
    )
    def test_cracked_lookup_matches_scan(self, values, bounds):
        low, high = min(bounds), max(bounds)
        column = Column("c", np.asarray(values))
        index = SortedIndex(column)
        expected = set(np.nonzero((column.values >= low) & (column.values < high))[0].tolist())
        got = set(index.rows_in_range(low, high)[0].tolist())
        assert got == expected

    @given(
        values=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=200),
        pivots=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=10),
    )
    def test_pieces_always_partition(self, values, pivots):
        """Run 0 partitions the column: every rowid once, in value order —
        its packed keys decode to the rowids of the sorted values."""
        index = SortedIndex(Column("c", np.asarray(values)))
        for pivot in pivots:
            index.rows_in_range(float(pivot), float(pivot) + 10.0)
        (run,) = index._runs
        rowids = (run.keys & np.uint64((1 << run.bits) - 1)).astype(np.int64)
        assert np.array_equal(np.sort(rowids), np.arange(len(values)))
        ordered = np.asarray(values)[rowids]
        assert (ordered[:-1] <= ordered[1:]).all()
        assert np.array_equal(run.keys, np.sort(run.keys))


class TestResultStreamProperties:
    @given(
        timestamps=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=50
        )
    )
    def test_visible_results_have_valid_opacity(self, timestamps):
        stream = ResultStream(fade_seconds=2.0)
        for i, t in enumerate(sorted(timestamps)):
            stream.emit(i, i, 0.5, t)
        now = sorted(timestamps)[-1] + 1.0
        for visible in stream.visible_at(now):
            assert 0.0 < visible.opacity <= 1.0
