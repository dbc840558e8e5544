"""Unit and edge-case tests for the adaptive indexing tier.

Covers the :class:`repro.indexing.manager.IndexManager` itself (both
answers of the index, the cap, invalidation, thread safety), the
kernel/service/session wiring (``select_where``, replace-reloads, shared
managers on a multi-session server), the snapshot round-trip, and the
predicate edge cases uncovered while wiring the index into the hot path:
NaN values, empty/inverted ranges, all-rows-match and single-value
columns through ``select_where``, the sorted runs and zonemap pruning.
"""

from __future__ import annotations

import inspect
import math
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core.actions import scan_action, select_where_action
from repro.core.kernel import KernelConfig
from repro.core.session import ExplorationSession
from repro.engine.filter import Comparison, Predicate
from repro.errors import QueryError, StorageError
from repro.indexing import manager as manager_module
from repro.indexing.manager import (
    IndexManager,
    predicate_range,
)
from repro.indexing.sorted_index import FOLD_SHARE, SortedIndex
from repro.persist.diskstore import DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.service import LocalExplorationService, MultiSessionServer, SchedulerConfig
from repro.storage.column import Column
from repro.storage.dtypes import FLOAT32, INT32
from repro.storage.table import Table
from repro.touchio.device import DeviceProfile
from test_indexing_properties import assert_run_holds

FAST_PROFILE = DeviceProfile(
    name="idx-device",
    screen_width_cm=20.0,
    screen_height_cm=15.0,
    sampling_rate_hz=20.0,
    finger_width_cm=0.08,
)


def brute(data: np.ndarray, predicate: Predicate) -> np.ndarray:
    return np.nonzero(predicate.mask(data))[0]


@pytest.fixture
def random_data() -> np.ndarray:
    rng = np.random.default_rng(13)
    return rng.integers(0, 1_000, size=20_000, dtype=np.int64)


@pytest.fixture
def manager() -> IndexManager:
    return IndexManager()


class TestPredicateRange:
    def test_range_shapes(self):
        assert predicate_range(Predicate(Comparison.LT, 5.0)) == (-np.inf, 5.0)
        assert predicate_range(Predicate(Comparison.GE, 5.0)) == (5.0, np.inf)
        low, high = predicate_range(Predicate(Comparison.BETWEEN, 1.0, upper=2.0))
        assert low == 1.0 and high == np.nextafter(2.0, np.inf)
        low, high = predicate_range(Predicate(Comparison.EQ, 3.0))
        assert low == 3.0 and high == np.nextafter(3.0, np.inf)
        low, high = predicate_range(Predicate(Comparison.LE, 7.0))
        assert high == np.nextafter(7.0, np.inf)
        low, high = predicate_range(Predicate(Comparison.GT, 7.0))
        assert low == np.nextafter(7.0, np.inf)

    def test_non_ranges_are_refused(self):
        assert predicate_range(Predicate(Comparison.NE, 5.0)) is None
        assert predicate_range(Predicate(Comparison.LT, np.nan)) is None
        assert predicate_range(Predicate(Comparison.GT, np.inf)) is None
        assert predicate_range(Predicate(Comparison.BETWEEN, 0.0, upper=np.inf)) is None


#: One predicate per range comparison, for an int64 column of 0..999 and
#: for a float32 column on a grid of tenths.
SIX_COMPARISONS = {
    "int64": [
        Predicate(Comparison.BETWEEN, 100, upper=200),
        Predicate(Comparison.LT, 50),
        Predicate(Comparison.GE, 990),
        Predicate(Comparison.EQ, 123),
        Predicate(Comparison.GT, 998),
        Predicate(Comparison.LE, 1),
    ],
    "float32": [
        Predicate(Comparison.BETWEEN, 0.1, upper=0.3),
        Predicate(Comparison.LT, 0.3),
        Predicate(Comparison.GE, 0.2),
        Predicate(Comparison.EQ, 0.1),
        Predicate(Comparison.GT, 0.1),
        Predicate(Comparison.LE, 0.3),
    ],
}


class TestManagerStrategies:
    @pytest.mark.parametrize(
        "kind, predicate",
        [(kind, pred) for kind, predicates in SIX_COMPARISONS.items() for pred in predicates],
        ids=lambda value: getattr(getattr(value, "comparison", None), "name", value),
    )
    def test_index_selection_matches_brute_force(self, manager, random_data, kind, predicate):
        """A float32 column compares in float32 (numpy casts the operand to
        it), so an inclusive bound on 0.1 steps from float32(0.1)."""
        if kind == "float32":
            grid = np.asarray([0.1, 0.2, 0.3, 1.5, 2.0], dtype=np.float32)
            data = np.random.default_rng(13).choice(grid, size=20_000)
            column = Column("c", data, dtype=FLOAT32)
        else:
            data, column = random_data, Column("c", random_data)
        selection = manager.select_rowids("c", None, column, predicate)
        assert selection is not None and selection.strategy == "index"
        assert np.array_equal(selection.rowids, brute(data, predicate))

    def test_repeat_consultations_scan_less(self, manager, random_data):
        column = Column("c", random_data)
        predicate = Predicate(Comparison.BETWEEN, 300, upper=400)
        first = manager.select_rowids("c", None, column, predicate)
        second = manager.select_rowids("c", None, column, predicate)
        assert second.rows_scanned <= first.rows_scanned
        assert second.rows_scanned <= 2 * (math.isqrt(len(column) - 1) + 1)
        assert manager.stats.crackers_built == 1

    def test_ne_predicate_is_not_indexable(self, manager, random_data):
        column = Column("c", random_data)
        assert manager.select_rowids("c", None, column, Predicate(Comparison.NE, 5)) is None

    def test_non_numeric_column_refused(self, manager):
        column = Column("s", ["a", "b", "c"])
        assert (
            manager.select_rowids("s", None, column, Predicate(Comparison.EQ, 1)) is None
        )
        assert not manager.observe_predicate("s", None, column, Predicate(Comparison.EQ, 1))

    @pytest.mark.parametrize(
        "data",
        [
            # the 2**53 boundary, where float64 loses integer exactness:
            # the native-dtype index must agree with Predicate.mask
            # on both sides of it
            np.array([0, 2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2, 5], dtype=np.int64),
            np.array([-(2**53) - 1, -(2**53), -(2**53) + 1, -7, 0], dtype=np.int64),
            # int64 extremes
            np.array(
                [np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max],
                dtype=np.int64,
            ),
        ],
    )
    def test_huge_integers_crack_exactly(self, manager, data):
        """Regression for the deleted >2**53 refusal: int64 compares as int64."""
        column = Column("big", data)
        for operand in (
            float(2**53),
            float(2**53 - 1),
            float(-(2**53)),
            float(np.iinfo(np.int64).max),
            0.0,
        ):
            for comparison in (Comparison.GT, Comparison.LE, Comparison.EQ):
                predicate = Predicate(comparison, operand)
                selection = manager.select_rowids("big", None, column, predicate)
                assert selection is not None and selection.strategy == "index"
                assert np.array_equal(selection.rowids, brute(data, predicate))
        assert manager.cracker_for("big", None) is not None

    def test_empty_column_has_no_strategy(self, manager):
        column = Column("e", np.empty(0, dtype=np.int64))
        assert (
            manager.select_rowids("e", None, column, Predicate(Comparison.GT, 0)) is None
        )

    def test_paged_column_uses_disk_resident_cracker(self, manager, tmp_path):
        data = np.arange(50_000, dtype=np.int64)  # clustered: zones prune
        store = DiskColumnStore(tmp_path, cache_bytes=1 << 20)
        catalog = StoreCatalog(store)
        catalog.persist_column(Column("sorted", data), chunk_rows=1024)
        paged = catalog.load_column("sorted")
        predicate = Predicate(Comparison.BETWEEN, 10_000, upper=10_500)
        selection = manager.select_rowids("sorted", None, paged, predicate)
        assert selection.strategy == "index"
        assert np.array_equal(selection.rowids, brute(data, predicate))
        # zonemap pruning still bounds the work: only overlapping chunks
        assert selection.rows_scanned <= 2 * 1024
        assert manager.cracker_for("sorted", None) is not None
        # a scan of the kept chunks holds no index state at all
        assert manager.index_bytes == 0
        # repeat consultations scan the same chunks, no more
        again = manager.select_rowids("sorted", None, paged, predicate)
        assert again.rows_scanned <= selection.rows_scanned
        assert np.array_equal(again.rowids, brute(data, predicate))


#: The members of :class:`SortedIndex` the manager may use.
CRACKER_SURFACE = {
    "rows_in_range", "merge_tail", "covered_rows", "size_bytes",
    "values_scanned_total",
}  # fmt: skip


def _members_the_manager_reads() -> set[str]:
    """Every ``cracker.<name>`` the manager's source touches — the surface
    cannot drift from its one consumer."""
    source = Path(manager_module.__file__).read_text()
    return set(re.findall(r"\bcracker\.(\w+)", source))


class TestCrackerSurface:
    """The index over either column kind carries every member the manager
    calls or reads — a missing one is a named failure here, not a
    production AttributeError."""

    @pytest.fixture()
    def crackers(self, tmp_path):
        data = np.random.default_rng(5).integers(0, 1_000, size=4_096)
        catalog = StoreCatalog(DiskColumnStore(tmp_path, cache_bytes=1 << 20))
        catalog.persist_column(Column("c", data), chunk_rows=512)
        return SortedIndex(Column("c", data)), SortedIndex(catalog.load_column("c"))

    def test_the_manager_reads_nothing_outside_the_declared_surface(self):
        assert _members_the_manager_reads() <= CRACKER_SURFACE

    @pytest.mark.parametrize("member", sorted(CRACKER_SURFACE | _members_the_manager_reads()))
    def test_member_present_with_one_arity_on_both_kinds(self, crackers, member):
        in_memory, paged = crackers
        for cracker in crackers:
            cracker.rows_in_range(100.0, 200.0)
            assert hasattr(cracker, member), f"{type(cracker).__name__} lacks {member!r}"
        if callable(getattr(in_memory, member)):
            signatures = [inspect.signature(getattr(cracker, member)) for cracker in crackers]
            assert list(signatures[0].parameters) == list(signatures[1].parameters), member
        else:
            assert type(getattr(in_memory, member)) is type(getattr(paged, member)), member

    def test_one_ledger_counts_a_paged_index(self, crackers):
        _, paged = crackers
        paged.rows_in_range(100.0, 200.0)
        assert paged.values_scanned_total > 0
        assert paged.size_bytes == 0  # eight chunks: scanned, nothing built


class TestPagedPermutation:
    """Lookups on a uniform paged column — the zonemap offers every chunk,
    more than ``SCAN_MAX_CHUNKS`` — answer from the value-sorted runs:
    exact, binary-searched, nothing cracked."""

    @staticmethod
    def uniform(tmp_path, rows: int):
        data = np.random.default_rng(rows).integers(0, 1_000_000, size=rows, dtype=np.int64)
        catalog = StoreCatalog(DiskColumnStore(tmp_path / f"u{rows}", cache_bytes=1 << 20))
        # 256-row chunks: 79 / 313 of them, past SCAN_MAX_CHUNKS
        catalog.persist_column(Column("u", data), chunk_rows=256, hierarchy=False)
        return data, catalog.load_column("u")

    @pytest.mark.parametrize("rows", [20_000, 80_000])
    def test_every_selection_scans_at_most_two_runs(self, tmp_path, rows):
        data, paged = self.uniform(tmp_path, rows)
        manager = IndexManager()
        rng = np.random.default_rng(3)
        for _ in range(20):
            low = float(rng.integers(0, 990_000))
            predicate = Predicate(Comparison.BETWEEN, low, upper=low + 10_000)
            selection = manager.select_rowids("u", None, paged, predicate)
            assert selection.strategy == "index"
            assert np.array_equal(selection.rowids, brute(data, predicate))
            assert selection.rows_scanned <= 2 * (math.isqrt(rows - 1) + 1)  # 2 * ceil(sqrt(n))
        assert manager.cracker_for("u")._runs  # run 0, built by the first selection

    def test_refinement_over_cap_builds_nothing(self, tmp_path):
        _, paged = self.uniform(tmp_path, 20_000)
        manager = IndexManager()
        wide = Predicate(Comparison.BETWEEN, 200_000, upper=500_000)
        assert not manager.observe_predicate("u", None, paged, wide)
        assert manager.stats_snapshot()["cracker_bytes"] == 0  # not even run 0
        manager.select_rowids("u", None, paged, wide)
        before = manager.stats_snapshot()
        for low in range(0, 900_000, 100_000):
            narrow = Predicate(Comparison.BETWEEN, low, upper=low + 50_000)
            assert not manager.observe_predicate("u", None, paged, narrow)
        after = manager.stats_snapshot()
        assert after["crackers_built"] == 1
        assert after["cracker_bytes"] == before["cracker_bytes"] > 0

    def test_appends_become_sorted_runs_until_a_merge_folds_them(self, tmp_path):
        """A merge sorts only the rows it merges into a run behind run 0, so
        no selection scans a gap or rebuilds; the merge that takes the
        tail runs past ``FOLD_SHARE`` of run 0 folds them back into one."""
        rows = 20_000
        _, paged = self.uniform(tmp_path, rows)
        manager = IndexManager()
        predicate = Predicate(Comparison.BETWEEN, 300_000, upper=320_000)
        rng = np.random.default_rng(8)
        bound = 2 * (math.isqrt(rows - 1) + 1)

        def append(count: int) -> None:
            paged.append_batch(rng.integers(0, 1_000_000, size=count, dtype=np.int64))
            manager.extend_valid_prefix("u")

        def select():
            selection = manager.select_rowids("u", None, paged, predicate)
            assert np.array_equal(selection.rowids, brute(np.asarray(paged.values), predicate))
            assert np.array_equal(selection.values, np.asarray(paged.values)[selection.rowids])
            return selection

        select()
        cracker = manager.cracker_for("u")
        (built,) = cracker._runs
        append(700)
        assert select().rows_scanned >= 700  # the manager scans the unmerged tail
        assert manager.merge_tails("u") == 700 and cracker.covered_rows == 20_700
        assert select().rows_scanned <= bound  # binary searches: no gap is scanned
        assert cracker._runs[0] is built and len(cracker._runs) == 2
        assert (cracker._runs[1].start, cracker._runs[1].stop) == (20_000, 20_700)
        append(rows // 4 - 700)  # the tail runs reach FOLD_SHARE of run 0, not past it
        manager.merge_tails("u")
        assert cracker._runs[0] is built and len(cracker._runs) == 3
        assert select().rows_scanned <= bound
        assert rows * FOLD_SHARE == rows // 4
        append(1)
        manager.merge_tails("u")  # one row past the share: the merge rebuilds run 0
        (folded,) = cracker._runs
        assert folded is not built and (folded.start, folded.stop) == (0, len(paged))
        assert select().rows_scanned <= bound

    @pytest.mark.parametrize(
        "kind", ["int64 heavy ties", "int64 negative", "int32", "int64 at the packing limit"]
    )
    def test_the_packed_build_is_the_stable_order(self, tmp_path, kind):
        """An integer column whose value range fits beside the rowid bits
        is sorted as (value - lo, rowid) keys with nothing dropped: ties
        come out in rowid order, so the keys' rowids are exactly the
        stable argsort, and their high bits decode to the sorted values."""
        rows, rng = 200_000, np.random.default_rng(29)
        bits = (rows - 1).bit_length()
        dtype = None
        if kind == "int64 heavy ties":
            data = rng.integers(0, 1_000, size=rows)
        elif kind == "int64 negative":
            data = rng.integers(-500_000, 500_000, size=rows)
        elif kind == "int32":
            data, dtype = rng.integers(-(2**31), 2**31, size=rows, dtype=np.int32), INT32
        else:
            data = rng.integers(-(2**45), 2**45, size=rows)
            data[7], data[11] = -(2**45), 2**45 - 1
            assert int(data.max()) - int(data.min()) == 2 ** (64 - bits) - 1
        catalog = StoreCatalog(DiskColumnStore(tmp_path, cache_bytes=1 << 20))
        catalog.persist_column(Column("u", data, dtype=dtype), chunk_rows=256, hierarchy=False)
        paged = catalog.load_column("u")
        manager = IndexManager()
        low, high = np.quantile(data, [0.4, 0.45])
        predicate = Predicate(Comparison.BETWEEN, float(low), upper=float(high))
        selection = manager.select_rowids("u", None, paged, predicate)
        assert np.array_equal(selection.rowids, brute(data, predicate))
        (run,) = manager.cracker_for("u")._runs
        assert run.drop == 0
        assert np.array_equal(assert_run_holds(run, data), np.argsort(data, kind="stable"))
        assert manager.index_bytes == 8 * rows  # the keys, nothing beside them
        # an in-memory column of the same data makes the same keys
        in_memory = IndexManager()
        found = in_memory.select_rowids("u", None, Column("u", data, dtype=dtype), predicate)
        assert np.array_equal(found.rowids, brute(data, predicate))
        assert np.array_equal(in_memory.cracker_for("u")._runs[0].keys, run.keys)
        # the keys' high bits decode to the values in sorted order
        decoded = ((run.keys >> np.uint64(run.bits)) + np.uint64(run.lo % 2**64)).astype(data.dtype)
        assert np.array_equal(decoded, np.sort(data))
        assert np.array_equal(found.values, data[found.rowids])
        assert found.values.dtype == data.dtype

    def test_a_rebuild_over_merged_appends_holds_twelve_bytes_a_row(self, tmp_path):
        """The merge that folds the tail runs into run 0 drops the old runs
        first and packs base and tail straight into its keys: no int64 copy
        of the column sits beside the sort (20 bytes a row when it did)."""
        rows, rng = 1_000_000, np.random.default_rng(31)
        data = rng.integers(0, 1_000_000, size=rows)
        catalog = StoreCatalog(DiskColumnStore(tmp_path, cache_bytes=1 << 20))
        catalog.persist_column(Column("u", data), chunk_rows=4_096, hierarchy=False)
        paged = catalog.load_column("u")
        manager = IndexManager()
        predicate = Predicate(Comparison.BETWEEN, 420_000, upper=430_000)
        manager.select_rowids("u", None, paged, predicate)  # the first build
        paged.append_batch(rng.integers(0, 1_000_000, size=rows // 3))
        manager.extend_valid_prefix("u")
        assert rows // 3 > rows * FOLD_SHARE  # so the merge folds
        tracemalloc.start()
        try:
            assert manager.merge_tails("u") == rows // 3  # rebuilds run 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (run,) = manager.cracker_for("u")._runs
        assert run.stop == len(paged)
        selection = manager.select_rowids("u", None, paged, predicate)
        assert np.array_equal(selection.rowids, brute(np.asarray(paged.values), predicate))
        assert peak <= 12 * len(paged) * 1.01

    @pytest.mark.parametrize("paged", [False, True], ids=["in_memory", "paged"])
    def test_a_float_build_holds_twelve_bytes_a_row(self, tmp_path, paged):
        """A float64 column's first build is the integer build: one copy of
        the values turned into their images in place, the ``uint32`` row
        offsets ORed in, one ``uint64`` sort — 12 bytes a row at the peak
        and 8 held, traced; ±0.0, ±inf and NaN rows included."""
        rows, rng = 1_000_000, np.random.default_rng(37)
        data = rng.normal(0.0, 1.0, size=rows)
        data[rng.integers(0, rows, 5_000)] = np.nan
        data[rng.integers(0, rows, 5_000)] = -0.0
        data[rng.integers(0, rows, 500)] = np.inf
        data[rng.integers(0, rows, 500)] = -np.inf
        column = Column("f", data)
        if paged:
            catalog = StoreCatalog(DiskColumnStore(tmp_path, cache_bytes=1 << 20))
            catalog.persist_column(column, chunk_rows=4_096, hierarchy=False)
            column = catalog.load_column("f")
        manager = IndexManager()
        predicate = Predicate(Comparison.BETWEEN, -0.25, upper=0.0)
        tracemalloc.start()
        try:
            selection = manager.select_rowids("f", None, column, predicate)  # the first build
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the slack is fixed: numpy's ufunc cast buffers (64 KiB each)
        assert peak <= 12 * rows + 128 * 1024, f"{peak / rows:.2f} B/row"
        assert np.array_equal(selection.rowids, brute(data, predicate))
        assert selection.values is None  # a lossy run: the kernel gathers
        assert manager.index_bytes == 8 * rows

    def test_concurrent_lookups_survive_reclaims_exactly(self, tmp_path):
        """Selections and refinements race a thread that keeps unlinking
        the shared paged index: lookups in flight finish on their own
        reference, the next ones rebuild the runs, and every answer
        stays exact."""
        import sys

        data, paged = self.uniform(tmp_path, 20_000)
        manager = IndexManager()
        errors: list[Exception] = []

        def select(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(30):
                    low = float(rng.integers(0, 950_000))
                    predicate = Predicate(Comparison.BETWEEN, low, upper=low + 20_000)
                    manager.observe_predicate("u", None, paged, predicate)
                    selection = manager.select_rowids("u", None, paged, predicate)
                    if not np.array_equal(selection.rowids, brute(data, predicate)):
                        raise AssertionError(f"divergence for {predicate}")
            except Exception as exc:  # noqa: BLE001 - surfaced to the main thread
                errors.append(exc)

        selecting = threading.Event()
        selecting.set()

        def squeeze() -> None:
            while selecting.is_set():
                manager.clear()  # unlinks the index under the selectors

        selectors = [threading.Thread(target=select, args=(s,)) for s in range(5)]
        squeezer = threading.Thread(target=squeeze)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in (*selectors, squeezer):
                thread.start()
            for thread in selectors:
                thread.join(timeout=60)
        finally:
            selecting.clear()
            squeezer.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in (*selectors, squeezer))
        assert errors == []
        assert manager.stats.crackers_dropped > 0  # dropped indexes were rebuilt
        assert manager.stats_snapshot()["cracker_bytes"] == manager.index_bytes


class TestManagerLifecycle:
    def test_same_named_private_columns_keep_separate_state(self, manager):
        """Two same-named column objects must not thrash each other's cracker."""
        data_a = np.arange(100, dtype=np.int64)
        data_b = data_a[::-1].copy()
        a, b = Column("c", data_a), Column("c", data_b)
        predicate = Predicate(Comparison.LT, 50)
        for _ in range(3):  # alternating access must not rebuild anything
            sel_a = manager.select_rowids("c", None, a, predicate)
            sel_b = manager.select_rowids("c", None, b, predicate)
            assert np.array_equal(sel_a.rowids, brute(data_a, predicate))
            assert np.array_equal(sel_b.rowids, brute(data_b, predicate))
        assert manager.stats.crackers_built == 2
        assert manager.stats.crackers_dropped == 0

    def test_dead_column_states_are_pruned(self, manager):
        # a refused (uncrackable) state holds only a weakref to its column
        empty = Column("empty", np.empty(0, dtype=np.int64))
        manager.select_rowids("empty", None, empty, Predicate(Comparison.GT, 0))
        assert ("empty", None) in manager.tracked_keys
        del empty
        assert ("empty", None) not in manager.tracked_keys

    def test_cracker_cap_drops_least_recently_consulted(self):
        manager = IndexManager(max_crackers=2)
        predicate = Predicate(Comparison.LT, 10)
        columns = [Column(f"c{i}", np.arange(100, dtype=np.int64)) for i in range(3)]
        for i, column in enumerate(columns):
            manager.select_rowids(f"c{i}", None, column, predicate)
        assert manager.stats.crackers_built == 3
        assert manager.stats.crackers_dropped == 1
        assert manager.cracker_for("c0", None) is None  # the LRU victim
        assert manager.cracker_for("c1", None) is not None
        assert manager.cracker_for("c2", None) is not None
        # the dropped column still answers correctly (cracker rebuilt)
        selection = manager.select_rowids("c0", None, columns[0], predicate)
        assert np.array_equal(selection.rowids, np.arange(10))

    def test_invalidate_drops_every_column_of_the_object(self, manager):
        table = Table.from_arrays(
            "t",
            {
                "a": np.arange(100, dtype=np.int64),
                "b": np.arange(100, dtype=np.int64) * 2,
            },
        )
        predicate = Predicate(Comparison.LT, 50)
        manager.select_rowids("t", "a", table.column("a"), predicate)
        manager.select_rowids("t", "b", table.column("b"), predicate)
        manager.select_rowids("other", None, Column("other", np.arange(10)), predicate)
        assert manager.invalidate("t") == 2
        assert manager.tracked_keys == [("other", None)]
        assert manager.index_bytes > 0  # the survivor's cracker is still charged

    def test_clear_releases_everything(self, manager):
        manager.select_rowids(
            "c", None, Column("c", np.arange(100)), Predicate(Comparison.LT, 5)
        )
        assert manager.clear() == 1
        assert manager.tracked_keys == []
        assert manager.index_bytes == 0

    def test_concurrent_refinement_and_lookup_stay_exact(self, random_data):
        manager = IndexManager()
        column = Column("c", random_data)
        errors: list[Exception] = []

        def hammer(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(30):
                    a = int(rng.integers(0, 900))
                    predicate = Predicate(Comparison.BETWEEN, a, upper=a + 50)
                    if rng.random() < 0.5:
                        manager.observe_predicate("c", None, column, predicate)
                    selection = manager.select_rowids("c", None, column, predicate)
                    expected = brute(random_data, predicate)
                    if not np.array_equal(selection.rowids, expected):
                        raise AssertionError(f"divergence for {predicate}")
            except Exception as exc:  # noqa: BLE001 - surfaced to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        (run,) = manager.cracker_for("c", None)._runs
        assert run.drop == 0
        rowids = assert_run_holds(run, random_data)
        assert np.array_equal(rowids, np.argsort(random_data, kind="stable"))


class TestKernelSelectWhere:
    def make_session(self, **config_kwargs) -> ExplorationSession:
        return ExplorationSession(
            profile=FAST_PROFILE, config=KernelConfig(**config_kwargs)
        )

    def test_predicate_defaults_to_the_views_action(self, random_data):
        session = self.make_session()
        session.load_column("c", random_data)
        view = session.show_column("c")
        predicate = Predicate(Comparison.BETWEEN, 100, upper=200)
        session.choose_action(view, scan_action(predicate))
        selection = session.select_where(view)
        assert np.array_equal(selection.rowids, brute(random_data, predicate))

    def test_missing_predicate_raises(self, random_data):
        session = self.make_session()
        session.load_column("c", random_data)
        view = session.show_column("c")
        with pytest.raises(QueryError):
            session.select_where(view)

    def test_table_requires_select_where_action(self):
        session = self.make_session()
        session.load_table("t", {"a": np.arange(100), "b": np.arange(100)})
        view = session.show_table("t")
        with pytest.raises(QueryError):
            session.select_where(view, Predicate(Comparison.LT, 10))

    def test_table_projection_returns_selected_attributes(self):
        session = self.make_session()
        n = 2_000
        amounts = np.arange(n, dtype=np.int64)
        session.load_table(
            "orders",
            {
                "amount": amounts,
                "customer": np.arange(n, dtype=np.int64) % 17,
            },
        )
        view = session.show_table("orders")
        predicate = Predicate(Comparison.GE, 1_500)
        session.choose_action(view, select_where_action("amount", predicate, ["customer"]))
        selection = session.select_where(view)
        expected = brute(amounts, predicate)
        assert np.array_equal(selection.rowids, expected)
        assert np.array_equal(selection.selected["customer"], expected % 17)
        assert selection.values is None

    def test_gestures_build_nothing_and_the_bulk_query_indexes(self, random_data):
        session = self.make_session()
        session.load_column("c", random_data)
        view = session.show_column("c")
        predicate = Predicate(Comparison.BETWEEN, 250, upper=260)
        session.choose_action(view, scan_action(predicate))
        session.slide(view, duration=0.4)
        assert session.kernel.index_manager.cracker_for("c", None) is None
        selection = session.select_where(view)
        assert selection.strategy == "index"
        assert selection.rows_scanned < len(random_data)
        assert np.array_equal(selection.rowids, brute(random_data, predicate))

    def test_disabled_indexing_scans_and_matches(self, random_data):
        session = self.make_session(enable_indexing=False)
        session.load_column("c", random_data)
        view = session.show_column("c")
        predicate = Predicate(Comparison.LT, 42)
        selection = session.select_where(view, predicate)
        assert selection.strategy == "scan"
        assert selection.rows_scanned == len(random_data)
        assert np.array_equal(selection.rowids, brute(random_data, predicate))

    def test_replace_reload_invalidates_cracked_state(self, random_data):
        session = self.make_session()
        session.load_column("c", random_data)
        view = session.show_column("c")
        predicate = Predicate(Comparison.BETWEEN, 0, upper=500)
        session.select_where(view, predicate)
        assert session.kernel.index_manager.cracker_for("c", None) is not None
        reloaded = (random_data + 7_000).astype(np.int64)
        session.load_column("c", reloaded, replace=True)
        assert session.kernel.index_manager.cracker_for("c", None) is None
        selection = session.select_where(view, predicate)
        assert np.array_equal(selection.rowids, brute(reloaded, predicate))


class TestPredicateEdgeCases:
    """NaN / empty / inverted / all-match / single-value, end to end."""

    _stores = 0

    def run_all_strategies(self, data: np.ndarray, predicate: Predicate, tmp_path):
        """The same predicate through the sorted runs, zonemap-chunks and scan."""
        expected = brute(data, predicate)
        # the sorted runs (in-memory, indexing on)
        manager = IndexManager()
        indexed = manager.select_rowids("d", None, Column("d", data), predicate)
        if indexed is not None:
            assert np.array_equal(indexed.rowids, expected)
        # zonemap chunk pruning (paged); one private store per invocation
        TestPredicateEdgeCases._stores += 1
        store = DiskColumnStore(
            tmp_path / f"s{TestPredicateEdgeCases._stores}", cache_bytes=1 << 20
        )
        catalog = StoreCatalog(store)
        catalog.persist_column(Column("d", data), chunk_rows=64, hierarchy=False)
        paged = catalog.load_column("d")
        chunked = manager.select_rowids("d-paged", None, paged, predicate)
        if chunked is not None:
            assert chunked.strategy == "index"
            assert np.array_equal(chunked.rowids, expected)
        return expected

    def test_nan_values_are_never_matched(self, tmp_path):
        rng = np.random.default_rng(5)
        data = rng.normal(100.0, 30.0, size=2_000)
        data[rng.random(2_000) < 0.2] = np.nan
        for predicate in (
            Predicate(Comparison.BETWEEN, 80.0, upper=120.0),
            Predicate(Comparison.LT, 100.0),
            Predicate(Comparison.GE, 100.0),
        ):
            expected = self.run_all_strategies(data, predicate, tmp_path)
            assert not np.isnan(data[expected]).any()

    def test_empty_range_returns_nothing_everywhere(self, tmp_path):
        data = np.arange(1_000, dtype=np.int64)
        predicate = Predicate(Comparison.EQ, 5_000)  # value not present
        expected = self.run_all_strategies(data, predicate, tmp_path)
        assert expected.size == 0
        between = Predicate(Comparison.BETWEEN, 400.5, upper=400.6)  # between rows
        assert self.run_all_strategies(data, between, tmp_path).size == 0

    def test_inverted_ranges_are_rejected_at_the_edges(self):
        with pytest.raises(QueryError):
            Predicate(Comparison.BETWEEN, 10.0, upper=5.0)
        index = SortedIndex(Column("c", np.arange(10)))
        with pytest.raises(StorageError):
            index.rows_in_range(10.0, 5.0)

    def test_all_rows_match(self, tmp_path):
        data = np.arange(1_000, dtype=np.int64)
        predicate = Predicate(Comparison.GE, 0)
        expected = self.run_all_strategies(data, predicate, tmp_path)
        assert expected.size == data.size

    def test_single_value_column(self, tmp_path):
        data = np.full(512, 7, dtype=np.int64)
        assert self.run_all_strategies(data, Predicate(Comparison.EQ, 7), tmp_path).size == 512
        assert self.run_all_strategies(data, Predicate(Comparison.LT, 7), tmp_path).size == 0
        assert self.run_all_strategies(data, Predicate(Comparison.GT, 7), tmp_path).size == 0
        assert (
            self.run_all_strategies(
                data, Predicate(Comparison.BETWEEN, 7, upper=7), tmp_path
            ).size
            == 512
        )


class TestSharedIndexServing:
    def test_sessions_share_cracked_state(self):
        rng = np.random.default_rng(31)
        data = rng.integers(0, 1_000, size=30_000, dtype=np.int64)
        server = MultiSessionServer(
            service_factory=lambda: LocalExplorationService(profile=FAST_PROFILE),
            shared_index=True,
        )
        server.load_shared_column("data", Column("data", data))
        first = server.open_session("s1")
        second = server.open_session("s2")
        predicate = Predicate(Comparison.BETWEEN, 100, upper=150)
        from repro.core.commands import ChooseAction, ShowColumn, Slide

        for sid in (first, second):
            server.execute(sid, ShowColumn(object_name="data", view_name="v"))
        server.execute(first, ChooseAction(view="v", action=scan_action(predicate)))
        server.execute(first, Slide(view="v", duration=0.4))
        assert server.index_manager.cracker_for("data", None) is None  # gestures build nothing
        # session 1's selection builds the shared index; session 2 reads it
        server.service(first).select_where("v", predicate)
        assert server.index_manager.cracker_for("data", None) is not None
        selection = server.service(second).select_where("v", predicate)
        assert selection.strategy == "index"
        assert selection.rows_scanned < len(data)
        assert server.index_manager.stats.crackers_built == 1
        assert np.array_equal(selection.rowids, brute(data, predicate))

    def test_shared_index_survives_service_reset(self):
        server = MultiSessionServer(shared_index=True)
        sid = server.open_session()
        service = server.service(sid)
        assert service.kernel.index_manager is server.index_manager
        service.reset()
        assert service.kernel.index_manager is server.index_manager

    def test_shared_index_respects_disabled_indexing(self):
        """An explicit enable_indexing=False session keeps its off switch."""
        server = MultiSessionServer(
            service_factory=lambda: LocalExplorationService(
                profile=FAST_PROFILE, config=KernelConfig(enable_indexing=False)
            ),
            shared_index=True,
        )
        sid = server.open_session()
        service = server.service(sid)
        assert service.kernel.index_manager is None
        service.reset()
        assert service.kernel.index_manager is None

    def test_concurrent_shared_index_under_scheduler(self):
        rng = np.random.default_rng(37)
        data = rng.integers(0, 1_000, size=20_000, dtype=np.int64)
        with MultiSessionServer(
            service_factory=lambda: LocalExplorationService(profile=FAST_PROFILE),
            scheduler=SchedulerConfig(num_workers=4),
            shared_index=True,
        ) as server:
            server.load_shared_column("data", Column("data", data))
            from repro.core.commands import ChooseAction, ShowColumn, Slide

            sessions = [server.open_session(f"s{i}") for i in range(4)]
            futures = []
            for i, sid in enumerate(sessions):
                server.execute(sid, ShowColumn(object_name="data", view_name="v"))
                predicate = Predicate(Comparison.BETWEEN, i * 100, upper=i * 100 + 80)
                server.execute(sid, ChooseAction(view="v", action=scan_action(predicate)))
                futures.append(server.submit(sid, Slide(view="v", duration=0.4)))
            for future in futures:
                future.result(timeout=30.0)
            server.drain(timeout=30.0)
            manager = server.index_manager
            assert manager.cracker_for("data", None) is None  # gestures build nothing
            for i in range(4):
                predicate = Predicate(Comparison.BETWEEN, i * 100, upper=i * 100 + 80)
                selection = manager.select_rowids(
                    "data", None, server.service(sessions[0]).catalog.column("data"), predicate
                )
                assert np.array_equal(selection.rowids, brute(data, predicate))
