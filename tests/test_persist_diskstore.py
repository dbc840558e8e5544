"""Unit tests for the disk column store, chunk cache and paged columns."""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ChooseAction,
    GestureScript,
    KernelConfig,
    LocalExplorationService,
    ShowColumn,
    ShowTable,
    Slide,
)
from repro.core.actions import select_where_action
from repro.engine.filter import Comparison, Predicate
from repro.errors import PersistError, StorageError
from repro.indexing.manager import predicate_range
from repro.indexing.sorted_index import SortedIndex
from repro.persist.diskstore import ChunkCache, DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.storage.column import Column
from repro.storage.table import Table


@pytest.fixture
def store(tmp_path):
    return DiskColumnStore(tmp_path / "store", cache_bytes=1 << 20)


def make_column(n=10_000, name="m"):
    return Column(name, np.arange(n, dtype=np.int64))


class TestWriteOpenRoundTrip:
    def test_values_identical(self, store):
        column = make_column()
        store.write_column(column, chunk_rows=1024)
        reopened = store.open_column("m")
        assert len(reopened) == len(column)
        assert reopened.dtype.name == column.dtype.name
        assert np.array_equal(reopened.values[:], column.values)

    def test_read_surface_matches_in_memory(self, store):
        column = Column("m", np.random.default_rng(3).integers(0, 999, 5000))
        store.write_column(column, chunk_rows=512)
        paged = store.open_column("m")
        assert paged.value_at(4321) == column.value_at(4321)
        assert np.array_equal(paged.slice(500, 1600), column.slice(500, 1600))
        rowids = [0, 511, 512, 4999, 17]
        assert np.array_equal(paged.gather(rowids), column.gather(rowids))
        assert np.array_equal(paged.read_batch(rowids), column.read_batch(rowids))
        assert paged.min() == column.min()
        assert paged.max() == column.max()

    def test_bounds_checked_like_a_column(self, store):
        store.write_column(make_column(100), chunk_rows=16)
        paged = store.open_column("m")
        with pytest.raises(StorageError):
            paged.value_at(100)
        with pytest.raises(StorageError):
            paged.gather([0, 100])

    def test_open_is_memoized_one_mapping(self, store):
        store.write_column(make_column())
        assert store.open_column("m") is store.open_column("m")

    def test_zero_row_column(self, store):
        store.write_column(Column("empty", np.array([], dtype=np.int64)))
        paged = store.open_column("empty")
        assert len(paged) == 0
        assert paged.min() is None and paged.max() is None

    def test_string_column(self, store):
        column = Column("labels", np.array(["pear", "apple", "plum", "fig"]))
        store.write_column(column, chunk_rows=2)
        paged = store.open_column("labels")
        assert paged.value_at(1) == "apple"
        assert paged.min() == "apple" and paged.max() == "plum"

    def test_replace_required_for_overwrite(self, store):
        store.write_column(make_column())
        with pytest.raises(PersistError, match="replace"):
            store.write_column(make_column())
        store.write_column(Column("m", np.arange(5)), replace=True)
        assert len(store.open_column("m")) == 5

    def test_delete_column(self, store):
        store.write_column(make_column())
        store.delete_column("m")
        assert not store.has_column("m")
        with pytest.raises(PersistError):
            store.open_column("m")

    def test_names_with_separators_are_safe(self, store):
        store.write_column(make_column(50, name="sky/objects#1"))
        assert store.column_names == ["sky/objects#1"]
        assert store.open_column("sky/objects#1").value_at(7) == 7

    def test_streamed_chunks_must_match_declaration(self, store):
        from repro.storage.dtypes import INT64

        with pytest.raises(PersistError, match="expected"):
            store.write_chunks("bad", INT64, 10, iter([np.arange(3)]), chunk_rows=4)
        assert not store.has_column("bad")  # aborted write leaves nothing

    def test_narrowing_string_chunks_rejected(self, store):
        from repro.storage.dtypes import string_type

        chunks = iter([np.array(["ab", "cd"]), np.array(["abcdefgh", "ij"])])
        with pytest.raises(PersistError, match="losslessly"):
            store.write_chunks("s", string_type(2), 4, chunks, chunk_rows=2)

    def test_lossy_dtype_drift_rejected(self, store):
        from repro.storage.dtypes import INT64

        chunks = iter([np.arange(512, dtype=np.int64), np.linspace(0.0, 1.0, 512)])
        with pytest.raises(PersistError, match="losslessly"):
            store.write_chunks("drift", INT64, 1024, chunks, chunk_rows=512)
        assert not store.has_column("drift")

    def test_replace_reload_isolates_stale_readers(self, store):
        store.write_column(make_column(1000), chunk_rows=256)
        stale = store.open_column("m")
        assert stale.value_at(10) == 10  # chunk 0 resident under gen 0
        store.write_column(Column("m", np.arange(1000) * 2), replace=True)
        fresh = store.open_column("m")
        assert fresh is not stale
        # the fresh mapping must never see the stale generation's chunks
        assert fresh.value_at(10) == 20
        # and the stale reader keeps its consistent pre-replace view
        assert stale.value_at(20) == 20


class TestZonemaps:
    def test_chunk_ranges_persisted(self, store):
        values = np.asarray([5, 1, 9, 3, 7, 7, 2, 8, 0, 6])
        store.write_column(Column("z", values), chunk_rows=4)
        paged = store.open_column("z")
        assert paged.num_chunks == 3
        assert paged.chunk_range(0) == (1, 9)
        assert paged.chunk_range(2) == (0, 6)

    def test_min_max_without_faulting_data(self, store):
        store.write_column(make_column(), chunk_rows=1024)
        paged = store.open_column("m")
        assert paged.min() == 0 and paged.max() == 9999
        assert paged.chunks_touched == 0  # answered from the zonemap alone

    def test_predicate_pruning(self, store):
        store.write_column(make_column(), chunk_rows=1000)
        paged = store.open_column("m")
        assert paged.chunks_for_predicate(2500, 4200).tolist() == [2, 3, 4]

    def test_predicate_pruning_never_drops_nan_chunks(self, store):
        values = np.asarray([1.0, np.nan, 5.0, 100.0, 200.0, 300.0])
        store.write_column(Column("f", values), chunk_rows=3)
        paged = store.open_column("f")
        # chunk 0 has NaN zonemap bounds: it must be included, not pruned
        assert paged.chunks_for_predicate(0.0, 10.0).tolist() == [0]
        assert paged.chunks_for_predicate(150.0, 250.0).tolist() == [0, 1]

    def test_chunk_ranges_keep_the_column_dtype(self, store):
        # int64 envelopes stay exact past 2**53, float ones stay floats
        store.write_column(Column("big", np.arange(2**60, 2**60 + 100)), chunk_rows=100)
        low, high = store.open_column("big").chunk_range(0)
        assert low.dtype == high.dtype == np.int64
        assert int(low) == 2**60 and int(high) == 2**60 + 99
        rng = np.random.default_rng(3)
        store.write_column(Column("f", rng.normal(size=1000)), chunk_rows=500)
        paged = store.open_column("f")
        assert all(paged.chunk_range(i)[0].dtype == np.float64 for i in range(2))

    def test_no_false_prune_beyond_2_to_53(self, store):
        # 2**53 + 1 is not float64-representable, and a chunk of nothing
        # but 2**53 + 1 must stay a candidate for GT 2**53
        boundary = 2**53
        store.write_column(Column("edge", np.full(256, boundary + 1)), chunk_rows=256)
        paged = store.open_column("edge")
        low, high = predicate_range(Predicate(Comparison.GT, boundary), paged.dtype.numpy_dtype)
        assert paged.chunks_for_predicate(low, high).tolist() == [0]

    def test_eq_at_2_to_53_keeps_only_its_chunk(self, store):
        value = 2**53 + 1
        data = np.repeat(np.asarray([2**53 - 1, value]), 128)
        store.write_column(Column("eq", data), chunk_rows=128)
        paged = store.open_column("eq")
        low, high = predicate_range(Predicate(Comparison.EQ, value), paged.dtype.numpy_dtype)
        assert paged.chunks_for_predicate(low, high).tolist() == [1]


class TestChunkCache:
    def test_hits_and_misses_counted(self, store):
        store.write_column(make_column(), chunk_rows=1024)
        paged = store.open_column("m")
        paged.value_at(10)
        paged.value_at(20)  # same chunk: hit
        paged.value_at(2048)  # different chunk: miss
        assert store.cache.stats.misses == 2
        assert store.cache.stats.hits == 1

    def test_byte_budget_evicts_lru(self, tmp_path):
        store = DiskColumnStore(tmp_path, cache_bytes=3 * 1024 * 8)
        store.write_column(make_column(), chunk_rows=1024)  # 8 KiB per chunk
        paged = store.open_column("m")
        for chunk in range(5):
            paged.value_at(chunk * 1024)
        assert store.cache.stats_snapshot()["bytes_cached"] <= 3 * 1024 * 8
        assert store.cache.stats.evictions >= 2
        assert paged.chunks_touched == 5

    def test_oversized_chunk_still_served(self, tmp_path):
        store = DiskColumnStore(tmp_path, cache_bytes=16)
        store.write_column(make_column(100), chunk_rows=100)
        assert store.open_column("m").value_at(50) == 50

    def test_resident_reads_are_copies_of_disk(self, store):
        column = make_column(2000)
        store.write_column(column, chunk_rows=512)
        paged = store.open_column("m")
        window = paged.slice(0, 512)
        assert np.array_equal(window, column.values[:512])
        # served from the cache's materialized chunk, not the raw memmap
        assert not isinstance(window, np.memmap)

    def test_invalid_capacity(self):
        with pytest.raises(PersistError):
            ChunkCache(0)


class TestGatherThroughTheMapping:
    """``read_batch`` is one gather: O(rows read), nothing materialised."""

    @staticmethod
    def _data(kind: str, n: int, offset: int = 0) -> np.ndarray:
        ramp = np.arange(offset, offset + n)
        if kind == "int64":
            return ramp.astype(np.int64) * 7 - 3
        if kind == "float64":
            values = ramp.astype(np.float64) / 3.0
            values[::5] = np.nan
            return values
        return np.array([f"{i:04d}" for i in ramp], dtype="U4")

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["int64", "float64", "U4"]),
        rows=st.integers(0, 200),
        chunk_rows=st.integers(1, 64),
        tail_rows=st.integers(0, 70),
        data=st.data(),
    )
    def test_read_batch_equals_values_fancy_index(
        self, kind, rows, chunk_rows, tail_rows, data
    ):
        if kind == "U4":
            tail_rows = 0  # string zones have no min/max: base-only
        with tempfile.TemporaryDirectory() as root:
            store = DiskColumnStore(root, cache_bytes=1 << 16)
            store.write_column(Column("c", self._data(kind, rows)), chunk_rows=chunk_rows)
            paged = store.open_column("c")
            stages = [self._data(kind, rows)]
            if tail_rows:
                stages.append(self._data(kind, rows + tail_rows))
            for reference in stages:
                if len(reference) > len(paged):
                    paged.append_batch(reference[len(paged) :])
                n = len(reference)
                # the multiset: unsorted, duplicated, possibly empty, plus
                # every chunk boundary and the base/tail straddle
                edges = [
                    r
                    for k in range(1, n // chunk_rows + 1)
                    for r in (k * chunk_rows - 1, k * chunk_rows)
                    if r < n
                ] + [r for r in (rows - 1, rows, n - 1) if 0 <= r < n]
                drawn = (
                    data.draw(st.lists(st.integers(0, n - 1), max_size=40)) if n else []
                )
                for rowids in (drawn, sorted(drawn), edges, drawn[:1], []):
                    idx = np.asarray(rowids, dtype=np.int64)
                    got = paged.read_batch(rowids)
                    assert type(got) is np.ndarray and got.dtype == paged.values.dtype
                    # bit-identical, NaN payloads included
                    assert got.tobytes() == reference[idx].tobytes()
                    assert got.tobytes() == paged.values[idx].tobytes()
                    assert paged.gather(rowids).tobytes() == got.tobytes()
            assert store.cache.stats.insertions == 0 and len(store.cache) == 0

    def test_result_is_a_private_writable_array(self, store):
        column = make_column(5000)
        path = store.write_column(column, chunk_rows=512)
        on_disk = path.read_bytes()
        paged = store.open_column("m")
        for rowids in ([3, 4000, 511, 512], np.arange(1000, 3000)):
            got = paged.read_batch(rowids)
            assert not isinstance(got, np.memmap)
            assert got.flags.writeable and not np.shares_memory(got, paged.values)
            got[:] = -1
        assert path.read_bytes() == on_disk
        assert np.array_equal(paged.values[:], column.values)

    def test_reads_after_compaction_are_tail_free_and_equal(self, tmp_path):
        catalog = StoreCatalog(DiskColumnStore(tmp_path, cache_bytes=1 << 16))
        catalog.persist_column(make_column(1000, name="c"), chunk_rows=128)
        catalog.load_column("c").append_batch(np.arange(1000, 1300, dtype=np.int64))
        rowids = [1299, 0, 999, 1000, 127, 128, 1000]
        before = catalog.load_column("c").read_batch(rowids)
        assert catalog.compact_appends("c") == 1300
        compacted = catalog.load_column("c")
        assert compacted.tail_rows == 0
        assert np.array_equal(compacted.read_batch(rowids), before)
        assert np.array_equal(before, rowids)

    def test_gather_refuses_rowids_a_fancy_index_would_wrap(self, store):
        store.write_column(make_column(100), chunk_rows=16)
        paged = store.open_column("m")
        paged.append_batch(np.arange(100, 110, dtype=np.int64))
        for bad in ([-1], [0, len(paged)], [5, -110]):
            with pytest.raises(StorageError):
                paged.gather(bad)
        assert np.array_equal(paged.gather([109, 0]), [109, 0])

    def test_gathers_are_counted_where_faults_used_to_be(self, store):
        store.write_column(make_column(), chunk_rows=1024)
        paged = store.open_column("m")
        paged.read_batch([1, 2000, 9000])
        paged.gather(np.arange(50))
        paged.read_batch([])
        snapshot = store.cache.stats_snapshot()
        assert snapshot["gathers"] == 3 and snapshot["rows_gathered"] == 53
        assert snapshot["chunk_misses"] == 0 and store.cache.stats.lookups == 0
        store.cache.clear()
        assert store.cache.stats_snapshot()["rows_gathered"] == 0

    def test_gesture_reads_materialise_nothing_whatever_the_column_size(self, tmp_path):
        """The size-independence guard: a count, not a clock."""
        chunk_rows, cache_chunks = 256, 4
        rows = 48 * cache_chunks * chunk_rows  # the column is 48x its cache
        rng = np.random.default_rng(5)
        arrays = {"a": rng.integers(0, 1_000_000, rows), "b": rng.normal(0.0, 1.0, rows)}
        predicate = Predicate(Comparison.BETWEEN, 100_000, 400_000)
        script = GestureScript(
            [
                ShowColumn(object_name="a", view_name="c", height_cm=10.0),
                Slide(view="c", duration=1.0, start_fraction=0.05, end_fraction=0.95),
                ShowTable(table_name="t", view_name="v", height_cm=10.0),
                ChooseAction(view="v", action=select_where_action("a", predicate, ["b"])),
                Slide(view="v", duration=1.0, start_fraction=0.9, end_fraction=0.1),
            ]
        )
        store = DiskColumnStore(tmp_path, cache_bytes=cache_chunks * chunk_rows * 8)
        for name, values in arrays.items():
            store.write_column(Column(name, values), chunk_rows=chunk_rows)
        assert store.on_disk_bytes("a") >= 48 * store.cache.capacity_bytes
        tables = {
            "paged": Table("t", [store.open_column("a"), store.open_column("b")]),
            "memory": Table.from_arrays("t", arrays),
        }
        results = {}
        for label, table in tables.items():
            service = LocalExplorationService(config=KernelConfig(latency_budget_s=1e6))
            service.load_table("t", table)
            service.load_column("a", table.column("a"))
            envelopes = service.run(script)
            selection = service.select_where("v")
            results[label] = (
                [(e.entries_returned, e.tuples_examined) for e in envelopes],
                selection.rowids.tolist(),
                selection.selected["b"].tobytes(),
            )
        assert results["paged"] == results["memory"]
        assert len(results["paged"][1]) > 0
        assert store.cache.stats.insertions == 0 and len(store.cache) == 0
        assert store.cache.stats.rows_gathered > 0

    def test_scan_only_paged_cracker_masks_a_view_not_a_copy(self, store):
        rng = np.random.default_rng(9)
        values = rng.normal(50.0, 10.0, 4096)
        # unclustered in 128 chunks: the sorted runs answer (45, 55) at
        # least; sorted into 16 chunks, every lookup scans the chunks the
        # zonemap keeps
        for name, data, chunk_rows in (("m", values, 32), ("s", np.sort(values), 256)):
            path = store.write_column(Column(name, data), chunk_rows=chunk_rows)
            on_disk = path.read_bytes()
            index = SortedIndex(store.open_column(name))
            for low, high in ((45.0, 55.0), (-np.inf, 30.0), (70.0, np.inf), (50.0, 50.0)):
                mask = (data >= low) & (data < high)
                assert np.array_equal(index.rows_in_range(low, high)[0], np.nonzero(mask)[0])
            assert (index.size_bytes > 0) == (name == "m")  # only "m" built a run
            assert path.read_bytes() == on_disk  # the mapping is intact
            assert store.cache.stats.lookups == 0  # never through the budgeted cache


class TestConcurrentSharedCache:
    """The chunk cache is shared by parallel scheduler workers."""

    def test_parallel_readers_race_safely(self, tmp_path):
        import threading

        store = DiskColumnStore(tmp_path, cache_bytes=6 * 512 * 8)
        store.write_column(make_column(20_000), chunk_rows=512)
        paged = store.open_column("m")
        errors = []

        def hammer(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(300):
                    rowid = int(rng.integers(0, 20_000))
                    assert paged.value_at(rowid) == rowid
            except Exception as exc:  # pragma: no cover - the assertion target
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert store.cache.stats.lookups == 8 * 300

    def test_parallel_gathers_lose_no_count_and_no_row(self, tmp_path):
        import sys
        import threading

        store = DiskColumnStore(tmp_path, cache_bytes=6 * 512 * 8)
        store.write_column(make_column(20_000), chunk_rows=512)
        paged = store.open_column("m")
        paged.append_batch(np.arange(20_000, 20_500, dtype=np.int64))
        errors = []

        def hammer(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(200):
                    rowids = rng.integers(0, 20_500, 25)
                    assert np.array_equal(paged.read_batch(rowids), rowids)
            except Exception as exc:  # pragma: no cover - the assertion target
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.cache.stats.gathers == 8 * 200
        assert store.cache.stats.rows_gathered == 8 * 200 * 25

    def test_racing_double_put_is_a_swap(self, tmp_path):
        store = DiskColumnStore(tmp_path, cache_bytes=1 << 20)
        store.write_column(make_column(1024), chunk_rows=512)
        chunk = np.arange(512, dtype=np.int64)
        # two workers materialize the same chunk and both put it
        store.cache.put("m", 0, chunk)
        store.cache.put("m", 0, chunk.copy())
        assert store.cache.stats_snapshot()["bytes_cached"] == 512 * 8  # the replaced copy left
        assert len(store.cache) == 1
        assert store.cache.stats.evictions == 0  # a swap is not an eviction
