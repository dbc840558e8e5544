"""Live ingestion: append-capable columns, index validity windows, compaction.

The streaming-append tier lets data arrive *while* exploration is running:
``append_batch`` grows columns/tables in place, shown views re-bind via the
kernel's ``extend_object`` hook, and indexes stay valid over their prefix
window — the appended hot tail is scanned until a background merge folds
it into the index's window.  These tests pin the exactness contract at
every layer: storage, index, manager, paged columns, snapshot compaction,
service, and session.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.filter import Comparison, Predicate
from repro.errors import IngestError, ServiceError
from repro.indexing.manager import IndexManager
from repro.persist.diskstore import DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.storage.column import Column
from repro.storage.table import Table


# --------------------------------------------------------------------- #
# storage tier
# --------------------------------------------------------------------- #


class TestColumnAppend:
    def test_grows_in_place_same_object(self):
        column = Column("c", np.arange(10, dtype=np.int64))
        alias = column
        assert column.append_batch([10, 11]) == 12
        assert len(alias) == 12
        assert alias.values[-1] == 11

    def test_empty_batch_is_noop(self):
        column = Column("c", np.arange(5, dtype=np.int64))
        assert column.append_batch([]) == 5

    def test_refuses_dtype_drift(self):
        column = Column("c", np.arange(5, dtype=np.int64))
        with pytest.raises(IngestError):
            column.append_batch([1.5])
        assert len(column) == 5

    def test_float_column_accepts_ints_and_nan(self):
        column = Column("c", np.array([1.0, 2.0]))
        assert column.append_batch([3, np.nan]) == 4
        assert np.isnan(column.values[-1])


class TestTableAppend:
    def test_all_or_nothing_schema(self):
        table = Table.from_arrays(
            "t", {"a": np.arange(4, dtype=np.int64), "b": np.zeros(4)}
        )
        with pytest.raises(IngestError):
            table.append_batch({"a": [5]})
        with pytest.raises(IngestError):
            table.append_batch({"a": [5], "b": [1.0], "c": [2.0]})
        with pytest.raises(IngestError):
            table.append_batch({"a": [5, 6], "b": [1.0]})
        assert len(table) == 4  # a refused append left every column alone

    def test_appends_every_column(self):
        table = Table.from_arrays(
            "t", {"a": np.arange(4, dtype=np.int64), "b": np.zeros(4)}
        )
        assert table.append_batch({"a": [4, 5], "b": [1.0, 2.0]}) == 6
        assert len(table.column("a")) == 6
        assert len(table.column("b")) == 6


# --------------------------------------------------------------------- #
# cracker validity windows
# --------------------------------------------------------------------- #


def _mask_rowids(values: np.ndarray, low: float, high: float) -> np.ndarray:
    predicate = Predicate(Comparison.BETWEEN, low, upper=high)
    return np.nonzero(predicate.mask(values))[0]


@pytest.mark.parametrize("kind", ["int64", "float64-nan"])
def test_cracker_window_scan_and_merge_exact(kind):
    rng = np.random.default_rng(5)
    if kind == "int64":
        base = rng.integers(0, 1_000, 4_000).astype(np.int64)
        tail = rng.integers(0, 1_000, 600).astype(np.int64)
    else:
        base = rng.normal(500.0, 150.0, 4_000)
        base[rng.random(4_000) < 0.05] = np.nan
        tail = rng.normal(500.0, 150.0, 600)
        tail[rng.random(600) < 0.05] = np.nan
    column = Column("c", base.copy())
    manager = IndexManager()
    # index a few ranges, then append
    for low in (100.0, 400.0, 700.0):
        manager.select_rowids(
            "c", None, column, Predicate(Comparison.BETWEEN, low, upper=low + 150)
        )
    cracker = manager.cracker_for("c")
    (built,) = cracker._runs
    column.append_batch(tail)
    assert manager.extend_valid_prefix("c") == 1
    assert cracker.covered_rows == len(base)
    assert cracker.tail_rows == len(tail)
    full = np.asarray(column.values)
    # tail-scanning selections are exact while the window is open
    for low in (50.0, 450.0, 820.0):
        selection = manager.select_rowids(
            "c", None, column, Predicate(Comparison.BETWEEN, low, upper=low + 200)
        )
        assert np.array_equal(selection.rowids, _mask_rowids(full, low, low + 200))
    # merging advances the window over every appended row and sorts them
    # into a run behind run 0 (600 rows stay under 1/4 of 4,000: no fold)
    merged = manager.merge_tails("c")
    assert merged == len(tail)
    assert cracker.tail_rows == 0
    for low in (50.0, 450.0, 820.0):
        selection = manager.select_rowids(
            "c", None, column, Predicate(Comparison.BETWEEN, low, upper=low + 200)
        )
        assert np.array_equal(selection.rowids, _mask_rowids(full, low, low + 200))
    assert cracker._runs[0] is built and len(cracker._runs) == 2
    assert (cracker._runs[1].start, cracker._runs[1].stop) == (len(base), len(full))
    stats = manager.stats_snapshot()
    assert stats["prefix_extensions"] == 1
    assert stats["tail_merges"] == 1
    assert stats["rows_merged_total"] == len(tail)


def test_a_merge_sorts_its_rows_and_the_gauge_reads_the_runs():
    """A merge sorts only its rows into a run behind run 0; the index bytes
    are the runs' packed keys, 8 a row, until the index is dropped."""
    rng = np.random.default_rng(17)
    column = Column("c", rng.integers(0, 1_000, 10_000).astype(np.int64))
    manager = IndexManager()
    manager.select_rowids("c", None, column, Predicate(Comparison.BETWEEN, 100.0, upper=250.0))
    cracker = manager.cracker_for("c")
    (built,) = cracker._runs
    assert manager.index_bytes == cracker.size_bytes == 10_000 * 8
    for merged in range(1, 5):
        column.append_batch(rng.integers(0, 1_000, 150).astype(np.int64))
        manager.extend_valid_prefix("c")
        assert manager.merge_tails("c") == 150
        assert cracker._runs[0] is built and len(cracker._runs) == 1 + merged
        assert (cracker._runs[-1].start, cracker._runs[-1].stop) == (len(column) - 150, len(column))
        assert manager.index_bytes == (10_000 + 150 * merged) * 8
    full = np.asarray(column.values)
    selection = manager.select_rowids(
        "c", None, column, Predicate(Comparison.BETWEEN, 250.0, upper=650.0)
    )
    assert np.array_equal(selection.rowids, _mask_rowids(full, 250.0, 650.0))
    assert np.array_equal(selection.values, full[selection.rowids])
    assert selection.rows_scanned <= 5 * 2 * (10_000).bit_length()  # binary searches only
    stats = manager.stats_snapshot()
    assert stats["rows_merged_total"] == 600 and stats["tail_merges"] == 4
    assert stats["cracker_bytes"] == cracker.size_bytes
    # the window covers the merged rows; run 0 still the rows it sorted
    assert cracker.covered_rows == 10_600 and built.stop == 10_000
    # dropping the index drops every byte it held
    manager.clear()
    assert manager.stats.crackers_dropped == 1
    assert manager.index_bytes == 0


def test_extend_valid_prefix_keeps_the_index():
    """Regression: an append must shrink the validity window, not the index."""
    rng = np.random.default_rng(9)
    column = Column("c", rng.integers(0, 1_000, 5_000).astype(np.int64))
    manager = IndexManager()
    for low in (200.0, 600.0):
        manager.select_rowids(
            "c", None, column, Predicate(Comparison.BETWEEN, low, upper=low + 100)
        )
    cracker = manager.cracker_for("c")
    built = cracker._runs
    column.append_batch(rng.integers(0, 1_000, 800).astype(np.int64))
    manager.extend_valid_prefix("c")
    survivor = manager.cracker_for("c")
    assert survivor is cracker  # same index object, not a rebuild
    assert survivor._runs is built  # its sorted runs kept, too
    assert survivor.tail_rows == 800
    assert manager.stats.crackers_built == 1


def test_int64_beyond_float_precision_stays_scan_identical():
    """Window scan and tail merge agree with a full scan past 2**53."""
    rng = np.random.default_rng(13)
    base = (2**60 + rng.integers(0, 1_000, 3_000)).astype(np.int64)
    tail = (2**60 + rng.integers(0, 1_000, 500)).astype(np.int64)
    column = Column("c", base.copy())
    manager = IndexManager()
    predicates = [
        Predicate(Comparison.BETWEEN, float(2**60 + 128), upper=float(2**60 + 640)),
        Predicate(Comparison.GE, float(2**60 + 512)),
    ]
    manager.select_rowids("c", None, column, predicates[0])
    column.append_batch(tail)
    manager.extend_valid_prefix("c")
    full = np.concatenate([base, tail])
    for phase in ("window", "merged"):
        for predicate in predicates:
            selection = manager.select_rowids("c", None, column, predicate)
            assert np.array_equal(
                selection.rowids, np.nonzero(predicate.mask(full))[0]
            ), f"{phase}: indexed selection drifted from the scan"
        if phase == "window":
            assert manager.merge_tails("c") == len(tail)


# --------------------------------------------------------------------- #
# paged columns
# --------------------------------------------------------------------- #


class TestPagedColumnTail:
    @pytest.fixture()
    def paged(self, tmp_path):
        rng = np.random.default_rng(21)
        self.base = rng.integers(0, 10_000, 5_000).astype(np.int64)
        self.catalog = StoreCatalog(DiskColumnStore(tmp_path / "store", cache_bytes=1 << 20))
        self.catalog.persist_column(Column("c", self.base), chunk_rows=512, hierarchy=False)
        return self.catalog.load_column("c")

    def test_append_extends_logical_surface(self, paged):
        rng = np.random.default_rng(22)
        tail = rng.integers(0, 10_000, 700).astype(np.int64)
        assert paged.append_batch(tail) == 5_700
        full = np.concatenate([self.base, tail])
        assert len(paged) == 5_700
        assert paged.tail_rows == 700
        assert np.array_equal(np.asarray(paged.values), full)
        # boundary-straddling point reads and slices
        assert paged.value_at(4_999) == full[4_999]
        assert paged.value_at(5_000) == full[5_000]
        assert np.array_equal(np.asarray(paged.slice(4_900, 5_100)), full[4_900:5_100])
        assert np.array_equal(np.asarray(paged.raw_slice(4_900, 5_100)), full[4_900:5_100])
        assert int(paged.min()) == int(full.min())
        assert int(paged.max()) == int(full.max())

    def test_zonemap_pruning_stays_conservative(self, paged):
        # tail values far outside the base range must be findable
        paged.append_batch(np.array([50_000, 60_000], dtype=np.int64))
        chunks = paged.chunks_for_predicate(50_000.0, float("inf"))
        spans = [paged.chunk_range(i) for i in chunks]
        assert any(stop > 5_000 for _, stop in spans)
        full = np.asarray(paged.values)
        hits = [
            int(start) + int(i)
            for start, stop in spans
            for i in np.nonzero(full[int(start):int(stop)] >= 50_000)[0]
        ]
        assert sorted(hits) == [5_000, 5_001]

    def test_many_small_appends_grow_one_tail_buffer(self, paged):
        """The tail grows by doubling: every read surface sees each batch,
        earlier tail reads stay valid, the caller's batch is never aliased."""
        rng = np.random.default_rng(24)
        batch = rng.integers(0, 10_000, 7).astype(np.int64)
        paged.append_batch(batch)
        batch[:] = -1  # the column copied it
        full = np.concatenate([self.base, paged.raw_slice(5_000, 5_007)])
        assert full.min() >= 0
        buffers, first_tail = set(), paged.raw_slice(5_000, 5_007)
        for _ in range(300):
            more = rng.integers(0, 10_000, 7).astype(np.int64)
            full = np.concatenate([full, more])
            assert paged.append_batch(more) == full.shape[0]
            buffers.add(paged.raw_slice(5_000, 5_001).__array_interface__["data"][0])
            assert np.array_equal(np.asarray(paged.values), full)  # cache refreshed per length
        assert len(buffers) <= 10  # 7 -> 2,107 rows by doubling
        assert np.array_equal(first_tail, full[5_000:5_007])
        assert paged.tail_rows == 2_107 and paged.num_chunks == -(-7_107 // 512)
        probe = rng.integers(0, 7_107, 500)
        assert np.array_equal(paged.read_batch(probe), full[probe])
        assert np.array_equal(np.asarray(paged.slice(4_990, 7_107)), full[4_990:])
        assert paged.value_at(7_106) == full[-1]
        for index in range(paged.num_chunks):
            lo, hi = paged.chunk_range(index)
            rows = full[index * 512 : (index + 1) * 512]
            assert (int(lo), int(hi)) == (int(rows.min()), int(rows.max()))
        assert self.catalog.compact_appends("c") == 7_107
        assert np.array_equal(np.asarray(self.catalog.load_column("c").values), full)

    def test_zone_arrays_equal_brute_force_after_small_appends(self, paged):
        """Each append folds only its own rows into the chunks it lands in;
        after 300 of them the zone arrays are the per-chunk min/max of the
        whole logical column — the straddling chunk's persisted zone
        included, and a NaN poisoning its chunk's envelope."""
        rng = np.random.default_rng(26)
        floats = rng.normal(0.0, 100.0, 5_000)
        self.catalog.persist_column(Column("f", floats), chunk_rows=512, hierarchy=False)
        for column, full in ((paged, self.base), (self.catalog.load_column("f"), floats)):
            for step in range(300):
                batch = rng.integers(0, 10_000, int(rng.integers(1, 40))).astype(full.dtype)
                if full.dtype.kind == "f" and step % 50 == 7:
                    batch[-1] = np.nan
                column.append_batch(batch)
                full = np.concatenate([full, batch])
            chunks = [full[start : start + 512] for start in range(0, full.size, 512)]
            mins, maxs = [chunk.min() for chunk in chunks], [chunk.max() for chunk in chunks]
            assert np.array_equal(column._zone_mins, mins, equal_nan=True)
            assert np.array_equal(column._zone_maxs, maxs, equal_nan=True)
            assert np.isnan(column._zone_mins).any() == (full.dtype.kind == "f")

    def test_compact_appends_rewrites_tail_free(self, paged):
        rng = np.random.default_rng(23)
        tail = rng.integers(0, 10_000, 300).astype(np.int64)
        paged.append_batch(tail)
        assert self.catalog.compact_appends("c") == 5_300
        reopened = self.catalog.load_column("c")
        assert len(reopened) == 5_300
        assert reopened.tail_rows == 0
        assert np.array_equal(
            np.asarray(reopened.values), np.concatenate([self.base, tail])
        )
        # idempotent when there is nothing to fold
        assert self.catalog.compact_appends("c") == 5_300


def test_compact_appends_table_and_hierarchy(tmp_path):
    rng = np.random.default_rng(31)
    catalog = StoreCatalog(DiskColumnStore(tmp_path / "store"))
    table = Table.from_arrays(
        "t", {"a": np.arange(600, dtype=np.int64), "b": rng.standard_normal(600)}
    )
    catalog.persist_table(table, chunk_rows=128)
    paged = catalog.load_table("t")
    paged.column("a").append_batch(np.arange(600, 700, dtype=np.int64))
    paged.column("b").append_batch(rng.standard_normal(100))
    assert catalog.compact_appends("t") == 700
    reopened = catalog.load_table("t")
    assert len(reopened) == 700
    assert np.array_equal(
        np.asarray(reopened.column("a").values), np.arange(700, dtype=np.int64)
    )
    # hierarchies were re-persisted over the grown data
    hierarchy = catalog.load_hierarchy("t", "a")
    assert hierarchy is not None
    assert len(hierarchy.base) == 700
    # a fresh attach over the same root warm-starts with the appended rows
    fresh = StoreCatalog(DiskColumnStore(tmp_path / "store"))
    assert len(fresh.load_table("t")) == 700
    with pytest.raises(Exception):
        catalog.compact_appends("missing")


def test_schema_gestures_on_a_grown_paged_table_keep_its_appended_rows(tmp_path):
    """Drag-out, group and ungroup of a paged table after an append see all
    of its rows: a renamed paged column is the same mapping plus the append
    tail as it was, and appends on either side stay that side's own."""
    from repro.core.commands import (
        AppendCommand,
        DragColumnOut,
        GroupColumns,
        ShowTable,
        UngroupTable,
    )
    from repro.service import LocalExplorationService
    from repro.touchio.device import DeviceProfile

    rng = np.random.default_rng(37)
    grid = {"a": rng.integers(0, 1_000, 1_000), "b": rng.normal(size=1_000)}
    catalog = StoreCatalog(DiskColumnStore(tmp_path / "store"))
    catalog.persist_table(Table.from_arrays("grid", grid), chunk_rows=256)
    profile = DeviceProfile(
        name="ingest-device",
        screen_width_cm=20.0,
        screen_height_cm=15.0,
        sampling_rate_hz=20.0,
        finger_width_cm=0.08,
    )
    service = LocalExplorationService(profile=profile)
    StoreCatalog.open_read_only(tmp_path / "store", cache_bytes=1 << 20).attach(service.catalog)
    service.execute(ShowTable(table_name="grid", view_name="t", x=3.0, width_cm=6.0))
    extra = {"a": rng.integers(0, 1_000, 100), "b": rng.normal(size=100)}
    service.execute(AppendCommand.of("grid", columns=extra))
    grown = {name: np.concatenate([grid[name], extra[name]]) for name in grid}
    service.execute(
        DragColumnOut(table_view="t", column_name="b", new_object_name="b_out", x=11.0)
    )
    service.execute(UngroupTable(table_view="t", height_cm=4.0))
    service.execute(
        GroupColumns(
            column_object_names=("grid_a", "b_out"), table_name="pair", width_cm=4.0, height_cm=4.0
        )
    )
    objects = service.catalog
    views = {
        "drag-out": objects.column("b_out"),
        "ungroup a": objects.column("grid_a"),
        "ungroup b": objects.column("grid_b"),
        "group a": objects.table("pair").column("grid_a"),
        "group b": objects.table("pair").column("b_out"),
    }
    for view, column in views.items():
        expected = grown["a" if view.endswith("a") else "b"]
        assert len(column) == 1_100, view
        assert np.array_equal(np.asarray(column.values), expected), view
    # a later append to the table reaches none of the clones, and back
    service.execute(AppendCommand.of("grid", columns={"a": [1], "b": [0.5]}))
    objects.column("b_out").append_batch([7.0])
    assert len(objects.table("grid")) == 1_101 and len(objects.column("grid_b")) == 1_100
    assert np.array_equal(np.asarray(objects.table("grid").column("b").values[:1_100]), grown["b"])
    assert len(objects.column("b_out")) == 1_101 and len(views["group b"]) == 1_100


# --------------------------------------------------------------------- #
# service and session
# --------------------------------------------------------------------- #


def test_local_service_append_rows_and_merge():
    from repro.service import LocalExplorationService

    rng = np.random.default_rng(51)
    service = LocalExplorationService()
    service.load_column("c", rng.integers(0, 100, 1_000).astype(np.int64))
    service.kernel.show_column("c", view_name="v")
    # index, append, verify the index survived with a window
    service.select_where("v", Predicate(Comparison.BETWEEN, 20.0, upper=60.0))
    fresh = rng.integers(0, 100, 200).astype(np.int64).tolist()
    assert service.append_rows("c", values=fresh) == 1_200
    manager = service.kernel.index_manager
    assert manager.cracker_for("c") is not None
    assert manager.cracker_for("c").tail_rows == 200
    # a bare service has no background lane: the merge is the caller's call
    assert service.index_stats()["tail_merges"] == 0
    assert service.merge_index_tails("c") == 200
    assert service.index_stats()["tail_merges"] == 1
    # typed refusals
    with pytest.raises(IngestError):
        service.append_rows("c")  # neither values nor columns
    with pytest.raises(IngestError):
        service.append_rows("c", values=[1], columns={"a": [1]})
    with pytest.raises(IngestError):
        service.append_rows("missing", values=[1])
    with pytest.raises(IngestError):
        service.append_rows("c", columns={"a": [1]})  # column needs values=
    service.load_table("t", {"a": np.arange(10, dtype=np.int64)})
    with pytest.raises(IngestError):
        service.append_rows("t", values=[1])  # table needs columns=
    assert service.append_rows("t", columns={"a": [10, 11]}) == 12


def test_multi_session_server_concurrent_append_background_merge():
    from repro.service import MultiSessionServer, SchedulerConfig

    rng = np.random.default_rng(61)
    data = rng.integers(0, 1_000, 20_000).astype(np.int64)
    server = MultiSessionServer(
        scheduler=SchedulerConfig(num_workers=2), shared_index=True
    )
    server.load_shared_column("data", data)
    sid = server.open_session()
    service = server.service(sid)
    service.kernel.show_column("data", view_name="v")
    service.select_where("v", Predicate(Comparison.BETWEEN, 200.0, upper=500.0))
    tail = rng.integers(0, 1_000, 1_500).astype(np.int64)
    assert server.append_rows(sid, "data", values=tail.tolist()) == 21_500
    assert server.drain(timeout=30.0)  # background-lane merge has run
    cracker = server.index_manager.cracker_for("data")
    assert cracker is not None and cracker.tail_rows == 0
    assert server.index_manager.stats_snapshot()["tail_merges"] >= 1
    full = np.concatenate([data, tail])
    selection = service.select_where("v", Predicate(Comparison.BETWEEN, 100.0, upper=700.0))
    assert np.array_equal(selection.rowids, _mask_rowids(full, 100.0, 700.0))
    with pytest.raises(ServiceError):
        server.append_rows("no-such-session", "data", values=[1])
    server.shutdown()


def test_session_append_records_and_replays():
    from repro.core.session import ExplorationSession

    rng = np.random.default_rng(71)
    base = rng.integers(0, 100, 500).astype(np.int64)
    tail = rng.integers(0, 100, 80).astype(np.int64)

    session = ExplorationSession()
    session.load_column("c", base.copy())
    view = session.show_column("c")
    script = session.record("live")
    session.choose_scan(view)
    session.slide(view, duration=0.4)
    assert session.append("c", values=tail.tolist()) == 580
    session.slide(view, duration=0.4)
    session.stop_recording()
    assert [c.kind for c in script] == ["choose-action", "slide", "append", "slide"]

    from repro.core.commands import GestureScript

    replay = ExplorationSession()
    replay.load_column("c", base.copy())
    replay.show_column("c", view_name=view.name)
    replay.run(GestureScript.from_json(script.to_json()))
    assert len(replay.catalog.column("c")) == 580
    assert np.array_equal(
        np.asarray(replay.catalog.column("c").values),
        np.asarray(session.catalog.column("c").values),
    )


# --------------------------------------------------------------------- #
# one route per append: every door into a serving host, one answer
# --------------------------------------------------------------------- #

ROUTE_TAIL = tuple(range(1_000))


def _route_script():
    from repro import ChooseAction, GestureScript, ShowColumn, Slide, scan_action
    from repro.core.commands import AppendCommand

    in_range = Predicate(Comparison.BETWEEN, 200.0, upper=500.0)
    return GestureScript(
        [
            ShowColumn(object_name="c", view_name="v", height_cm=10.0),
            ChooseAction(view="v", action=scan_action(in_range)),
            Slide(view="v", duration=1.0, start_fraction=0.1, end_fraction=0.7),
            Slide(view="v", duration=0.8, start_fraction=0.7, end_fraction=0.3),
            AppendCommand(object_name="c", values=ROUTE_TAIL),
            Slide(view="v", duration=0.8, start_fraction=0.2, end_fraction=1.0),
        ]
    )


def _drive_route(route, script, execute, append_rows, run, other):
    """Issue ``script`` through one of a host's doors."""
    if route == "run":
        run(script)
    elif route in ("replay_traces", "run_stream"):
        other(script)
    else:
        for command in script:
            if route == "append_rows" and command.kind == "append":
                assert append_rows("c", values=command.values) == 21_000
            else:
                execute(command)


def _in_process_route(scheduler, route):
    from repro.core.commands import TimedCommand
    from repro.service import MultiSessionServer

    server = MultiSessionServer(scheduler=scheduler)
    try:
        sid = server.open_session()
        server.load_column(sid, "c", np.arange(20_000, dtype=np.int64) % 1_000)
        # a selection builds the session's index; the append then widens it
        service = server.service(sid)
        service.kernel.index_manager.select_rowids(
            "c", None, service.catalog.column("c"), Predicate(Comparison.LT, 100.0)
        )
        _drive_route(
            route,
            _route_script(),
            execute=lambda command: server.execute(sid, command),
            append_rows=lambda name, values: server.append_rows(sid, name, values=values),
            run=lambda script: server.run(sid, script),
            other=lambda script: server.replay_traces(
                {sid: [TimedCommand(command) for command in script]}
            ),
        )
        assert server.drain(timeout=30.0)
        return server.metrics(sid).counters_snapshot(), server.index_stats()
    finally:
        server.shutdown()


def _wire_route(route):
    from repro.serving import ShardedClient, ShardedServer, ShardedServerConfig

    with ShardedServer(ShardedServerConfig(num_workers=1)) as fleet:
        with ShardedClient("127.0.0.1", fleet.port, session_id="route") as client:
            client.load_column("c", (np.arange(20_000) % 1_000).tolist())
            _drive_route(
                route,
                _route_script(),
                execute=client.execute,
                append_rows=client.append_rows,
                run=client.run,
                other=lambda script: list(client.run_stream(script)),
            )
            assert client.drain(timeout=30.0)
            stats = fleet.shards.stats()  # a drained front door admits no verb
            return stats["sessions"]["route"], stats["index"]


@pytest.mark.parametrize(
    "host, route",
    [
        (host, route)
        for host in ("inline", "pool")
        for route in ("execute", "append_rows", "run", "replay_traces")
    ]
    + [("wire", route) for route in ("execute", "append_rows", "run", "run_stream")],
)
def test_append_takes_one_route(host, route):
    """Twelve ways to run one script that appends; one answer.

    Whichever door the append comes through it is one counted command and
    the tail merge of an index built before the script follows on the
    background lane — the parity surface has no route-dependent field.
    Over the wire no verb selects, so no index exists to merge into.
    """
    from repro.service import SchedulerConfig

    if host == "wire":
        counters, index = _wire_route(route)
    else:
        scheduler = SchedulerConfig(num_workers=2) if host == "pool" else None
        counters, index = _in_process_route(scheduler, route)
    reference, _ = _in_process_route(None, "execute")
    assert counters == reference and counters["commands"] == 6
    indexed = host != "wire"
    assert index["tail_merges"] == int(indexed)
    assert index["rows_merged_total"] == 1_000 * indexed
