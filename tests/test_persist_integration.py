"""Integration: exploring out-of-core data through the service layers.

The contract under test is the acceptance criterion of the persistent
tier: a table whose on-disk size exceeds the chunk-cache byte budget is
fully explorable — slide, zoom, select-where, summaries — with
*bit-identical* deterministic ``GestureOutcome`` counters versus the
in-memory path, and N sessions of a ``MultiSessionServer`` share one
read-only mapping instead of N copies.
"""

import numpy as np
import pytest

from repro import (
    ChooseAction,
    GestureScript,
    KernelConfig,
    LocalExplorationService,
    MultiSessionServer,
    Rotate,
    ShowColumn,
    ShowTable,
    Slide,
    ZoomIn,
)
from repro.core.actions import select_where_action, summary_action
from repro.engine.filter import Comparison, Predicate
from repro.persist.diskstore import DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.storage.column import Column
from repro.storage.table import Table

ROWS = 200_000
CHUNK_ROWS = 4096
#: Chunk-cache budget (bytes) deliberately far below the dataset size.
CACHE_BYTES = 64 * 1024

COUNTER_KEYS = ("entries_returned", "tuples_examined")


def make_data():
    rng = np.random.default_rng(23)
    table = Table.from_arrays(
        "readings",
        {
            "a": rng.integers(0, 1_000_000, ROWS),
            "b": rng.normal(50.0, 10.0, ROWS),
            "c": rng.integers(0, 100, ROWS),
        },
    )
    column = Column("meas", rng.integers(0, 1_000_000, ROWS))
    return table, column


@pytest.fixture(scope="module")
def snapshot_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("oocstore")
    table, column = make_data()
    catalog = StoreCatalog(DiskColumnStore(root, cache_bytes=CACHE_BYTES))
    catalog.persist_table(table, chunk_rows=CHUNK_ROWS)
    catalog.persist_column(column, chunk_rows=CHUNK_ROWS)
    return root


def open_snapshot(root) -> StoreCatalog:
    return StoreCatalog(DiskColumnStore(root, cache_bytes=CACHE_BYTES))


def exploration_script() -> GestureScript:
    return GestureScript(
        [
            ShowColumn(object_name="meas", view_name="v", height_cm=10.0),
            ChooseAction(view="v", action=summary_action(k=10, aggregate="avg")),
            Slide(view="v", duration=1.0, start_fraction=0.2, end_fraction=0.6),
            ZoomIn(view="v"),
            Slide(view="v", duration=1.0, start_fraction=0.6, end_fraction=0.2),
            ShowTable(table_name="readings", view_name="t", height_cm=10.0),
            ChooseAction(
                view="t",
                action=select_where_action(
                    "a", Predicate(Comparison.GT, 400_000), ["b", "c"]
                ),
            ),
            Slide(view="t", duration=1.5, start_fraction=0.1, end_fraction=0.9),
            Rotate(view="t"),
            Slide(view="t", duration=0.8, start_fraction=0.9, end_fraction=0.4),
        ]
    )


def pinned_service() -> LocalExplorationService:
    # budget pinned high: counters must be a pure function of the commands
    return LocalExplorationService(config=KernelConfig(latency_budget_s=1e6))


def run_in_memory():
    table, column = make_data()
    service = pinned_service()
    service.load_table("readings", table)
    service.load_column("meas", column)
    return service.run(exploration_script())


def run_paged(root):
    catalog = open_snapshot(root)
    service = pinned_service()
    service.load_table("readings", catalog.load_table("readings"))
    service.load_column("meas", catalog.load_column("meas"))
    for key in catalog.iter_hierarchy_keys():
        service.catalog.adopt_hierarchy(*key, catalog.load_hierarchy(*key))
    return service.run(exploration_script()), catalog


class TestOutOfCoreParity:
    def test_on_disk_size_exceeds_cache_budget(self, snapshot_root):
        catalog = open_snapshot(snapshot_root)
        assert catalog.store.on_disk_bytes() > 10 * CACHE_BYTES

    def test_counters_bit_identical_to_in_memory(self, snapshot_root):
        reference = run_in_memory()
        paged, _ = run_paged(snapshot_root)
        assert len(reference) == len(paged)
        for expected, actual in zip(reference, paged):
            assert expected.command_kind == actual.command_kind
            for key in COUNTER_KEYS:
                assert getattr(expected, key) == getattr(actual, key), (
                    expected.command_kind,
                    key,
                )

    def test_final_aggregates_identical(self, snapshot_root):
        reference = run_in_memory()
        paged, _ = run_paged(snapshot_root)
        for expected, actual in zip(reference, paged):
            expected_payload = getattr(expected.payload, "final_aggregate", None)
            actual_payload = getattr(actual.payload, "final_aggregate", None)
            assert expected_payload == actual_payload

    def test_resident_bytes_stay_bounded(self, snapshot_root):
        _, catalog = run_paged(snapshot_root)
        cache = catalog.store.cache
        # one oversized chunk may be admitted alone; otherwise the budget holds
        assert cache.stats_snapshot()["bytes_cached"] <= max(CACHE_BYTES, CHUNK_ROWS * 8)

    def test_session_facade_accepts_paged_columns(self, snapshot_root):
        from repro import ExplorationSession

        catalog = open_snapshot(snapshot_root)
        session = ExplorationSession()
        session.load_column("meas", catalog.load_column("meas"))
        view = session.show_column("meas", height_cm=10.0)
        outcome = session.slide(view, duration=0.5)
        assert outcome.tuples_examined > 0


class TestSharedStoreServing:
    def test_sessions_share_one_mapping(self, snapshot_root):
        server = MultiSessionServer(service_factory=pinned_service)
        names = server.load_shared_store(open_snapshot(snapshot_root))
        assert sorted(names) == ["meas", "readings"]
        first = server.open_session()
        second = server.open_session()
        col_a = server.service(first).catalog.column("meas")
        col_b = server.service(second).catalog.column("meas")
        assert col_a is col_b  # one PagedColumn, one memmap — zero copies
        assert np.shares_memory(col_a.values, col_b.values)

    def test_sessions_adopt_snapshot_hierarchies_privately(self, snapshot_root):
        server = MultiSessionServer(service_factory=pinned_service)
        server.load_shared_store(open_snapshot(snapshot_root))
        first = server.open_session()
        second = server.open_session()
        h_a = server.service(first).catalog.hierarchy_for("meas")
        h_b = server.service(second).catalog.hierarchy_for("meas")
        assert h_a is not h_b  # private level lists...
        assert h_a.level(1).column is h_b.level(1).column  # ...shared levels

    def test_shared_store_counters_match_private_loads(self, snapshot_root):
        script = exploration_script()
        server = MultiSessionServer(service_factory=pinned_service)
        server.load_shared_store(open_snapshot(snapshot_root))
        sid = server.open_session()
        shared_envelopes = server.run(sid, script)
        private_envelopes, _ = run_paged(snapshot_root)
        for expected, actual in zip(private_envelopes, shared_envelopes):
            for key in COUNTER_KEYS:
                assert getattr(expected, key) == getattr(actual, key)
