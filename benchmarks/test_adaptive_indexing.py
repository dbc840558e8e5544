"""E-adaptive-indexing: indexed selections versus full scans.

The adaptive tier's contract has two halves, and this benchmark measures
both on the same workload:

* **Bit-identical gestures** — replaying the same filtered slides with
  indexing enabled and disabled produces exactly the same deterministic
  ``GestureOutcome`` counters (the index is a side effect, never a
  result change);
* **Repeated range predicates get cheap** — repeated ``select_where``
  range queries answer from the value-sorted runs (in-memory,
  built by the first selection) or from a scan of the chunks the zonemap
  keeps (an out-of-core paged column clustered on the key) at least
  ``MIN_SPEEDUP``x faster than the full scans the indexing-disabled
  reference runs, while returning bit-identical rowids.

A third benchmark locks down the footprint: a 10,000-predicate session
builds one index whose bytes do not grow with the number of distinct
predicates.

Headline numbers land in ``benchmark.extra_info``.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest

from repro.core.actions import scan_action
from repro.core.kernel import KernelConfig
from repro.core.session import ExplorationSession
from repro.engine.filter import Comparison, Predicate
from repro.persist.diskstore import DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.storage.column import Column
from repro.touchio.device import IPAD1

from conftest import print_comparison

#: Rows of the in-memory hot column.
MEMORY_ROWS = 2_000_000
#: Rows of the paged (out-of-core) column.
PAGED_ROWS = 8_000_000
#: Rows per chunk of the paged column.
CHUNK_ROWS = 16_384
#: How often each range predicate of the hot family is repeated.
REPEATS = 25
#: Required speedup of the indexed path over the full-scan reference.
MIN_SPEEDUP = 5.0

#: The narrowing family of range restrictions a user keeps re-issuing
#: (values span 0..1M; each restriction zooms further into the hot band).
HOT_RANGES = [
    (440_000, 450_000),
    (444_000, 448_000),
    (445_000, 446_000),
    (445_200, 445_400),
]


def hot_predicates() -> list[Predicate]:
    return [Predicate(Comparison.BETWEEN, low, upper=high) for low, high in HOT_RANGES]


def gesture_fingerprint(outcome) -> tuple:
    """The deterministic counters a gesture replay must reproduce exactly."""
    return (
        outcome.entries_returned,
        outcome.tuples_examined,
        tuple(outcome.rowids_touched),
        tuple(sorted(outcome.served_level_counts.items())),
    )


def drive_gestures(session: ExplorationSession, view) -> list[tuple]:
    """A few filtered slides over the hot ranges (they leave the index alone)."""
    fingerprints = []
    for low, high in HOT_RANGES:
        session.choose_action(
            view, scan_action(Predicate(Comparison.BETWEEN, low, upper=high))
        )
        outcome = session.slide(view, duration=0.3, start_fraction=0.2, end_fraction=0.8)
        fingerprints.append(gesture_fingerprint(outcome))
    return fingerprints


def timed_selections(session: ExplorationSession, view_name: str) -> tuple[float, list]:
    """Run the repeated hot-range selections; return (seconds, rowid lists)."""
    predicates = hot_predicates()
    results = []
    started = time.perf_counter()
    for _ in range(REPEATS):
        for predicate in predicates:
            results.append(session.select_where(view_name, predicate))
    return time.perf_counter() - started, results


def compare_backends(indexed: ExplorationSession, reference: ExplorationSession, view_name: str):
    """Gesture-parity check plus timed repeated selections on both backends."""
    indexed_fp = drive_gestures(indexed, view_name)
    reference_fp = drive_gestures(reference, view_name)
    assert indexed_fp == reference_fp, "indexing changed gesture outcome counters"

    # warm-up consult: the first indexed query pays the index's build
    for predicate in hot_predicates():
        indexed.select_where(view_name, predicate)

    indexed_s, indexed_results = timed_selections(indexed, view_name)
    reference_s, reference_results = timed_selections(reference, view_name)
    for fast, slow in zip(indexed_results, reference_results):
        assert slow.strategy == "scan"
        assert np.array_equal(fast.rowids, slow.rowids)
    return indexed_s, reference_s, indexed_results


@pytest.fixture(scope="module")
def in_memory_run():
    """The in-memory comparison, run once for the parity test and its gate."""
    rng = np.random.default_rng(97)
    data = rng.integers(0, 1_000_000, size=MEMORY_ROWS, dtype=np.int64)

    @functools.cache
    def run():
        indexed = ExplorationSession(profile=IPAD1)
        reference = ExplorationSession(
            profile=IPAD1, config=KernelConfig(enable_indexing=False)
        )
        for session in (indexed, reference):
            session.load_column("hot", data)
            session.show_column("hot")
        indexed_s, reference_s, results = compare_backends(indexed, reference, "hot-view")
        last = results[-1]
        stats = indexed.kernel.index_manager.stats_snapshot()
        return {
            "indexed (sorted runs)": {
                "seconds": indexed_s,
                "rows_scanned_last": float(last.rows_scanned),
            },
            "reference (full scan)": {
                "seconds": reference_s,
                "rows_scanned_last": float(MEMORY_ROWS),
            },
        }, reference_s / indexed_s, last.strategy, stats

    return run


@pytest.fixture(scope="module")
def paged_run(tmp_path_factory):
    """The out-of-core comparison, run once for the parity test and its gate."""
    rng = np.random.default_rng(101)
    # clustered values (sorted base + bounded noise): chunk zonemaps are
    # selective, the realistic shape for time-ordered measurements
    base = np.sort(rng.integers(0, 2_000_000, size=PAGED_ROWS, dtype=np.int64))
    data = base + rng.integers(-500, 500, size=PAGED_ROWS)
    store = DiskColumnStore(tmp_path_factory.mktemp("adaptive") / "store", cache_bytes=8 << 20)
    catalog = StoreCatalog(store)
    catalog.persist_column(
        Column("hot", data), chunk_rows=CHUNK_ROWS, hierarchy=False
    )

    @functools.cache
    def run():
        indexed = ExplorationSession(profile=IPAD1)
        reference = ExplorationSession(
            profile=IPAD1, config=KernelConfig(enable_indexing=False)
        )
        for session in (indexed, reference):
            session.service.catalog.register_column(catalog.load_column("hot"))
            session.show_column("hot")
        indexed_s, reference_s, results = compare_backends(indexed, reference, "hot-view")
        last = results[-1]
        stats = indexed.kernel.index_manager.stats_snapshot()
        return {
            "indexed (zonemap-kept chunks)": {
                "seconds": indexed_s,
                "rows_scanned_last": float(last.rows_scanned),
            },
            "reference (full scan)": {
                "seconds": reference_s,
                "rows_scanned_last": float(PAGED_ROWS),
            },
        }, reference_s / indexed_s, last.strategy, stats

    return run


def test_adaptive_indexing_speedup_in_memory(benchmark, in_memory_run):
    """In-memory selections answer from the value-sorted runs,
    bit-identically; the speedup is reported here and gated by the
    ``_gate`` test."""
    comparison, speedup, strategy, stats = benchmark.pedantic(
        in_memory_run, rounds=1, iterations=1
    )
    print_comparison(comparison)
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info["queries_timed"] = REPEATS * len(HOT_RANGES)
    benchmark.extra_info["cracker_bytes"] = stats["cracker_bytes"]
    assert strategy == "index"


@pytest.mark.wallclock
def test_adaptive_indexing_speedup_in_memory_gate(in_memory_run):
    """Indexed in-memory selections beat full scans >= 5x."""
    _, speedup, _, _ = in_memory_run()
    assert speedup >= MIN_SPEEDUP


def test_adaptive_indexing_speedup_paged(benchmark, paged_run):
    """Scans of the zonemap-kept chunks answer paged selections
    bit-identically; the speedup is reported here and gated by the
    ``_gate`` test."""
    comparison, speedup, strategy, stats = benchmark.pedantic(
        paged_run, rounds=1, iterations=1
    )
    print_comparison(comparison)
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info["chunk_rows"] = CHUNK_ROWS
    benchmark.extra_info["cracker_bytes"] = stats["cracker_bytes"]
    assert strategy == "index"


@pytest.mark.wallclock
def test_adaptive_indexing_speedup_paged_gate(paged_run):
    """Scans of the zonemap-kept chunks beat paged full scans >= 5x."""
    _, speedup, _, _ = paged_run()
    assert speedup >= MIN_SPEEDUP


def test_index_bytes_bounded_under_predicate_storm(benchmark):
    """10,000 distinct range predicates: one index, a fixed footprint.

    The first selection sorts the column into one packed run and no later
    one adds to it, so a long adaptive session's index stays at its 8
    bytes a row (the sorted keys, nothing beside them), while every answer
    stays exact.
    """
    from repro.indexing.manager import IndexManager

    rng = np.random.default_rng(113)
    data = rng.integers(0, 1_000_000, size=500_000, dtype=np.int64)
    column = Column("storm", data)
    predicate_rng = np.random.default_rng(127)

    def run():
        manager = IndexManager()
        checked = 0
        footprint = None
        for step in range(10_000):
            low = float(predicate_rng.uniform(0, 990_000))
            predicate = Predicate(
                Comparison.BETWEEN, low, upper=low + float(predicate_rng.uniform(0, 10_000))
            )
            selection = manager.select_rowids("storm", None, column, predicate)
            footprint = footprint or manager.index_bytes
            assert manager.index_bytes == footprint
            if step % 500 == 0:  # spot-check exactness along the way
                assert np.array_equal(
                    selection.rowids, np.nonzero(predicate.mask(data))[0]
                )
                checked += 1
        assert checked == 20
        return manager.stats_snapshot()

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["cracker_bytes"] = stats["cracker_bytes"]
    assert stats["crackers_built"] == 1
    assert stats["cracker_bytes"] == 8 * len(data)
