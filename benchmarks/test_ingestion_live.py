"""E-live-ingestion: append throughput and hot-tail query latency.

The streaming-append tier must keep exploration interactive while data
arrives: ``append_batch`` grows a column in place, the value-sorted index
keeps serving its frozen prefix through a validity window, and only the
appended hot tail is scanned until a background merge folds it in.  Three
properties are measured:

* **Append throughput** — a session absorbing batch after batch into an
  already-indexed column sustains a bulk ingest rate, and not one append
  tears the index down (``prefix_extensions`` grows, ``invalidations``
  stays zero).
* **Hot-tail query latency** — with a fresh unmerged tail, narrow range
  selections still answer through the sorted runs plus a tail scan and
  beat the full-scan reference; after ``merge_index_tails`` the window
  closes and the merged rows are the index's scanned gap until it
  rebuilds.  Results stay bit-identical to brute force throughout.
* **Size independence** — an append writes the batch, a merge moves
  nothing and a selection inspects two sorted runs plus the merged gap,
  whatever the column holds: counted (buffer reallocations, values
  inspected), not timed, so it gates tier-1.

Headline numbers land in ``benchmark.extra_info`` (``--benchmark-json``);
the timed comparison against a parent commit is the ledger's
``ingest_mixed`` workload.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np
import pytest

from repro.core.kernel import KernelConfig
from repro.core.session import ExplorationSession
from repro.engine.filter import Comparison, Predicate
from repro.indexing.manager import IndexManager
from repro.indexing.sorted_index import MAX_RUNS
from repro.metrics.reporting import format_comparison
from repro.storage.column import Column
from repro.touchio.device import IPAD1_PROTOTYPE as IPAD1

from conftest import print_comparison

#: Rows preloaded (and indexed) before ingestion starts.
BASE_ROWS = 2_000_000
#: Batches appended and rows per batch for the throughput run.
BATCHES = 32
BATCH_ROWS = 10_000
#: Narrow hot ranges for the latency run.
HOT_RANGES = [(440_000.0, 450_000.0), (612_000.0, 622_000.0), (88_000.0, 98_000.0)]
REPEATS = 5
#: Conservative floors (CI-class single core).
MIN_APPEND_ROWS_PER_S = 50_000.0
MIN_WINDOW_SPEEDUP = 2.0


def make_sessions(data: np.ndarray):
    indexed = ExplorationSession(profile=IPAD1)
    reference = ExplorationSession(profile=IPAD1, config=KernelConfig(enable_indexing=False))
    for session in (indexed, reference):
        session.load_column("stream", data.copy())
        session.show_column("stream")
    return indexed, reference


def select_hot_ranges(session: ExplorationSession) -> None:
    for low, high in HOT_RANGES:
        session.select_where("stream-view", Predicate(Comparison.BETWEEN, low, upper=high))


def timed_selections(session: ExplorationSession):
    started = time.perf_counter()
    results = []
    for _ in range(REPEATS):
        for low, high in HOT_RANGES:
            results.append(
                session.select_where("stream-view", Predicate(Comparison.BETWEEN, low, upper=high))
            )
    return time.perf_counter() - started, results


def test_append_throughput_never_invalidates(benchmark):
    """Bulk ingest into an indexed column: fast, and the index survives."""
    rng = np.random.default_rng(101)
    data = rng.integers(0, 1_000_000, size=BASE_ROWS, dtype=np.int64)
    batches = [
        rng.integers(0, 1_000_000, size=BATCH_ROWS, dtype=np.int64) for _ in range(BATCHES)
    ]

    def run():
        indexed, _ = make_sessions(data)
        select_hot_ranges(indexed)
        started = time.perf_counter()
        for batch in batches:
            indexed.append("stream", values=batch.tolist())
        append_s = time.perf_counter() - started
        stats = indexed.kernel.index_manager.stats_snapshot()
        merged = indexed.service.merge_index_tails()
        return append_s, stats, merged

    append_s, stats, merged = benchmark.pedantic(run, rounds=1, iterations=1)
    total_rows = BATCHES * BATCH_ROWS
    rows_per_s = total_rows / append_s
    print_comparison(
        format_comparison(
            "E-live-ingestion: bulk append into an indexed column",
            {
                "ingest": {
                    "rows_appended": float(total_rows),
                    "seconds": append_s,
                    "rows_per_s": rows_per_s,
                }
            },
        )
    )
    benchmark.extra_info["rows_per_s"] = rows_per_s
    benchmark.extra_info["rows_appended"] = total_rows
    benchmark.extra_info["prefix_extensions"] = stats["prefix_extensions"]
    benchmark.extra_info["invalidations"] = stats["invalidations"]
    assert stats["prefix_extensions"] == BATCHES  # every append widened the window
    assert stats["invalidations"] == 0  # and none tore the index down
    assert merged == total_rows
    assert rows_per_s >= MIN_APPEND_ROWS_PER_S


@pytest.fixture(scope="module")
def hot_tail_run():
    """The hot-tail comparison, run once for the exactness test and its gate."""
    rng = np.random.default_rng(103)
    data = rng.integers(0, 1_000_000, size=BASE_ROWS, dtype=np.int64)
    tail = rng.integers(0, 1_000_000, size=BATCH_ROWS * 4, dtype=np.int64)

    @functools.cache
    def run():
        indexed, reference = make_sessions(data)
        select_hot_ranges(indexed)
        for session in (indexed, reference):
            session.append("stream", values=tail.tolist())
        window_s, window_results = timed_selections(indexed)
        reference_s, reference_results = timed_selections(reference)
        merged = indexed.service.merge_index_tails()
        merged_s, merged_results = timed_selections(indexed)
        for fast, slow in zip(window_results, reference_results):
            assert slow.strategy == "scan"
            assert np.array_equal(fast.rowids, slow.rowids)
        for fast, slow in zip(merged_results, reference_results):
            assert np.array_equal(fast.rowids, slow.rowids)
        assert merged == len(tail)
        return window_s, merged_s, reference_s, merged

    return run


def test_hot_tail_latency_window_vs_merged(benchmark, hot_tail_run):
    """Unmerged tails and merged gaps both answer bit-identically to brute
    force; the latencies are reported here and gated by the ``_gate`` test."""
    window_s, merged_s, reference_s, merged = benchmark.pedantic(
        hot_tail_run, rounds=1, iterations=1
    )
    print_comparison(
        format_comparison(
            "E-live-ingestion: hot-tail query latency",
            {
                "window (sorted runs + tail scan)": {"seconds": window_s},
                "merged (sorted runs + gap scan)": {"seconds": merged_s},
                "reference (full scan)": {"seconds": reference_s},
            },
        )
    )
    benchmark.extra_info["window_speedup"] = reference_s / window_s
    benchmark.extra_info["merged_speedup"] = reference_s / merged_s
    benchmark.extra_info["rows_merged"] = merged
    benchmark.extra_info["queries_timed"] = REPEATS * len(HOT_RANGES)


@pytest.mark.wallclock
def test_hot_tail_latency_window_vs_merged_gate(hot_tail_run):
    """Unmerged tails still answer fast: >= 2x over the full-scan reference."""
    window_s, _, reference_s, _ = hot_tail_run()
    assert reference_s / window_s >= MIN_WINDOW_SPEEDUP


def test_ingest_cost_independent_of_column_size():
    """The same append/merge script costs the same over 250k and 2M rows.

    A count, not a clock: per column at most one buffer reallocation (the
    doubling that makes room for the whole script), no merge touches run 0
    (each sorts its own rows into a tail run, at most ``MAX_RUNS`` of them),
    and a selection after the script inspects at most 2 * ⌈√n⌉ values —
    binary searches of every run, no gap.  An ``append_batch`` that
    re-concatenates reallocates 16 times; a merge or a selection that
    re-sorts or scans the column reads ``n`` rows.
    """
    script_batches, script_rows = 16, 2_000

    def address(array: np.ndarray) -> int:
        return array.__array_interface__["data"][0]

    def run(rows: int):
        rng = np.random.default_rng(107)
        column = Column("stream", rng.integers(0, 1_000_000, size=rows, dtype=np.int64))
        manager = IndexManager()
        for low, high in HOT_RANGES:
            manager.select_rowids(
                "stream", None, column, Predicate(Comparison.BETWEEN, low, upper=high)
            )
        cracker = manager.cracker_for("stream")
        (built,), buffers = cracker._runs, set()
        for _ in range(script_batches):
            column.append_batch(rng.integers(0, 1_000_000, size=script_rows, dtype=np.int64))
            manager.extend_valid_prefix("stream")
            assert manager.merge_tails("stream") == script_rows
            runs = cracker._runs  # a merge sorts tail rows, never run 0
            assert runs[0] is built and 2 <= len(runs) <= MAX_RUNS + 1
            assert runs[1].start == rows and runs[-1].stop == len(column)
            buffers.add(address(column.values))
        low, high = HOT_RANGES[0]
        selection = manager.select_rowids(
            "stream", None, column, Predicate(Comparison.BETWEEN, low, upper=high)
        )
        values = column.values
        assert np.array_equal(selection.rowids, np.nonzero((values >= low) & (values <= high))[0])
        return len(buffers), manager.stats_snapshot(), selection.rows_scanned, len(column)

    for rows in (250_000, BASE_ROWS):
        buffers, stats, scanned, n = run(rows)
        assert buffers == 1  # one column buffer after the first growth
        assert stats["tail_merges"] == script_batches
        assert stats["rows_merged_total"] == script_batches * script_rows
        assert scanned <= 2 * (math.isqrt(n - 1) + 1)
