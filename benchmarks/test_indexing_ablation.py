"""E-index: index support for touch-driven selections (Section 2.6 "Indexing").

The paper proposes (a) maintaining a separate index per sample level, so an
index-supported slide can be served at whatever granularity the gesture
uses, and (b) exploiting adaptive indexing, where the columns users
select on earn an index as a side effect.  The adaptive index here is a
column's value-sorted runs: run 0, sorted by the first selection, and one
run per merged tail, each one sorted ``uint64`` array of packed
``image(value) << bits | rowid`` keys (Schuhknecht et al., *The Uncracked
Pieces in Database Cracking*: a cheap sort beats cracking once its
first-query cost is paid).

Two ablations:

* **zone-map / sorted index vs full scan** — how much data must be scanned
  to answer the same value-range selection as the user keeps issuing
  similar range restrictions (the first one sorts the column, every later
  one binary-searches each run for its two bounds);
* **per-sample-level index** — an index lookup at a coarse granularity
  touches only the matching sample level, not the base data.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.indexing.sample_index import SampleLevelIndex
from repro.indexing.sorted_index import SortedIndex
from repro.indexing.zonemap import ZoneMap
from repro.engine.filter import Comparison, Predicate
from repro.metrics.reporting import ExperimentSeries, format_comparison
from repro.storage.column import Column
from repro.storage.sample import SampleHierarchy

from conftest import print_comparison, print_series

ROWS = 2_000_000
#: Successive range selections a user might issue while narrowing down.
RANGE_QUERIES = [
    (100_000, 200_000),
    (120_000, 180_000),
    (140_000, 160_000),
    (150_000, 155_000),
    (150_000, 152_000),
]


def build_column() -> Column:
    rng = np.random.default_rng(61)
    return Column("values", rng.integers(0, 1_000_000, size=ROWS, dtype=np.int64))


def run_index_series(column: Column) -> ExperimentSeries:
    """Values read per query by the sorted index: the first query's build
    reads the whole column, every later lookup only its binary-search probes."""
    series = ExperimentSeries(
        "E-index: values scanned per range selection",
        "query_number",
        ["index_scan", "full_scan"],
    )
    index = SortedIndex(column)
    for i, (low, high) in enumerate(RANGE_QUERIES, start=1):
        built = index.size_bytes > 0
        before = index.values_scanned_total
        index.rows_in_range(low, high)  # the first one sorts the column
        read = index.values_scanned_total - before + (0 if built else len(column))
        series.add(i, index_scan=read, full_scan=len(column))
    return series


def test_sorted_index_reduces_scan_cost_after_the_first_query(benchmark):
    """Once the first range selection has sorted the column, a similar one
    inspects only its probes of the run, well under 2·⌈√n⌉ values."""
    column = build_column()
    series = benchmark.pedantic(run_index_series, args=(column,), rounds=1, iterations=1)
    print_series(series)

    scanned = series.ys("index_scan")
    # the first query reads everything (the build sorts the whole column)
    assert scanned[0] >= ROWS
    # every later one reads only its probes, at most 2 * ceil(sqrt(n))
    assert all(cost <= 2 * (math.isqrt(ROWS - 1) + 1) for cost in scanned[1:])
    # a drop of far more than 10x
    assert scanned[-1] * 10 <= scanned[0]


def test_zone_maps_prune_sorted_data(benchmark):
    """Zone maps prune most blocks for a narrow range on ordered data."""
    ordered = Column("ordered", np.arange(ROWS, dtype=np.int64))

    def build_and_probe() -> float:
        zone_map = ZoneMap(ordered, block_rows=65_536)
        predicate = Predicate(Comparison.BETWEEN, 1_000_000, upper=1_010_000)
        return zone_map.pruned_fraction(predicate)

    pruned = benchmark(build_and_probe)
    assert pruned > 0.9


def test_sample_level_index_serves_coarse_lookups(benchmark):
    """A coarse-granularity lookup uses a sample-level index over far fewer rows."""
    column = build_column()
    hierarchy = SampleHierarchy(column, factor=4, min_rows=256)
    index = SampleLevelIndex(hierarchy)

    def run() -> dict[str, dict[str, float]]:
        fine = index.lookup_range(100_000, 200_000, stride_hint=1)
        coarse = index.lookup_range(100_000, 200_000, stride_hint=1024)
        return {
            "fine lookup (stride 1)": {
                "level": float(fine.level),
                "level_rows": float(hierarchy.level(fine.level).num_rows),
                "matches": float(fine.count),
            },
            "coarse lookup (stride 1024)": {
                "level": float(coarse.level),
                "level_rows": float(hierarchy.level(coarse.level).num_rows),
                "matches": float(coarse.count),
            },
        }

    comparison = benchmark.pedantic(run, rounds=1, iterations=1)
    print_comparison(format_comparison("E-index: per-sample-level index lookups", comparison))

    fine = comparison["fine lookup (stride 1)"]
    coarse = comparison["coarse lookup (stride 1024)"]
    assert fine["level"] == 0.0
    assert coarse["level"] > 0.0
    # the coarse lookup works over a much smaller indexed copy
    assert coarse["level_rows"] * 100 <= fine["level_rows"]
    # and both agree on the selectivity (roughly 10% of their respective levels)
    assert coarse["matches"] / coarse["level_rows"] == pytest.approx(
        fine["matches"] / fine["level_rows"], rel=0.25
    )
