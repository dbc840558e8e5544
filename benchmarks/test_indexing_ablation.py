"""E-index: index support for touch-driven selections (Section 2.6 "Indexing").

The paper proposes (a) maintaining a separate index per sample level, so an
index-supported slide can be served at whatever granularity the gesture
uses, and (b) exploiting adaptive indexing, where the columns users
select on earn an index as a side effect.  The repo no longer reproduces
(a) as a separate structure: a slide reads its sample level directly, and
selections go to one index per column.  The adaptive index of (b) is a
column's value-sorted runs: run 0, sorted by the first selection, and one
run per merged tail, each one sorted ``uint64`` array of packed
``image(value) << bits | rowid`` keys (Schuhknecht et al., *The Uncracked
Pieces in Database Cracking*: a cheap sort beats cracking once its
first-query cost is paid).

The ablation: **sorted index vs full scan** — how much data must be
scanned to answer the same value-range selection as the user keeps
issuing similar range restrictions (the first one sorts the column, every
later one binary-searches each run for its two bounds).
"""

from __future__ import annotations

import math

import numpy as np

from repro.indexing.sorted_index import SortedIndex
from repro.metrics.reporting import ExperimentSeries
from repro.storage.column import Column

from conftest import print_series

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
