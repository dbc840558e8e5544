"""E-latency: per-touch response time versus data size.

Section 4 of the paper ("Interactive Behavior"): "There should always be a
maximum possible wait time for a single touch regardless of the query and
the data sizes."  Because dbTouch only processes the tuple(s) a touch maps
to — never the whole column — the per-touch latency must stay flat as the
column grows from 10^4 to 10^7 rows, while the monolithic baseline's
full-scan latency grows linearly.
"""

from __future__ import annotations

import numpy as np

from repro.baseline.engine import MonolithicEngine
from repro.core.session import ExplorationSession
from repro.metrics.reporting import ExperimentSeries
from repro.storage.loader import generate_integer_column
from repro.storage.table import Table
from repro.touchio.device import IPAD1_PROTOTYPE

from conftest import print_series

COLUMN_SIZES = [10_000, 100_000, 1_000_000, 10_000_000]
#: The interactive bound the kernel aims for (50 ms per touch).
LATENCY_BUDGET_S = 0.05


def run_latency_sweep() -> ExperimentSeries:
    """Measure the worst per-touch latency and the baseline full-scan time."""
    series = ExperimentSeries(
        "E-latency: per-touch latency vs data size",
        "column_rows",
        ["dbtouch_max_touch_ms", "dbtouch_mean_touch_ms", "baseline_full_scan_ms"],
    )
    for size in COLUMN_SIZES:
        column = generate_integer_column("c", size, seed=size % 97)
        session = ExplorationSession(profile=IPAD1_PROTOTYPE)
        session.load_column("c", column)
        view = session.show_column("c", height_cm=10.0)
        session.choose_summary(view, k=10, aggregate="avg")
        outcome = session.slide(view, duration=2.0)

        engine = MonolithicEngine()
        engine.register(Table("t", [column.rename("v")]))
        baseline = engine.aggregate("t", "v", "avg")

        series.add(
            size,
            dbtouch_max_touch_ms=outcome.max_touch_latency_s * 1000.0,
            dbtouch_mean_touch_ms=outcome.mean_touch_latency_s * 1000.0,
            baseline_full_scan_ms=baseline.elapsed_s * 1000.0,
        )
    return series


def test_per_touch_latency_is_flat_in_data_size(benchmark):
    """dbTouch's per-touch latency must not grow with the column size."""
    series = benchmark.pedantic(run_latency_sweep, rounds=1, iterations=1)
    print_series(series)

    max_latencies = series.ys("dbtouch_max_touch_ms")
    baseline = series.ys("baseline_full_scan_ms")
    # every touch, at every data size, is far below the interactive budget
    assert max_latencies.max() < LATENCY_BUDGET_S * 1000.0
    # per-touch latency does not scale with data size: the largest column is
    # at most a small constant factor slower than the smallest
    assert max_latencies[-1] < 20.0 * max(max_latencies[0], 1e-3)
    # the baseline full scan, by contrast, grows roughly linearly (>= 50x over
    # a 1000x size increase, allowing for constant overheads)
    assert baseline[-1] > 50.0 * baseline[0]


def test_single_touch_latency_benchmark(fig4_column, benchmark):
    """Time one complete touch (map + summary + emit) on the 10^7 column."""
    session = ExplorationSession(profile=IPAD1_PROTOTYPE)
    session.load_column(fig4_column.name, fig4_column)
    view = session.show_column(fig4_column.name, height_cm=10.0)
    session.choose_summary(view, k=10)
    state = session.kernel.state_of(view.name)
    rowids = iter(np.random.default_rng(1).integers(0, len(fig4_column), size=1_000_000))

    def one_touch():
        return state.summarizer.summarize_at(int(next(rowids)), stride_hint=1)

    result = benchmark(one_touch)
    assert result.values_aggregated >= 1
