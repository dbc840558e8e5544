"""Figure 4(a): effect of varying the slide-gesture speed.

Paper setup: a vertical rectangle object, 10 cm tall, representing a column
of 10^7 integers.  The user slides a single finger from the top end to the
bottom end, running an interactive-summaries query (average aggregation,
10 entries per summary).  The gesture is repeated at different speeds and
the number of data entries that appear is measured.

Paper result (Figure 4a): the slower the gesture (the longer it takes to
complete), the more data entries are returned — an approximately linear
relationship, from a handful of entries for a ~0.5 s swipe up to ~55
entries for a ~4 s swipe.

This benchmark regenerates that series.  Absolute counts depend on the
touch-event rate of the (simulated) device; the shape — monotone increase,
approximately linear in gesture duration — is asserted.
"""

from __future__ import annotations


from repro.core.kernel import KernelConfig
from repro.metrics.reporting import ExperimentSeries

from conftest import (
    FIG4_OBJECT_HEIGHT_CM,
    FIG4_SUMMARY_K,
    make_fig4_session,
    print_series,
)

#: Gesture completion times swept, in seconds (the paper's x-axis spans 0-4 s).
GESTURE_DURATIONS_S = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]


def run_speed_sweep(column) -> ExperimentSeries:
    """Slide the full object at each speed and record the entries returned."""
    series = ExperimentSeries(
        "Figure 4(a): vary gesture speed",
        "gesture_duration_s",
        ["entries_returned", "tuples_examined"],
    )
    for duration in GESTURE_DURATIONS_S:
        # the sample hierarchy is disabled so tuples_examined reflects the
        # base window each summary aggregates (2k+1 values per entry)
        session = make_fig4_session(column, config=KernelConfig(enable_samples=False))
        view = session.show_column(column.name, height_cm=FIG4_OBJECT_HEIGHT_CM)
        session.choose_summary(view, k=FIG4_SUMMARY_K, aggregate="avg")
        outcome = session.slide(view, duration=duration)
        series.add(
            duration,
            entries_returned=outcome.entries_returned,
            tuples_examined=outcome.tuples_examined,
        )
    return series


def test_fig4a_slower_gestures_return_more_entries(fig4_column, benchmark):
    """Regenerate Figure 4(a) and check its qualitative shape."""
    series = benchmark.pedantic(run_speed_sweep, args=(fig4_column,), rounds=1, iterations=1)
    print_series(series)

    entries = series.ys("entries_returned")
    # shape 1: slowing the gesture down never reduces the data observed
    assert series.is_monotonic_increasing("entries_returned", tolerance=1)
    # shape 2: the relationship is approximately linear in gesture duration
    assert series.linear_correlation("entries_returned") > 0.98
    # shape 3: a 4 s gesture observes several times more data than a 0.5 s one
    assert series.ratio_last_to_first("entries_returned") > 4.0
    # sanity: the counts are in the tens, as in the paper, not in the thousands
    assert 3 <= entries[0] <= 30
    assert 30 <= entries[-1] <= 120


def test_fig4a_single_touch_cost_is_bounded(fig4_column, benchmark):
    """The per-touch work (one interactive summary) is what the benchmark
    times: it must not depend on the column size."""
    session = make_fig4_session(fig4_column)
    view = session.show_column(fig4_column.name, height_cm=FIG4_OBJECT_HEIGHT_CM)
    session.choose_summary(view, k=FIG4_SUMMARY_K, aggregate="avg")
    state = session.kernel.state_of(view.name)

    def one_summary_touch():
        return state.summarizer.summarize_at(5_000_000, stride_hint=1)

    result = benchmark(one_summary_touch)
    assert result.values_aggregated == 2 * FIG4_SUMMARY_K + 1
