"""E-join: non-blocking symmetric join versus blocking hash join.

Section 2.9 of the paper ("Joins"): the classic hash join is blocking — it
must consume the whole build input before the first result — which breaks
the interactive behaviour, because in dbTouch the system never knows up
front which data the gesture will deliver.  The symmetric (pipelined) hash
join produces matches as soon as both sides of a key have been touched.

The benchmark drives both joins with the same interleaved stream of touched
tuples and compares (a) how many tuples had to be consumed before the first
result and (b) how results accumulate as the gesture progresses.
"""

from __future__ import annotations

import numpy as np

from repro.engine.join import BlockingHashJoin, SymmetricHashJoin
from repro.metrics.reporting import ExperimentSeries, format_comparison

from conftest import print_comparison, print_series

ROWS = 50_000
KEY_CARDINALITY = 5_000
#: Checkpoints (fraction of the gesture completed) at which progress is sampled.
CHECKPOINTS = [0.01, 0.1, 0.25, 0.5, 1.0]


def build_inputs() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(31)
    left = rng.integers(0, KEY_CARDINALITY, size=ROWS)
    right = rng.integers(0, KEY_CARDINALITY, size=ROWS)
    return left, right


def run_progressive_join(left: np.ndarray, right: np.ndarray) -> tuple[ExperimentSeries, dict]:
    """Feed both joins touch by touch and record result availability."""
    series = ExperimentSeries(
        "E-join: results available as the gesture progresses",
        "gesture_fraction",
        ["symmetric_matches", "blocking_matches"],
    )
    symmetric = SymmetricHashJoin()
    tuples_until_first_symmetric_match = None
    checkpoints = {int(f * ROWS): f for f in CHECKPOINTS}
    for i in range(ROWS):
        symmetric.on_left(i, int(left[i]))
        symmetric.on_right(i, int(right[i]))
        if tuples_until_first_symmetric_match is None and symmetric.num_matches:
            tuples_until_first_symmetric_match = 2 * (i + 1)
        if i + 1 in checkpoints:
            fraction = checkpoints[i + 1]
            # the blocking join has produced nothing until the build side (the
            # whole left input) has been consumed; afterwards it has probed the
            # same prefix of the right input
            blocking_matches = 0
            if fraction >= 1.0:
                blocking = BlockingHashJoin()
                blocking_matches = len(blocking.join(left.tolist(), right.tolist()))
            series.add(
                fraction,
                symmetric_matches=symmetric.num_matches,
                blocking_matches=blocking_matches,
            )
    summary = {
        "symmetric": {
            "tuples_before_first_result": float(tuples_until_first_symmetric_match),
            "total_matches": float(symmetric.num_matches),
        },
        "blocking": {
            "tuples_before_first_result": float(ROWS),
            "total_matches": float(series.ys("blocking_matches")[-1]),
        },
    }
    return series, summary


def test_symmetric_join_is_non_blocking(benchmark):
    """The symmetric join yields results orders of magnitude earlier."""
    left, right = build_inputs()
    series, summary = benchmark.pedantic(
        run_progressive_join, args=(left, right), rounds=1, iterations=1
    )
    print_series(series)
    print_comparison(format_comparison("E-join: time to first result (tuples consumed)", summary))

    # both joins agree on the final answer
    assert summary["symmetric"]["total_matches"] == summary["blocking"]["total_matches"]
    # the symmetric join produced its first match after consuming a tiny
    # fraction of the input; the blocking join had to consume the whole build side
    assert summary["symmetric"]["tuples_before_first_result"] < 0.01 * ROWS
    assert summary["blocking"]["tuples_before_first_result"] == ROWS
    # results accumulate monotonically as the gesture progresses
    assert series.is_monotonic_increasing("symmetric_matches")
    # and well before the gesture ends the symmetric join already has results
    assert series.ys("symmetric_matches")[1] > 0


def test_symmetric_join_per_touch_cost(benchmark):
    """Time the per-touch work of the symmetric join (insert + probe)."""
    rng = np.random.default_rng(7)
    keys = iter(rng.integers(0, 1000, size=2_000_000).tolist())
    join = SymmetricHashJoin()
    counter = iter(range(2_000_000))

    def one_touch():
        i = next(counter)
        return join.on_left(i, next(keys))

    benchmark(one_touch)
    assert join.left_cardinality > 0
