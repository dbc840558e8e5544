"""E-batch: vectorized batch slide execution vs the per-touch loop.

The per-touch reference path costs a Python interpreter round-trip per
registered touch location, so a fast digitizer (thousands of events per
gesture) spends its latency budget on overhead rather than data access.
The batch executor runs the same gesture as a handful of numpy passes.

This benchmark drives a 2-second slide over a 1M-row column on a
high-rate digitizer (>= 10k touch events) and checks both halves of the
contract:

* **parity** — the batch path produces identical deterministic
  ``GestureOutcome`` counters (rowids touched, tuples examined, entries
  returned, served levels, final aggregate, displayed values) across
  feature configurations;
* **speed** — the batch path completes the gesture at least 5x faster
  than the per-touch loop.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.kernel import KernelConfig
from repro.core.session import ExplorationSession
from repro.metrics.reporting import format_comparison
from repro.touchio.device import DeviceProfile

from conftest import print_comparison

#: 1M tuples, the size called out in the batch-execution acceptance bar.
BATCH_ROWS = 1_000_000
#: A modern digitizer: 6 kHz * 2 s ~= 12k touch events per slide.
FAST_DIGITIZER = DeviceProfile(
    name="fast-digitizer",
    screen_width_cm=20.0,
    screen_height_cm=15.0,
    sampling_rate_hz=6000.0,
    finger_width_cm=0.05,
)
#: Minimum number of touch events the acceptance bar demands.
MIN_TOUCH_EVENTS = 10_000
#: Required speedup of the batch path over the per-touch loop.
REQUIRED_SPEEDUP = 5.0

CONFIGS = {
    "bare scan": (dict(enable_samples=False), "scan"),
    "scan + samples": (dict(), "scan"),
    "running avg": (dict(enable_samples=False), "avg"),
    "summary k=10": (dict(enable_samples=False), "summary"),
    "summary k=10 + samples": (dict(), "summary"),
}


@pytest.fixture(scope="module")
def batch_column():
    return np.arange(BATCH_ROWS, dtype=np.int64)


def _drive_gesture(column, batch_execution: bool, config_kwargs: dict, action: str):
    """Build a fresh session, run one dense slide, return (outcome, seconds, events)."""
    # the adaptive optimizer reads the wall clock: one 50 ms gen-2 GC pause
    # inside a per-touch-loop touch overruns the default 50 ms budget, halves
    # that touch's summary window, and the "deterministic" counters differ
    # (tuples 251970 vs 251980) — so parity pins the budget off, as the
    # differential suites do
    session = ExplorationSession(
        profile=FAST_DIGITIZER,
        config=KernelConfig(
            batch_execution=batch_execution, latency_budget_s=1e6, **config_kwargs
        ),
    )
    session.load_column("ramp", column)
    view = session.show_column("ramp", height_cm=10.0)
    if action == "scan":
        session.choose_scan(view)
    elif action == "avg":
        session.choose_aggregate(view, "avg")
    else:
        session.choose_summary(view, k=10)
    stream = session.synthesizer.slide(view, duration=2.0)
    gesture = session.kernel.recognizer.recognize(stream)
    started = time.perf_counter()
    outcome = session.kernel.handle_gesture(gesture)
    elapsed = time.perf_counter() - started
    return outcome, elapsed, len(stream)


def _deterministic_fields(outcome) -> dict:
    return dict(
        rowids=tuple(outcome.rowids_touched),
        tuples=outcome.tuples_examined,
        entries=outcome.entries_returned,
        levels=tuple(sorted(outcome.served_level_counts.items())),
        final=outcome.final_aggregate,
        values=tuple(r.value for r in outcome.results),
    )


def test_batch_slide_parity(batch_column):
    """Batch and per-touch paths agree on every deterministic counter."""
    for label, (config_kwargs, action) in CONFIGS.items():
        loop_outcome, _, loop_events = _drive_gesture(batch_column, False, config_kwargs, action)
        batch_outcome, _, batch_events = _drive_gesture(batch_column, True, config_kwargs, action)
        assert loop_events == batch_events >= MIN_TOUCH_EVENTS
        loop_fields = _deterministic_fields(loop_outcome)
        batch_fields = _deterministic_fields(batch_outcome)
        assert loop_fields == batch_fields, f"outcome mismatch for {label!r}"
        # both paths report one latency sample per processed touch
        assert len(loop_outcome.per_touch_latencies_s) == len(
            batch_outcome.per_touch_latencies_s
        )


@pytest.mark.wallclock
def test_batch_slide_speedup(batch_column):
    """The batch path is >= 5x faster on a 1M-row slide with >= 10k touches."""
    # warm both paths once (numpy ufunc dispatch caches, lazy imports)
    # before taking measurements
    for batch_execution in (False, True):
        _drive_gesture(batch_column, batch_execution, dict(enable_samples=False), "scan")
    report: dict[str, dict[str, float]] = {}
    speedups: dict[str, float] = {}
    for label, (config_kwargs, action) in CONFIGS.items():
        rounds = 3 if label in ("bare scan", "running avg") else 1
        loop_s = min(
            _drive_gesture(batch_column, False, config_kwargs, action)[1]
            for _ in range(rounds)
        )
        batch_s = min(
            _drive_gesture(batch_column, True, config_kwargs, action)[1]
            for _ in range(rounds)
        )
        speedups[label] = loop_s / batch_s
        report[label] = {
            "per_touch_ms": loop_s * 1000.0,
            "batch_ms": batch_s * 1000.0,
            "speedup_x": speedups[label],
        }
    print_comparison(
        format_comparison("E-batch: 2 s slide over 1M rows (~12k touches)", report)
    )
    # the acceptance bar is asserted on the pure execution configurations;
    # the feature-heavy configurations are reported alongside
    assert speedups["bare scan"] >= REQUIRED_SPEEDUP
    assert speedups["running avg"] >= REQUIRED_SPEEDUP
