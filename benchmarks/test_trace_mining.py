"""F-trace-mining: mined gesture-transition models versus the persistence baseline.

A fleet of synthetic sessions is generated from a planted second-order
gesture process (zoom-out-after-two-slides habits, tap-then-reslide
loops) that a *persistence* predictor — assume the last gesture kind
repeats, the naive extrapolation of the current gesture — cannot
capture.  The corpus is split into train/held-out halves, mined
into an order-2 :class:`GestureTransitionModel`, and scored on the
held-out hit rate: the mined model must beat the persistence baseline on unseen traces by at least ``MIN_LIFT`` (the lift is the value
the fleet's recorded corpus added), and keep its score exactly across a
checkpoint round-trip.

Headline numbers land in ``benchmark.extra_info``.
"""

from __future__ import annotations

import numpy as np

from repro.core.commands import ShowColumn, Slide, Tap, TimedCommand, ZoomIn
from repro.mining import (
    GestureTransitionModel,
    TraceCorpus,
    heldout_hit_rate,
    mine_corpus,
    persistence_hit_rate,
)

from conftest import print_comparison

#: Synthetic fleet size and split.
TRAIN_TRACES = 160
HELDOUT_TRACES = 40
GESTURES_PER_TRACE = 20
#: Data objects the fleet explores (each trace picks one).
OBJECTS = ["sensors", "trades", "logs"]
#: Required hit-rate lift of the mined model over persistence, held out.
MIN_LIFT = 0.10

#: The planted second-order habit structure: context (prev2, prev1) →
#: next-kind distribution.  Heavy on transitions persistence gets wrong
#: (a repeated slide usually ends in a zoom, taps bounce back to slides).
PLANTED = {
    ("slide", "slide"): [("zoom-in", 0.7), ("slide", 0.2), ("tap", 0.1)],
    ("slide", "zoom-in"): [("tap", 0.85), ("slide", 0.15)],
    ("zoom-in", "tap"): [("slide", 0.85), ("tap", 0.15)],
    ("tap", "slide"): [("slide", 0.7), ("tap", 0.3)],
    ("tap", "tap"): [("slide", 0.9), ("zoom-in", 0.1)],
}
DEFAULT_NEXT = [("slide", 0.6), ("tap", 0.3), ("zoom-in", 0.1)]

_GESTURES = {
    "slide": lambda view, rng: Slide(
        view=view,
        duration=0.4,
        start_fraction=float(rng.uniform(0.0, 0.4)),
        end_fraction=float(rng.uniform(0.6, 1.0)),
    ),
    "tap": lambda view, rng: Tap(view=view, fraction=float(rng.random())),
    "zoom-in": lambda view, rng: ZoomIn(view=view, duration=0.3),
}


def planted_kinds(rng: np.random.Generator, length: int) -> list[str]:
    """Sample one gesture-kind sequence from the planted process."""
    kinds = ["slide"]
    while len(kinds) < length:
        context = tuple(kinds[-2:]) if len(kinds) >= 2 else None
        table = PLANTED.get(context, DEFAULT_NEXT)
        outcomes, weights = zip(*table)
        kinds.append(str(rng.choice(outcomes, p=np.asarray(weights))))
    return kinds


def synthesize_trace(rng: np.random.Generator) -> list:
    """One synthetic session: show an object, then planted gestures."""
    obj = OBJECTS[int(rng.integers(len(OBJECTS)))]
    view = f"{obj}-view"
    commands = [ShowColumn(object_name=obj, view_name=view)]
    for kind in planted_kinds(rng, GESTURES_PER_TRACE):
        commands.append(_GESTURES[kind](view, rng))
    return commands


def as_recorded(commands: list) -> list[TimedCommand]:
    """What a recording session would hand the corpus: timed commands."""
    return [TimedCommand(command=c, think_s=0.1) for c in commands]


def test_speculation_heldout_hit_rate(benchmark, tmp_path):
    """Mined order-2 predictions beat persistence on held-out traces."""
    rng = np.random.default_rng(71)
    corpus = TraceCorpus(tmp_path / "corpus")
    for _ in range(TRAIN_TRACES):
        corpus.append_trace(as_recorded(synthesize_trace(rng)))
    heldout = [synthesize_trace(rng) for _ in range(HELDOUT_TRACES)]

    def run():
        report = mine_corpus(corpus, order=2, seed=7)
        mined = heldout_hit_rate(report.model, heldout)
        baseline = persistence_hit_rate(heldout)
        return report, mined, baseline

    report, mined, baseline = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.skipped == 0 and report.traces == TRAIN_TRACES
    assert mined.total == baseline.total > 0
    lift = mined.rate - baseline.rate
    print_comparison(
        {
            "mined (order-2 corpus model)": {"hit_rate": mined.rate},
            "baseline (persistence)": {"hit_rate": baseline.rate},
        }
    )
    benchmark.extra_info["mined_hit_rate"] = mined.rate
    benchmark.extra_info["baseline_hit_rate"] = baseline.rate
    benchmark.extra_info["lift"] = lift
    benchmark.extra_info["events_scored"] = mined.total
    benchmark.extra_info["transitions_mined"] = report.model.transitions_observed
    # checkpoint round-trip preserves the held-out score exactly
    reloaded = GestureTransitionModel.load(report.model.save(tmp_path / "m.json"))
    assert heldout_hit_rate(reloaded, heldout).rate == mined.rate
    assert lift >= MIN_LIFT
