"""Trace mining end to end: record a fleet's sessions, mine, score.

Every recorded exploration is evidence of how analysts actually move, and
a fleet can mine that corpus into a model of which gesture follows which.
This example runs the offline loop:

1. a small "fleet day" of sessions explores a sensor column with a
   habitual rhythm (slide, slide, zoom in, tap ...), each recorded via
   ``ExplorationSession.record_trace`` and appended to a
   :class:`repro.TraceCorpus` (with one torn write injected, because real
   corpora always have them);
2. the corpus is mined offline into an order-2
   :class:`repro.GestureTransitionModel`, saved as a JSON checkpoint and
   loaded back;
3. tomorrow's session is recorded, and the reloaded model's next-gesture
   hit rate on it (:func:`repro.heldout_hit_rate`) is compared against the
   persistence baseline (the "last gesture repeats" assumption).

Run it with::

    python examples/trace_mining.py

Exits non-zero if the mined model fails to beat the baseline.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import (
    ExplorationSession,
    GestureTransitionModel,
    TraceCorpus,
    heldout_hit_rate,
    mine_corpus,
    persistence_hit_rate,
)
from repro.core.commands import TimedCommand
from repro.touchio.device import DeviceProfile

PROFILE = DeviceProfile(
    name="fleet-tablet",
    screen_width_cm=20.0,
    screen_height_cm=15.0,
    sampling_rate_hz=25.0,
    finger_width_cm=0.08,
)

#: The fleet's habitual exploration rhythm (two quick slides, a zoom to
#: change granularity, a tap to inspect, then back to sliding).
HABIT = ["slide", "slide", "zoom-in", "tap", "slide", "tap"]
SESSIONS = 8
CYCLES_PER_SESSION = 3


def fresh_session(rng: np.random.Generator) -> ExplorationSession:
    session = ExplorationSession(profile=PROFILE)
    session.load_column(
        "sensor", rng.integers(0, 10_000, size=50_000, dtype=np.int64)
    )
    return session


def drive_habit(session: ExplorationSession, rng: np.random.Generator) -> None:
    """One session following the fleet habit, with a little human noise."""
    view = session.show_column("sensor")
    for _ in range(CYCLES_PER_SESSION):
        for kind in HABIT:
            if rng.random() < 0.1:  # occasionally break the habit
                kind = "tap" if kind == "slide" else "slide"
            if kind == "slide":
                a, b = sorted(rng.uniform(0.0, 1.0, size=2))
                session.slide(view, duration=0.4, start_fraction=a, end_fraction=b)
            elif kind == "zoom-in":
                session.zoom_in(view, duration=0.3)
            else:
                session.tap(view, fraction=float(rng.random()))


def main() -> int:
    rng = np.random.default_rng(42)
    with tempfile.TemporaryDirectory(prefix="dbtouch-mining-") as root:
        corpus = TraceCorpus(Path(root) / "corpus")

        # ------------------------------------------------------------ #
        # 1. the fleet day: record sessions into the corpus
        # ------------------------------------------------------------ #
        for _ in range(SESSIONS):
            session = fresh_session(rng)
            session.record_trace()
            drive_habit(session, rng)
            corpus.append_trace(session.stop_trace())
        with (Path(root) / "corpus" / "traces.jsonl").open("a") as handle:
            handle.write('{"version": 1, "trace": "torn')  # a torn write
        print(f"corpus: {len(corpus)} traces recorded")

        # ------------------------------------------------------------ #
        # 2. mine offline, checkpoint the model
        # ------------------------------------------------------------ #
        report = mine_corpus(corpus, order=2, seed=7)
        print(
            f"mined : {report.traces} traces, {report.records} records, "
            f"{report.skipped} skipped (torn writes survive mining)"
        )
        checkpoint = report.model.save(Path(root) / "gesture-model.json")
        print(
            f"model : order-{report.model.order}, "
            f"{report.model.transitions_observed} transitions "
            f"-> {checkpoint.name}"
        )

        # ------------------------------------------------------------ #
        # 3. reload the checkpoint and score tomorrow's session
        # ------------------------------------------------------------ #
        model = GestureTransitionModel.load(checkpoint)
        if model.to_dict() != report.model.to_dict():
            print("FAILED: the checkpoint did not round-trip", file=sys.stderr)
            return 1
        tomorrow = fresh_session(rng)
        tomorrow.record_trace()
        drive_habit(tomorrow, rng)
        replayed: list[TimedCommand] = tomorrow.stop_trace()

        mined = heldout_hit_rate(model, [replayed])
        baseline = persistence_hit_rate([replayed])
        print("\nscoring tomorrow's session:")
        print(f"  gestures scored   : {mined.total}")
        print(f"  mined hit rate    : {mined.rate:.2f}")
        print(f"  persistence rate  : {baseline.rate:.2f}")

        if report.skipped != 1:
            print("FAILED: the torn write was not accounted", file=sys.stderr)
            return 1
        if mined.rate <= baseline.rate:
            print(
                f"FAILED: mined hit rate {mined.rate:.2f} does not beat "
                f"the persistence baseline {baseline.rate:.2f}",
                file=sys.stderr,
            )
            return 1
    print("\nmined model beats the persistence baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
