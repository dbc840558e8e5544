"""End-to-end wiring of the offline trace-mining loop.

Record → corpus → mine → checkpoint: traces recorded live by the session
facade land in a :class:`TraceCorpus`, mine into a transition model, and
the model survives a checkpoint round-trip with its predictions intact.
"""

from __future__ import annotations

import numpy as np

from repro.core.commands import TimedCommand
from repro.core.session import ExplorationSession
from repro.mining import (
    GestureTransitionModel,
    TraceCorpus,
    heldout_hit_rate,
    mine_corpus,
)
from repro.touchio.device import DeviceProfile

PROFILE = DeviceProfile(
    name="mining-device",
    screen_width_cm=20.0,
    screen_height_cm=15.0,
    sampling_rate_hz=25.0,
    finger_width_cm=0.08,
)


def exploring_session() -> ExplorationSession:
    session = ExplorationSession(profile=PROFILE)
    rng = np.random.default_rng(3)
    session.load_column("data", rng.integers(0, 1_000, size=20_000, dtype=np.int64))
    return session


def record_trace(seed: int) -> list[TimedCommand]:
    """One slide-heavy exploration recorded as a paced trace."""
    session = exploring_session()
    session.record_trace()
    view = session.show_column("data")
    rng = np.random.default_rng(seed)
    for _ in range(8):
        if rng.random() < 0.7:
            session.slide(view, duration=0.4, start_fraction=0.1, end_fraction=0.9)
        else:
            session.tap(view, fraction=float(rng.random()))
    return session.stop_trace()


def test_record_mine_checkpoint_loop(tmp_path):
    """Traces recorded live train a model that survives its checkpoint."""
    corpus = TraceCorpus(tmp_path / "corpus")
    traces = [record_trace(seed) for seed in range(3)]
    for trace in traces:
        assert all(isinstance(timed, TimedCommand) for timed in trace)
        assert [timed.command.kind for timed in trace][0] == "show-column"
        corpus.append_trace(trace)
    report = mine_corpus(corpus, order=2)
    assert report.traces == 3 and report.skipped == 0
    assert report.model.transitions_observed == sum(len(trace) for trace in traces)
    assert report.model.predict("data", ["slide", "slide"]) in {"slide", "tap"}

    checkpoint = report.model.save(tmp_path / "model.json")
    reloaded = GestureTransitionModel.load(checkpoint)
    assert reloaded.to_dict() == report.model.to_dict()
    tomorrow = [record_trace(seed) for seed in (10, 11)]
    assert heldout_hit_rate(reloaded, tomorrow) == heldout_hit_rate(report.model, tomorrow)
    assert heldout_hit_rate(reloaded, tomorrow).total > 0
