"""A session's state does not grow with its length (counted, no clock).

An :class:`ExplorationSession` runs a common prelude — load a column,
show it, choose a summary action, append one batch of rows, run one
selection — and then a seeded body of gestures ``N`` and ``10 * N``
times: two slides, a slide path that pauses and turns back, a tap, a zoom
in and out, and a range selection.  The body appends nothing: appended
rows are data, not session state.

``tracemalloc`` counts the bytes the session retains once the body is
done and ``gc.collect()`` has run, measured from before the session was
built.  The count after ``10 * N`` body runs must not exceed the count
after ``N`` by more than ``SLACK_BYTES``, in memory and paged.  Nothing
is exempt: ``GROWS_WITH_LENGTH``, the allow-list of containers known to
grow, is empty and may only stay so.  A container that keeps one entry per
gesture (a history of outcomes, an unbounded result stream) retains
hundreds of kilobytes more after the long run and fails here by name.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.kernel import KernelConfig
from repro.core.session import ExplorationSession
from repro.engine.filter import Comparison, Predicate
from repro.persist.diskstore import DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.storage.column import Column
from repro.touchio.device import DeviceProfile
from repro.touchio.synthesizer import SlideSegment

PROFILE = DeviceProfile(
    name="session-length",
    screen_width_cm=20.0,
    screen_height_cm=15.0,
    sampling_rate_hz=60.0,
    finger_width_cm=0.08,
)
ROWS = 50_000
#: body runs of the short session; the long one runs ten times as many
N = 20
#: what the long session may retain beyond the short one: allocator and
#: interpreter noise, far below one entry per gesture
SLACK_BYTES = 16 * 1024
#: the paged store's chunk cache: bounded by this budget, not by the
#: session's length, and small enough (eight 8 KiB chunks) that the taps
#: of the short session fill it
CACHE_BYTES = 64 * 1024
#: containers allowed to grow with the session's length: none
GROWS_WITH_LENGTH: tuple[str, ...] = ()


def _session(paged: bool, root) -> ExplorationSession:
    values = np.random.default_rng(7).integers(0, 1_000_000, ROWS, dtype=np.int64)
    session = ExplorationSession(profile=PROFILE, config=KernelConfig(latency_budget_s=1e6))
    if paged:
        StoreCatalog(DiskColumnStore(root)).persist_column(Column("c", values), chunk_rows=1024)
        StoreCatalog.open_read_only(root, cache_bytes=CACHE_BYTES).attach(session.kernel.catalog)
    else:
        session.load_column("c", values)
    return session


def _prelude(session: ExplorationSession) -> str:
    view = session.show_column("c", view_name="v", height_cm=10.0)
    session.choose_summary(view, k=8)
    session.append("c", np.arange(1_000, dtype=np.int64))
    session.select_where(view, Predicate(Comparison.BETWEEN, 1_000, 50_000))
    return view.name


def _body(session: ExplorationSession, view: str, rng: np.random.Generator) -> None:
    start, end = rng.uniform(0.0, 1.0, 2)
    session.slide(view, duration=0.5, start_fraction=start, end_fraction=end)
    session.slide(view, duration=0.2, start_fraction=end, end_fraction=start)
    turn = float(rng.uniform(0.2, 0.8))
    session.slide_path(
        view,
        [SlideSegment(0.0, turn, 0.3, pause_after=0.1), SlideSegment(turn, 0.1, 0.2)],
    )
    session.tap(view, fraction=float(rng.uniform(0.0, 1.0)))
    session.zoom_in(view)
    session.zoom_out(view)
    low = int(rng.integers(0, 900_000))
    session.select_where(view, Predicate(Comparison.BETWEEN, low, low + 50_000))


def _retained_bytes(paged: bool, root, runs: int) -> int:
    """Bytes a session holds after the prelude and ``runs`` body runs."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        session = _session(paged, root)
        view = _prelude(session)
        rng = np.random.default_rng(2013)
        for _ in range(runs):
            _body(session, view, rng)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert session.summary().gestures == 6 * runs
    return retained


@pytest.mark.parametrize("paged", [False, True], ids=["in_memory", "paged"])
def test_a_session_retains_no_more_after_ten_times_the_gestures(paged, tmp_path):
    # a first run builds one-off module state (imports, caches) before
    # either count starts
    _retained_bytes(paged, tmp_path / "warm", 1)
    short = _retained_bytes(paged, tmp_path / "short", N)
    long = _retained_bytes(paged, tmp_path / "long", 10 * N)
    assert GROWS_WITH_LENGTH == ()
    assert long <= short + SLACK_BYTES, (
        f"{long:,} B retained after {10 * N} body runs against {short:,} B after {N}"
    )
