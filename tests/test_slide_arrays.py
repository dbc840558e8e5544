"""A slide's bookkeeping is arrays: no Python runs per touch.

* **Counted, no clock.**  Under ``sys.settrace``, the line events executed
  in ``core/batch.py`` and ``core/result_stream.py`` during one batch
  ``Slide`` through :meth:`LocalExplorationService.execute` are counted for
  a 40-touch and a 400-touch stream, in memory and paged.  The counts are
  equal, with no function left out: the executor reads, filters and emits
  with whole-array passes, whatever the touch count.

Hypothesis properties, one per pass the batch slide path runs instead of a
Python loop per touch:

* **Columnar emission.**  :meth:`ResultStream.emit_batch` followed by the
  derived :class:`ResultValue` view equals a loop of :meth:`ResultStream.emit`
  calls on a list-backed model of the stream bounded by ``max_visible``:
  the kept results, values, ``total_emitted``, and the all-or-nothing
  rejection of a bad batch.
* **Visible window.**  :meth:`ResultStream.visible_at` on the ring equals
  the walk over the whole history, kept by an unbounded list, in order,
  results and opacities.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.batch as batch
import repro.core.result_stream as result_stream
from repro.core.actions import scan_action
from repro.core.commands import ChooseAction, ShowColumn, Slide
from repro.core.kernel import KernelConfig
from repro.core.result_stream import ResultStream, ResultValue, VisibleResult
from repro.errors import VisualizationError
from repro.persist.diskstore import DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.service import LocalExplorationService
from repro.storage.column import Column
from repro.touchio.device import DeviceProfile

# --------------------------------------------------------------------- #
# counted: a slide's Python work does not grow with its touches
# --------------------------------------------------------------------- #
PROFILE = DeviceProfile(
    name="slide-arrays",
    screen_width_cm=20.0,
    screen_height_cm=15.0,
    sampling_rate_hz=60.0,
    finger_width_cm=0.08,
)
ROWS = 200_000
SLIDE_MODULES = (batch, result_stream)


def _service(paged: bool, root) -> LocalExplorationService:
    values = np.random.default_rng(3).integers(0, 1_000_000, ROWS, dtype=np.int64)
    service = LocalExplorationService(profile=PROFILE, config=KernelConfig(latency_budget_s=1e6))
    if paged:
        catalog = StoreCatalog(DiskColumnStore(root))
        catalog.persist_column(Column("col", values), chunk_rows=1024)
        StoreCatalog.open_read_only(root, cache_bytes=1 << 20).attach(service.catalog)
    else:
        service.load_column("col", values)
    service.execute(ShowColumn(object_name="col", view_name="c"))
    service.execute(ChooseAction(view="c", action=scan_action()))
    return service


def _traced_slide(service, touches: int, start: float, end: float):
    """One slide of ``touches`` samples; returns (outcome, {file: lines run})."""
    lines = {module.__file__: 0 for module in SLIDE_MODULES}

    def count_lines(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename] += 1
        return count_lines

    def on_call(frame, event, arg):
        return count_lines if frame.f_code.co_filename in lines else None

    command = Slide(
        view="c",
        duration=(touches - 1) / PROFILE.sampling_rate_hz,
        start_fraction=start,
        end_fraction=end,
    )
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        envelope = service.execute(command)
    finally:
        sys.settrace(previous)
    return envelope.payload, lines


@pytest.mark.parametrize("paged", [False, True], ids=["in_memory", "paged"])
def test_a_slide_runs_the_same_python_lines_for_40_and_400_touches(paged, tmp_path):
    service = _service(paged, tmp_path)
    service.execute(Slide(view="c", duration=0.5))
    counted = {}
    for touches, start, end in ((40, 0.1, 0.4), (400, 0.9, 0.05)):
        outcome, lines = _traced_slide(service, touches, start, end)
        assert len(outcome.rowids_touched) >= 0.9 * touches
        assert len(outcome.results) == outcome.entries_returned > 0
        counted[touches] = lines
    assert all(counted[40].values()), counted[40]  # every module ran
    assert counted[40] == counted[400]


# --------------------------------------------------------------------- #
# columnar emission: emit_batch + the derived view equal an emit loop
# --------------------------------------------------------------------- #
class _ListStream:
    """A list-backed stream: one object per result, the newest ``bound``
    kept (``None`` keeps them all)."""

    def __init__(self, bound):
        self.bound = bound
        self.history: list[ResultValue] = []
        self.total_emitted = 0

    def emit(self, value, rowid, fraction, timestamp):
        if not 0.0 <= fraction <= 1.0:
            raise VisualizationError("position_fraction must be within [0, 1]")
        if self.history and timestamp < self.history[-1].timestamp:
            raise VisualizationError("result timestamps must be non-decreasing")
        self.history.append(ResultValue(value, rowid, fraction, timestamp))
        self.total_emitted += 1
        if self.bound is not None:
            del self.history[: max(0, len(self.history) - self.bound)]


RESULT = st.tuples(
    st.integers(-50, 50),  # value
    st.integers(0, 10_000),  # rowid
    st.sampled_from([0.0, 0.25, 1.0, 1.5]),  # fraction; 1.5 is rejected
    st.integers(0, 6),  # timestamp step; going back in time comes from REWIND
)
#: how a batch goes back in time: not at all, inside itself, or before the
#: last result already emitted
REWIND = st.sampled_from(["none", "inside", "before"])
OP = st.one_of(
    st.tuples(st.just("emit"), RESULT),
    st.tuples(st.just("batch"), st.lists(RESULT, max_size=12), REWIND),
)


def _results_at(clock: float, items, rewind: str):
    """``(values, rowids, fractions, timestamps)`` from ``clock`` on."""
    times = clock + np.cumsum([step for *_, step in items]).astype(np.float64)
    if rewind == "inside" and len(items) > 1:
        times[-1] = times[0] - 1.0  # the batch is refused
    elif rewind == "before":
        times -= 0.5  # before the last result when there is one: refused
    values = [value for value, *_ in items]
    rowids = [rowid for _, rowid, *_ in items]
    fractions = [fraction for _, _, fraction, _ in items]
    return values, rowids, fractions, times.tolist()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(max_visible=st.sampled_from([1, 5, 17, 50]), ops=st.lists(OP, max_size=25))
def test_emit_batch_and_its_view_equal_an_emit_loop(max_visible, ops):
    stream = ResultStream(max_visible=max_visible)
    model = _ListStream(max_visible)
    clock = 0.0
    for op in ops:
        if op[0] == "emit":
            value, rowid, fraction, step = op[1]
            clock += step
            try:
                model.emit(value, rowid, fraction, clock)
            except VisualizationError:
                with pytest.raises(VisualizationError):
                    stream.emit(value, rowid, fraction, clock)
            else:
                assert stream.emit(value, rowid, fraction, clock) == model.history[-1]
        elif op[0] == "batch":
            columns = _results_at(clock, op[1], op[2])
            before = list(model.history), model.total_emitted
            try:
                for item in zip(*columns):
                    model.emit(*item)
            except VisualizationError:
                model.history, model.total_emitted = before
                with pytest.raises(VisualizationError):
                    stream.emit_batch(*columns)
            else:
                emitted = stream.emit_batch(*columns)
                assert list(emitted) == [ResultValue(*item) for item in zip(*columns)]
                if columns[3]:
                    clock = columns[3][-1]
        assert list(stream) == model.history
        assert len(stream) == len(model.history)
        assert stream.values == [r.value for r in model.history]
        assert stream.total_emitted == model.total_emitted


# --------------------------------------------------------------------- #
# the ring's visible window equals the walk over the whole history
# --------------------------------------------------------------------- #
def _walk_visible(stream: ResultStream, history, now: float):
    visible = [
        VisibleResult(result=r, opacity=stream.opacity_at(r, now))
        for r in history
        if stream.opacity_at(r, now) > 0.0
    ]
    return visible[-stream.max_visible :]


TIME = st.floats(0.0, 100.0, allow_nan=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    fade=st.floats(1e-3, 50.0),
    max_visible=st.integers(1, 12),
    batches=st.lists(st.lists(TIME, min_size=1, max_size=15), max_size=6),
    singles=st.lists(TIME, max_size=10),
    now=st.floats(-5.0, 160.0, allow_nan=False),
)
@example(  # results exactly at the fade edge, and stamped after now
    fade=1.0, max_visible=5,
    batches=[[1.0, 1.0, 2.0, 2.0, 3.5]], singles=[], now=3.0,
)
@example(  # now - timestamp < fade, but timestamp > now - fade rounds the other way
    fade=2.739139176060388, max_visible=5,
    batches=[[4.393563215942336, 5.393563215942336, 6.0]], singles=[], now=8.132702392002724,
)
def test_visible_at_equals_the_history_walk(fade, max_visible, batches, singles, now):
    stream = ResultStream(fade_seconds=fade, max_visible=max_visible)
    kept, everything = _ListStream(max_visible), _ListStream(None)
    times = sorted(t for batch in batches for t in batch)
    cut = 0
    for batch in batches:  # batches, in time order
        chunk = times[cut : cut + len(batch)]
        cut += len(batch)
        columns = (np.arange(len(chunk)), np.arange(len(chunk)), [0.5] * len(chunk), chunk)
        stream.emit_batch(*columns)
        for model in (kept, everything):
            for item in zip(*columns):
                model.emit(item[0].item(), *item[1:])
    for rowid, step in enumerate(sorted(singles)):  # then single emits
        result = (f"v{rowid}", rowid, 0.5, times[-1] + step if times else step)
        stream.emit(*result)
        for model in (kept, everything):
            model.emit(*result)
    assert list(stream) == kept.history
    assert stream.visible_at(now) == _walk_visible(stream, everything.history, now)
