"""A slide's bookkeeping is arrays: each array pass equals the loop it replaced.

Hypothesis properties, one per pass the batch slide path runs instead of a
Python loop per touch (the settrace guard in ``tests/test_cache_slots.py``
counts that no such loop is left but the prefetched-set walk):

* **Columnar emission.**  :meth:`ResultStream.emit_batch` followed by the
  derived :class:`ResultValue` view equals a loop of :meth:`ResultStream.emit`
  calls on a list-backed model of the stream: history, values, retention,
  ``trim``, ``total_emitted`` / ``total_dropped``, and the all-or-nothing
  rejection of a bad batch.
* **Visible window.**  :meth:`ResultStream.visible_at` equals the walk over
  the whole history it replaced, in order, results and opacities.
* **Proposal pass.**  :meth:`GesturePrefetcher.propose_batch` equals
  ``observe`` + ``propose`` per touch over gestures that carry the
  observation window across, for every history length.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.prefetch import GesturePrefetcher
from repro.core.result_stream import ResultStream, ResultValue, VisibleResult
from repro.errors import VisualizationError

# --------------------------------------------------------------------- #
# columnar emission: emit_batch + the derived view equal an emit loop
# --------------------------------------------------------------------- #
class _ListStream:
    """The list-backed stream the columns replaced: one object per result."""

    def __init__(self, max_retained):
        self.max_retained = max_retained
        self.history: list[ResultValue] = []
        self.total_emitted = self.total_dropped = 0

    def emit(self, value, rowid, fraction, timestamp):
        if not 0.0 <= fraction <= 1.0:
            raise VisualizationError("position_fraction must be within [0, 1]")
        if self.history and timestamp < self.history[-1].timestamp:
            raise VisualizationError("result timestamps must be non-decreasing")
        self.history.append(ResultValue(value, rowid, fraction, timestamp))
        self.total_emitted += 1
        if self.max_retained is not None:
            self.trim(self.max_retained)

    def trim(self, bound):
        overflow = max(0, len(self.history) - bound)
        del self.history[:overflow]
        self.total_dropped += overflow
        return overflow


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
    st.tuples(st.just("trim"), st.integers(1, 20)),
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
@given(max_retained=st.sampled_from([None, 1, 5, 17]), ops=st.lists(OP, max_size=25))
def test_emit_batch_and_its_view_equal_an_emit_loop(max_retained, ops):
    stream = ResultStream(max_retained=max_retained)
    model = _ListStream(max_retained)
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
            before = list(model.history), model.total_emitted, model.total_dropped
            try:
                for item in zip(*columns):
                    model.emit(*item)
            except VisualizationError:
                model.history, model.total_emitted, model.total_dropped = before
                with pytest.raises(VisualizationError):
                    stream.emit_batch(*columns)
            else:
                emitted = stream.emit_batch(*columns)
                assert list(emitted) == [ResultValue(*item) for item in zip(*columns)]
                if columns[3]:
                    clock = columns[3][-1]
        else:
            assert stream.trim(op[1]) == model.trim(op[1])
        assert list(stream) == model.history
        assert len(stream) == len(model.history)
        assert stream.values == [r.value for r in model.history]
        assert stream.total_emitted == model.total_emitted
        assert stream.total_dropped == model.total_dropped


# --------------------------------------------------------------------- #
# the visible window equals the walk over the whole history
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
    max_retained=st.sampled_from([None, 3, 30]),
    batches=st.lists(st.lists(TIME, min_size=1, max_size=15), max_size=6),
    singles=st.lists(TIME, max_size=10),
    now=st.floats(-5.0, 160.0, allow_nan=False),
)
@example(  # results exactly at the fade edge, and stamped after now
    fade=1.0, max_visible=5, max_retained=None,
    batches=[[1.0, 1.0, 2.0, 2.0, 3.5]], singles=[], now=3.0,
)
@example(  # now - timestamp < fade, but timestamp > now - fade rounds the other way
    fade=2.739139176060388, max_visible=5, max_retained=None,
    batches=[[4.393563215942336, 5.393563215942336, 6.0]], singles=[], now=8.132702392002724,
)
def test_visible_at_equals_the_history_walk(
    fade, max_visible, max_retained, batches, singles, now
):
    stream = ResultStream(fade_seconds=fade, max_visible=max_visible, max_retained=max_retained)
    times = sorted(t for batch in batches for t in batch)
    cut = 0
    for batch in batches:  # batch chunks, in time order
        chunk = times[cut : cut + len(batch)]
        cut += len(batch)
        stream.emit_batch(np.arange(len(chunk)), np.arange(len(chunk)), [0.5] * len(chunk), chunk)
    for rowid, step in enumerate(sorted(singles)):  # then an open chunk of single emits
        stream.emit(f"v{rowid}", rowid, 0.5, times[-1] + step if times else step)
    assert stream.visible_at(now) == _walk_visible(stream, list(stream), now)


# --------------------------------------------------------------------- #
# the proposal pass equals observe + propose per touch
# --------------------------------------------------------------------- #
TOUCH = st.tuples(
    st.sampled_from([0.0, 0.0, 1e-10, 0.01, 0.03, 0.2]),  # time step, pauses included
    st.integers(-400, 400),  # rowid step
    st.integers(-2, 300),  # stride, including the clamp to 1
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    history=st.sampled_from([2, 3, 8]),
    num_tuples=st.sampled_from([0, 1, 500, 100_000]),
    gestures=st.lists(st.lists(TOUCH, min_size=1, max_size=30), min_size=1, max_size=4),
)
def test_propose_batch_equals_observe_and_propose(history, num_tuples, gestures):
    sequential = GesturePrefetcher(history=history, max_prefetch=16)
    batched = GesturePrefetcher(history=history, max_prefetch=16)
    clock, rowid = 0.0, max(0, num_tuples // 2)
    for gesture in gestures:
        times, rowids, strides = [], [], []
        for step_t, step_r, stride in gesture:
            clock += step_t
            rowid = min(max(0, rowid + step_r), max(0, num_tuples - 1))
            times.append(clock)
            rowids.append(rowid)
            strides.append(stride)
        expected = []
        for touch, (t, r, s) in enumerate(zip(times, rowids, strides)):
            sequential.observe(t, r)
            expected += [(p, touch) for p in sequential.propose(num_tuples, stride=s)]
        rows, proposer = batched.propose_batch(
            np.array(times), np.array(rowids), np.array(strides), num_tuples
        )
        assert list(zip(rows.tolist(), proposer.tolist())) == expected
        assert batched.prefetches_issued == sequential.prefetches_issued
        assert batched.estimate() == sequential.estimate()
        assert batched.num_observations == sequential.num_observations
