"""The touch stream is arrays from the synthesizer to the kernel.

Three guards:

* **Counted, no clock.**  ``TouchEvent.__post_init__`` and
  ``TouchPoint.__post_init__`` are wrapped to count constructions; a batch
  slide, a slide path and a tap through
  :meth:`LocalExplorationService.execute`, in memory and paged, construct
  none of either.  The per-touch oracle (``batch_execution=False``), which
  walks event objects, answers the same commands with the same counters.
* **Golden streams.**  A seeded matrix of synthesized streams (slides both
  ways, a slide path with pauses and a reversal, taps, zooms, a rotation
  and a pan; both axes; jitter off and on) is digested array by array —
  CRC-32 over the timestamps, the phase codes and the finger locations —
  and compared with digests taken from the event objects the synthesizer
  produced before it built arrays.  Jitter draws, clipping, timestamps and
  phases are therefore bit-identical to the event-by-event synthesis.
* **Mapping and recognition properties** (hypothesis).  On random
  single-finger streams, ``map_batch`` on the arrays equals ``map_touch``
  on each derived event, and ``recognize`` decides, times and translates
  exactly as an event-by-event reference does.
"""

from __future__ import annotations

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commands import ShowColumn, Slide, SlidePath, Tap
from repro.core.kernel import DETERMINISTIC_COUNTERS, KernelConfig
from repro.core.touch_mapping import TouchMapper
from repro.persist.diskstore import DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.service import LocalExplorationService
from repro.storage.column import Column
from repro.touchio.device import IPAD1, DeviceProfile
from repro.touchio.events import PHASES, TouchEvent, TouchPhase, TouchPoint, TouchStream
from repro.touchio.recognizer import (
    TAP_MAX_DURATION_S,
    TAP_MAX_MOVEMENT_CM,
    GestureRecognizer,
    GestureType,
)
from repro.touchio.synthesizer import GestureSynthesizer, SlideSegment, _linspace
from repro.touchio.views import make_column_view, make_table_view

# --------------------------------------------------------------------- #
# counted: a batch slide and a tap build no event object
# --------------------------------------------------------------------- #
PROFILE = DeviceProfile(
    name="touch-arrays",
    screen_width_cm=20.0,
    screen_height_cm=15.0,
    sampling_rate_hz=60.0,
    finger_width_cm=0.08,
)
ROWS = 50_000

COMMANDS = (
    Slide(view="c", duration=0.6, start_fraction=0.1, end_fraction=0.9),
    SlidePath(
        view="c",
        segments=(
            SlideSegment(0.2, 0.7, 0.4, pause_after=0.2),
            SlideSegment(0.7, 0.3, 0.3),
        ),
    ),
    Tap(view="c", fraction=0.35),
    Slide(view="c", duration=0.2, start_fraction=0.6, end_fraction=0.62),
    Tap(view="c", fraction=1.0),
)


def _service(paged: bool, batch: bool, root) -> LocalExplorationService:
    values = np.random.default_rng(5).integers(0, 1_000_000, ROWS, dtype=np.int64)
    service = LocalExplorationService(
        profile=PROFILE, config=KernelConfig(latency_budget_s=1e6, batch_execution=batch)
    )
    if paged:
        catalog = StoreCatalog(DiskColumnStore(root))
        catalog.persist_column(Column("col", values), chunk_rows=1024)
        StoreCatalog.open_read_only(root, cache_bytes=1 << 20).attach(service.catalog)
    else:
        service.load_column("col", values)
    service.execute(ShowColumn(object_name="col", view_name="c"))
    return service


def _answers(envelope) -> tuple:
    outcome = envelope.payload
    return (
        outcome.gesture_type,
        tuple(getattr(outcome, name) for name in DETERMINISTIC_COUNTERS),
        tuple(outcome.rowids_touched),
        dict(outcome.served_level_counts),
        outcome.duration_s,
        tuple((r.value, r.rowid, r.position_fraction, r.timestamp) for r in outcome.results),
    )


@pytest.mark.parametrize("paged", [False, True], ids=["in_memory", "paged"])
def test_batch_slides_and_taps_build_no_event_objects(paged, tmp_path, monkeypatch):
    built = {TouchEvent: 0, TouchPoint: 0}

    def counting(cls):
        original = cls.__post_init__

        def post_init(self):
            built[cls] += 1
            original(self)

        return post_init

    batch = _service(paged, True, tmp_path / "batch")
    oracle = _service(paged, False, tmp_path / "oracle")
    for cls in built:
        monkeypatch.setattr(cls, "__post_init__", counting(cls))
    answers = []
    for command in COMMANDS:
        answers.append(_answers(batch.execute(command)))
        assert built == {TouchEvent: 0, TouchPoint: 0}, command.kind
    assert answers[2][0] is GestureType.TAP and answers[0][0] is GestureType.SLIDE
    # the wrapper counts: the oracle walks event objects, one per location
    for command, answer in zip(COMMANDS, answers):
        assert _answers(oracle.execute(command)) == answer, command.kind
    assert built[TouchEvent] > 0 and built[TouchPoint] > 0


# --------------------------------------------------------------------- #
# golden streams
# --------------------------------------------------------------------- #
#: CRC-32 of (timestamps, phase codes, xs, ys) per stream of ``_matrix``,
#: taken from the event objects of the event-by-event synthesizer.
GOLDEN = {
    "vertical/0.0/slide": "dba5cb1a",
    "vertical/0.0/slide_back": "8835d9b3",
    "vertical/0.0/slide_path": "17a24f6a",
    "vertical/0.0/tap": "62562041",
    "vertical/0.0/tap_edge": "3f955a01",
    "vertical/0.0/zoom_in": "0aa41854",
    "vertical/0.0/zoom_out": "6f3aa47b",
    "vertical/0.0/rotate": "ba80cf45",
    "vertical/0.0/pan": "2df0acd1",
    "horizontal/0.0/slide": "e080a8d9",
    "horizontal/0.0/slide_back": "ece81f8c",
    "horizontal/0.0/slide_path": "3de6703b",
    "horizontal/0.0/tap": "46a9d8e6",
    "horizontal/0.0/tap_edge": "efadc3bc",
    "horizontal/0.0/zoom_in": "0aa41854",
    "horizontal/0.0/zoom_out": "6f3aa47b",
    "horizontal/0.0/rotate": "ba80cf45",
    "horizontal/0.0/pan": "2df0acd1",
    "vertical/0.05/slide": "d59b0f3a",
    "vertical/0.05/slide_back": "5d484c4f",
    "vertical/0.05/slide_path": "9749dc75",
    "vertical/0.05/tap": "54f25e69",
    "vertical/0.05/tap_edge": "78e28adc",
    "vertical/0.05/zoom_in": "0aa41854",
    "vertical/0.05/zoom_out": "6f3aa47b",
    "vertical/0.05/rotate": "ba80cf45",
    "vertical/0.05/pan": "2df0acd1",
    "horizontal/0.05/slide": "2e1cd7ae",
    "horizontal/0.05/slide_back": "b2b93b60",
    "horizontal/0.05/slide_path": "bcdaab5f",
    "horizontal/0.05/tap": "a07b1d3a",
    "horizontal/0.05/tap_edge": "caf439d0",
    "horizontal/0.05/zoom_in": "0aa41854",
    "horizontal/0.05/zoom_out": "6f3aa47b",
    "horizontal/0.05/rotate": "ba80cf45",
    "horizontal/0.05/pan": "2df0acd1",
}


def _matrix(synth: GestureSynthesizer, axis: str) -> dict[str, TouchStream]:
    """One synthesizer's streams, in order (jitter draws run across them)."""
    view = make_column_view("col", "obj", num_tuples=1000, height_cm=10.0, width_cm=6.0)
    path = [
        SlideSegment(0.1, 0.8, 0.5, pause_after=0.2),
        SlideSegment(0.8, 0.3, 0.4),
        SlideSegment(0.3, 1.0, 0.3, pause_after=0.1),
    ]
    return {
        "slide": synth.slide(view, 0.7, axis=axis),
        "slide_back": synth.slide(
            view, 0.45, 1.0, 0.0, axis=axis, cross_fraction=0.2, start_time=3.0
        ),
        "slide_path": synth.slide_path(view, path, axis=axis, cross_fraction=0.3, start_time=1.25),
        "tap": synth.tap(view, 0.4, axis=axis, start_time=2.0),
        "tap_edge": synth.tap(view, 1.0, cross_fraction=0.9, axis=axis),
        "zoom_in": synth.zoom(view, zoom_in=True, start_time=0.5),
        "zoom_out": synth.zoom(view, zoom_in=False, duration=0.3),
        "rotate": synth.rotate(view, start_time=4.0),
        "pan": synth.pan(view, 1.5, -2.0, duration=0.35),
    }


def _digest(*arrays: np.ndarray) -> str:
    crc = 0
    for array in arrays:
        crc = zlib.crc32(np.ascontiguousarray(array).tobytes(), crc)
    return f"{crc:08x}"


def _event_arrays(events) -> tuple[np.ndarray, ...]:
    """The arrays of a stream rebuilt from its event objects."""
    width = max(event.num_fingers for event in events)
    xs = np.full((len(events), width), np.nan)
    ys = np.full((len(events), width), np.nan)
    for i, event in enumerate(events):
        for j, point in enumerate(event.points):
            xs[i, j], ys[i, j] = point.x, point.y
    timestamps = np.array([event.timestamp for event in events], dtype=np.float64)
    phases = np.array([PHASES.index(event.phase) for event in events], dtype=np.int8)
    return timestamps, phases, xs, ys


@pytest.mark.parametrize("jitter", [0.0, 0.05])
@pytest.mark.parametrize("axis", ["vertical", "horizontal"])
def test_synthesized_streams_are_golden(axis, jitter):
    streams = _matrix(GestureSynthesizer(IPAD1, jitter_cm=jitter, seed=11), axis)
    for name, stream in streams.items():
        key = f"{axis}/{jitter}/{name}"
        arrays = (stream.timestamps, stream.phases, stream.xs, stream.ys)
        assert _digest(*arrays) == GOLDEN[key], key
        # the derived events are the same stream
        assert _digest(*_event_arrays(stream.events)) == GOLDEN[key], key
        assert len(stream) == len(stream.events)
        assert stream.duration == stream.events[-1].timestamp - stream.events[0].timestamp


def test_the_slide_ramp_is_linspace_bit_for_bit():
    rng = np.random.default_rng(42)
    starts = rng.uniform(-2.0, 2.0, 20_000)
    stops = np.where(rng.random(20_000) < 0.1, starts, rng.uniform(-2.0, 2.0, 20_000))
    counts = rng.integers(2, 400, 20_000)
    cases = list(zip(starts.tolist(), stops.tolist(), counts.tolist()))
    cases += [(0.3, 0.3, 50), (0.25, 0.75, 2), (0.0, 1.0, 2), (1.5, 1.5, 2), (0, 1, 7)]
    for start, stop, n in cases:
        expected = np.linspace(start, stop, n)
        got = _linspace(start, stop, n)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), (start, stop, n)


def test_one_jitter_call_equals_scalar_draws():
    """The synthesizer's single ``normal(0, s, n)`` call per gesture draws
    what ``n`` scalar calls would, and leaves the generator where they do."""
    batched, scalar = np.random.default_rng(11), np.random.default_rng(11)
    drawn = batched.normal(0.0, 0.05, 41)
    assert drawn.tolist() == [float(scalar.normal(0.0, 0.05)) for _ in range(41)]
    assert batched.normal() == scalar.normal()


# --------------------------------------------------------------------- #
# properties: arrays against derived events
# --------------------------------------------------------------------- #
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def single_finger_streams(draw) -> TouchStream:
    """Non-decreasing timestamps, any phases, locations on a 10 x 8 cm
    view — some wandering, some within a few millimetres (tap-sized)."""
    n = draw(st.integers(1, 30))
    steps = draw(st.lists(st.floats(0.0, 0.05), min_size=n, max_size=n))
    start = draw(st.floats(0.0, 100.0))
    phases = draw(st.lists(st.integers(0, len(PHASES) - 1), min_size=n, max_size=n))
    reach = draw(st.sampled_from([0.01, 0.1, 0.3, 8.0]))
    x0, y0 = draw(st.floats(0.0, 8.0)), draw(st.floats(0.0, 10.0))
    offsets = st.lists(st.floats(-reach, reach), min_size=n, max_size=n)
    xs = np.clip(x0 + np.array(draw(offsets)), 0.0, 8.0)
    ys = np.clip(y0 + np.array(draw(offsets)), 0.0, 10.0)
    return TouchStream("v", start + np.cumsum(steps), phases, xs, ys)


def _reference(stream: TouchStream) -> tuple:
    """Today's decision, walked event by event over the derived events."""
    events = stream.events
    path = 0.0
    for prev, cur in zip(events, events[1:]):
        path += math.dist((prev.primary.x, prev.primary.y), (cur.primary.x, cur.primary.y))
    duration = events[-1].timestamp - events[0].timestamp if len(events) > 1 else 0.0
    if path <= TAP_MAX_MOVEMENT_CM and duration <= TAP_MAX_DURATION_S:
        return GestureType.TAP, duration, (0.0, 0.0)
    dx = events[-1].primary.x - events[0].primary.x
    dy = events[-1].primary.y - events[0].primary.y
    return GestureType.SLIDE, duration, (dx, dy)


@PROPERTY
@given(stream=single_finger_streams(), granularity=st.sampled_from([1, 7]))
def test_map_batch_equals_map_touch_on_each_event(stream, granularity):
    mapper = TouchMapper(granularity=granularity)
    for view in (
        make_column_view("v", "c", num_tuples=123_457, height_cm=10.0, width_cm=8.0),
        make_table_view("v", "t", num_tuples=997, num_attributes=5, height_cm=10.0),
    ):
        for active_only in (False, True):
            batch = mapper.map_batch(view, stream, active_only=active_only)
            events = [
                event
                for event in stream.events
                if not active_only or event.phase not in (TouchPhase.ENDED, TouchPhase.CANCELLED)
            ]
            assert len(batch) == len(events)
            for i, event in enumerate(events):
                mapped = mapper.map_touch(view, event.primary.x, event.primary.y)
                assert batch.rowids[i] == mapped.rowid
                assert batch.fractions[i] == mapped.fraction
                assert batch.timestamps[i] == event.timestamp


@PROPERTY
@given(stream=single_finger_streams())
def test_recognize_agrees_with_the_event_walk(stream):
    gesture = GestureRecognizer().recognize(stream)
    kind, duration, translation = _reference(stream)
    assert gesture.gesture_type is kind
    assert gesture.duration == duration
    assert gesture.translation == translation
    assert gesture.events == stream.events


def test_a_path_one_ulp_past_the_tap_bound_is_a_slide():
    """Four diagonal steps whose ``math.dist`` lengths, added in order, come
    to 0.30000000000000004 — one ulp past the tap bound — while ``np.hypot``
    summed pairwise reads 0.3: the stream is a slide, as the event walk
    says, so the recognizer must keep the walk's sum."""
    xs = [1.0, 1.073545123722183, 1.1182073544544293, 1.1756141648629252, 1.2237908607453936]
    ys = [5.0, 5.064608543034491, 5.094816729396103, 5.122657995117628, 5.1919396353184215]
    stream = TouchStream("v", np.linspace(0.0, 0.2, 5), [0, 1, 1, 1, 3], xs, ys)
    assert float(np.hypot(np.diff(xs), np.diff(ys)).sum()) <= TAP_MAX_MOVEMENT_CM
    assert _reference(stream)[0] is GestureType.SLIDE
    assert GestureRecognizer().recognize(stream).gesture_type is GestureType.SLIDE
