"""Unit tests for touch events and touch streams."""

import pytest

from repro.errors import TouchError
from repro.touchio.events import TouchEvent, TouchPhase, TouchPoint, TouchStream


class TestTouchPoint:
    def test_coordinates(self):
        p = TouchPoint(1.5, 2.5)
        assert p.x == 1.5 and p.y == 2.5 and p.finger == 0

    def test_negative_finger_rejected(self):
        with pytest.raises(TouchError):
            TouchPoint(0.0, 0.0, finger=-1)


class TestTouchEvent:
    def test_requires_points(self):
        with pytest.raises(TouchError):
            TouchEvent(0.0, TouchPhase.BEGAN, ())

    def test_negative_timestamp_rejected(self):
        with pytest.raises(TouchError):
            TouchEvent(-1.0, TouchPhase.BEGAN, (TouchPoint(0, 0),))

    def test_primary_point(self):
        event = TouchEvent(0.0, TouchPhase.BEGAN, (TouchPoint(1, 2), TouchPoint(3, 4)))
        assert event.primary.x == 1
        assert event.num_fingers == 2

    def test_spread_single_finger_is_zero(self):
        event = TouchEvent(0.0, TouchPhase.MOVED, (TouchPoint(1, 1),))
        assert event.spread == 0.0

    def test_spread_two_fingers(self):
        event = TouchEvent(0.0, TouchPhase.MOVED, (TouchPoint(0, 0), TouchPoint(3, 4)))
        assert event.spread == pytest.approx(5.0)


class TestTouchStream:
    def _event(self, t, x=0.0, y=0.0, phase=TouchPhase.MOVED):
        return TouchEvent(t, phase, (TouchPoint(x, y),), "v")

    def test_append_preserves_order(self):
        stream = TouchStream("v")
        stream.append(self._event(0.0))
        stream.append(self._event(0.1))
        assert len(stream) == 2
        assert stream[0].timestamp == 0.0

    def test_rejects_time_travel(self):
        stream = TouchStream("v")
        stream.append(self._event(1.0))
        with pytest.raises(TouchError):
            stream.append(self._event(0.5))

    def test_equal_timestamps_allowed(self):
        stream = TouchStream("v")
        stream.append(self._event(1.0))
        stream.append(self._event(1.0))
        assert len(stream) == 2

    def test_duration(self):
        stream = TouchStream("v")
        for timestamp in (1.0, 3.5):
            stream.append(self._event(timestamp))
        assert stream.duration == pytest.approx(2.5)

    def test_duration_of_single_event_is_zero(self):
        stream = TouchStream("v")
        stream.append(self._event(1.0))
        assert stream.duration == 0.0

    def test_is_empty(self):
        assert TouchStream("v").is_empty
        stream = TouchStream("v")
        stream.append(self._event(0.0))
        assert not stream.is_empty

    def test_iteration(self):
        stream = TouchStream("v")
        for timestamp in (0.0, 0.1):
            stream.append(self._event(timestamp))
        assert [e.timestamp for e in stream] == [0.0, 0.1]
