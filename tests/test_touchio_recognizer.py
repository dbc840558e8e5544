"""Unit tests for OS-level gesture recognition."""

import pytest

from repro.errors import GestureError
from repro.touchio.device import IPAD1
from repro.touchio.events import TouchEvent, TouchPhase, TouchPoint, TouchStream
from repro.touchio.recognizer import GestureRecognizer, GestureType
from repro.touchio.synthesizer import GestureSynthesizer
from repro.touchio.views import make_column_view


@pytest.fixture
def view():
    return make_column_view("col", "obj", num_tuples=1000, height_cm=10.0, width_cm=2.0)


@pytest.fixture
def synth():
    return GestureSynthesizer(IPAD1)


@pytest.fixture
def recognizer():
    return GestureRecognizer()


class TestSingleFinger:
    def test_tap_recognized(self, recognizer, synth, view):
        gesture = recognizer.recognize(synth.tap(view))
        assert gesture.gesture_type is GestureType.TAP

    def test_slide_recognized(self, recognizer, synth, view):
        gesture = recognizer.recognize(synth.slide(view, duration=1.0))
        assert gesture.gesture_type is GestureType.SLIDE
        assert len(gesture.events) > 10
        assert gesture.duration == pytest.approx(1.0, rel=0.1)

    def test_slide_translation_sign(self, recognizer, synth, view):
        down = recognizer.recognize(synth.slide(view, duration=0.5))
        up = recognizer.recognize(
            synth.slide(view, duration=0.5, start_fraction=1.0, end_fraction=0.0)
        )
        assert down.translation[1] > 0
        assert up.translation[1] < 0

    def test_long_stationary_touch_is_slide_not_tap(self, recognizer, view):
        stream = TouchStream("col")
        point = TouchPoint(1.0, 5.0)
        stream.append(TouchEvent(0.0, TouchPhase.BEGAN, (point,), "col"))
        stream.append(TouchEvent(1.0, TouchPhase.ENDED, (point,), "col"))
        gesture = recognizer.recognize(stream)
        assert gesture.gesture_type is GestureType.SLIDE


class TestTwoFinger:
    def test_zoom_in(self, recognizer, synth, view):
        gesture = recognizer.recognize(synth.zoom(view, zoom_in=True))
        assert gesture.gesture_type is GestureType.ZOOM_IN
        assert gesture.scale > 1.0

    def test_zoom_out(self, recognizer, synth, view):
        gesture = recognizer.recognize(synth.zoom(view, zoom_in=False))
        assert gesture.gesture_type is GestureType.ZOOM_OUT
        assert gesture.scale < 1.0

    def test_rotate(self, recognizer, synth, view):
        gesture = recognizer.recognize(synth.rotate(view))
        assert gesture.gesture_type is GestureType.ROTATE
        assert abs(gesture.angle) == pytest.approx(3.14159 / 2, rel=0.1)

    def test_static_two_finger_touch_rejected(self, recognizer):
        stream = TouchStream("v")
        points = (TouchPoint(1, 1), TouchPoint(2, 2))
        stream.append(TouchEvent(0.0, TouchPhase.BEGAN, points, "v"))
        stream.append(TouchEvent(0.2, TouchPhase.ENDED, points, "v"))
        with pytest.raises(GestureError):
            recognizer.recognize(stream)

    def test_single_multitouch_event_rejected(self, recognizer):
        stream = TouchStream("v")
        stream.append(
            TouchEvent(0.0, TouchPhase.BEGAN, (TouchPoint(1, 1), TouchPoint(2, 2)), "v")
        )
        stream.append(TouchEvent(0.1, TouchPhase.ENDED, (TouchPoint(1, 1),), "v"))
        with pytest.raises(GestureError):
            recognizer.recognize(stream)


class TestStreamHandling:
    def test_empty_stream_rejected(self, recognizer):
        with pytest.raises(GestureError):
            recognizer.recognize(TouchStream("v"))

    def test_view_name_propagated(self, recognizer, synth, view):
        gesture = recognizer.recognize(synth.tap(view))
        assert gesture.view_name == "col"
