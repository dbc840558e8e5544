"""Simulated touch OS layer: events, views, devices, synthesis, recognition.

The paper's prototype runs on iOS; this subpackage is the substitution —
a deterministic simulation of the touch operating system that delivers the
same information an iOS view hierarchy would: touch locations inside views
of known physical size, sampled at the digitizer rate, segmented into
recognized gestures.
"""

from repro.touchio.device import IPAD1, IPAD1_PROTOTYPE, DeviceProfile, TouchDevice
from repro.touchio.events import TouchEvent, TouchPhase, TouchStream
from repro.touchio.recognizer import (
    GestureRecognizer,
    GestureType,
    RecognizedGesture,
)
from repro.touchio.synthesizer import GestureSynthesizer, SlideSegment
from repro.touchio.views import Rect, View, make_column_view, make_table_view

__all__ = [
    "IPAD1",
    "IPAD1_PROTOTYPE",
    "DeviceProfile",
    "GestureRecognizer",
    "GestureSynthesizer",
    "GestureType",
    "RecognizedGesture",
    "Rect",
    "SlideSegment",
    "TouchDevice",
    "TouchEvent",
    "TouchPhase",
    "TouchStream",
    "View",
    "make_column_view",
    "make_table_view",
]
