"""OS-level gesture recognition: raw touch streams → gesture descriptions.

In the dbTouch stack (Figure 3 of the paper) the operating system first
recognizes touches and gestures; only then does dbTouch map them to data
and execute operators.  This module plays the operating-system role: it
segments a :class:`~repro.touchio.events.TouchStream` into recognized
gestures (tap, slide, zoom-in, zoom-out, rotate, pan) described in purely
geometric terms.  The database-side interpretation of those gestures lives
in :mod:`repro.core`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from repro.errors import GestureError
from repro.touchio.events import TouchEvent, TouchStream


class GestureType(Enum):
    """The gesture vocabulary the dbTouch front-end understands."""

    TAP = "tap"
    SLIDE = "slide"
    ZOOM_IN = "zoom-in"
    ZOOM_OUT = "zoom-out"
    ROTATE = "rotate"
    PAN = "pan"


@dataclass(frozen=True)
class RecognizedGesture:
    """A recognized gesture plus the geometric facts dbTouch needs.

    Attributes
    ----------
    gesture_type:
        Which gesture was recognized.
    view_name:
        The view the gesture was applied to.
    events:
        The single-finger touch events that make up the gesture, in order.
        For slides this is the full sequence of registered locations, which
        downstream becomes one operator invocation per event.
    duration:
        Wall-clock length of the gesture in seconds.
    scale:
        For zoom gestures, the ratio of final to initial finger spread.
    angle:
        For rotate gestures, the total rotation in radians.
    translation:
        For pan gestures, the (dx, dy) displacement in centimeters.
    """

    gesture_type: GestureType
    view_name: str
    events: tuple[TouchEvent, ...]
    duration: float
    scale: float = 1.0
    angle: float = 0.0
    translation: tuple[float, float] = (0.0, 0.0)


#: Maximum movement (cm) and duration (s) for a touch sequence to count as a tap.
TAP_MAX_MOVEMENT_CM = 0.3
TAP_MAX_DURATION_S = 0.35
#: Minimum spread ratio change to classify a two-finger gesture as a zoom.
ZOOM_MIN_SCALE_CHANGE = 0.15
#: Minimum rotation (radians) to classify a two-finger gesture as a rotate.
ROTATE_MIN_ANGLE = math.pi / 6


class GestureRecognizer:
    """Classify touch streams into recognized gestures."""

    def recognize(self, stream: TouchStream) -> RecognizedGesture:
        """Recognize the single gesture contained in ``stream``.

        Raises
        ------
        GestureError
            If the stream is empty or its shape matches no known gesture.
        """
        if stream.is_empty:
            raise GestureError("cannot recognize a gesture from an empty touch stream")
        max_fingers = max(event.num_fingers for event in stream)
        if max_fingers >= 2:
            return self._recognize_two_finger(stream)
        return self._recognize_single_finger(stream)

    # ------------------------------------------------------------------ #
    # single finger: tap, slide or pan
    # ------------------------------------------------------------------ #
    def _recognize_single_finger(self, stream: TouchStream) -> RecognizedGesture:
        events = tuple(stream)
        first, last = events[0], events[-1]
        dx = last.primary.x - first.primary.x
        dy = last.primary.y - first.primary.y
        path_length = self._path_length(events)
        duration = stream.duration
        if path_length <= TAP_MAX_MOVEMENT_CM and duration <= TAP_MAX_DURATION_S:
            return RecognizedGesture(
                gesture_type=GestureType.TAP,
                view_name=stream.view_name,
                events=events,
                duration=duration,
            )
        # single-finger movement over a data object is a slide; the distinction
        # from a pan (moving the object itself) is made by the front-end based
        # on the active mode, so the recognizer reports a slide by default and
        # exposes the translation for pan interpretation.
        return RecognizedGesture(
            gesture_type=GestureType.SLIDE,
            view_name=stream.view_name,
            events=events,
            duration=duration,
            translation=(dx, dy),
        )

    @staticmethod
    def _path_length(events: tuple[TouchEvent, ...]) -> float:
        total = 0.0
        for prev, cur in zip(events, events[1:]):
            total += math.dist(
                (prev.primary.x, prev.primary.y), (cur.primary.x, cur.primary.y)
            )
        return total

    # ------------------------------------------------------------------ #
    # two fingers: zoom or rotate
    # ------------------------------------------------------------------ #
    def _recognize_two_finger(self, stream: TouchStream) -> RecognizedGesture:
        two_finger_events = [e for e in stream if e.num_fingers >= 2]
        if len(two_finger_events) < 2:
            raise GestureError("two-finger gesture needs at least two multi-touch events")
        first, last = two_finger_events[0], two_finger_events[-1]
        initial_spread = max(first.spread, 1e-6)
        final_spread = max(last.spread, 1e-6)
        scale = final_spread / initial_spread
        angle = self._rotation_angle(first, last)
        duration = stream.duration
        events = tuple(stream)
        if abs(angle) >= ROTATE_MIN_ANGLE and abs(scale - 1.0) < ZOOM_MIN_SCALE_CHANGE:
            return RecognizedGesture(
                gesture_type=GestureType.ROTATE,
                view_name=stream.view_name,
                events=events,
                duration=duration,
                angle=angle,
            )
        if scale >= 1.0 + ZOOM_MIN_SCALE_CHANGE:
            gesture_type = GestureType.ZOOM_IN
        elif scale <= 1.0 - ZOOM_MIN_SCALE_CHANGE:
            gesture_type = GestureType.ZOOM_OUT
        elif abs(angle) >= ROTATE_MIN_ANGLE:
            return RecognizedGesture(
                gesture_type=GestureType.ROTATE,
                view_name=stream.view_name,
                events=events,
                duration=duration,
                angle=angle,
            )
        else:
            raise GestureError(
                "two-finger gesture is neither a zoom nor a rotation "
                f"(scale={scale:.3f}, angle={angle:.3f})"
            )
        return RecognizedGesture(
            gesture_type=gesture_type,
            view_name=stream.view_name,
            events=events,
            duration=duration,
            scale=scale,
            angle=angle,
        )

    @staticmethod
    def _rotation_angle(first: TouchEvent, last: TouchEvent) -> float:
        """Angle between the finger-pair axis at the start and at the end."""

        def axis_angle(event: TouchEvent) -> float:
            a, b = event.points[0], event.points[1]
            return math.atan2(b.y - a.y, b.x - a.x)

        delta = axis_angle(last) - axis_angle(first)
        # normalize to (-pi, pi]
        while delta <= -math.pi:
            delta += 2 * math.pi
        while delta > math.pi:
            delta -= 2 * math.pi
        return delta
