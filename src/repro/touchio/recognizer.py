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

import numpy as np

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
    stream:
        The touch stream that makes up the gesture.  For slides this is the
        full sequence of registered locations, which downstream becomes one
        operator invocation per event.
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
    stream: TouchStream
    duration: float
    scale: float = 1.0
    angle: float = 0.0
    translation: tuple[float, float] = (0.0, 0.0)

    @property
    def events(self) -> tuple[TouchEvent, ...]:
        """The gesture's events as objects, derived from :attr:`stream`."""
        return self.stream.events


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
        if stream.xs.shape[1] >= 2:
            return self._recognize_two_finger(stream)
        return self._recognize_single_finger(stream)

    # ------------------------------------------------------------------ #
    # single finger: tap, slide or pan
    # ------------------------------------------------------------------ #
    def _recognize_single_finger(self, stream: TouchStream) -> RecognizedGesture:
        xs, ys = stream.xs[:, 0], stream.ys[:, 0]
        duration = stream.duration
        # the path length only decides when the duration admits a tap
        if duration <= TAP_MAX_DURATION_S and self._path_length(xs, ys) <= TAP_MAX_MOVEMENT_CM:
            return RecognizedGesture(
                gesture_type=GestureType.TAP,
                view_name=stream.view_name,
                stream=stream,
                duration=duration,
            )
        # single-finger movement over a data object is a slide; the distinction
        # from a pan (moving the object itself) is made by the front-end based
        # on the active mode, so the recognizer reports a slide by default and
        # exposes the translation for pan interpretation.
        return RecognizedGesture(
            gesture_type=GestureType.SLIDE,
            view_name=stream.view_name,
            stream=stream,
            duration=duration,
            translation=(float(xs[-1] - xs[0]), float(ys[-1] - ys[0])),
        )

    @staticmethod
    def _path_length(xs: np.ndarray, ys: np.ndarray) -> float:
        """The finger's path: each step's ``math.dist``, added in order —
        ``np.hypot`` can differ from it in the last bit on a diagonal step,
        and ``sum`` compensates its additions on Python 3.12+."""
        points = list(zip(xs.tolist(), ys.tolist()))
        total = 0.0
        for step in map(math.dist, points, points[1:]):
            total += step
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
        rotates = abs(angle) >= ROTATE_MIN_ANGLE
        if rotates and abs(scale - 1.0) < ZOOM_MIN_SCALE_CHANGE:
            gesture_type = GestureType.ROTATE
        elif scale >= 1.0 + ZOOM_MIN_SCALE_CHANGE:
            gesture_type = GestureType.ZOOM_IN
        elif scale <= 1.0 - ZOOM_MIN_SCALE_CHANGE:
            gesture_type = GestureType.ZOOM_OUT
        elif rotates:
            gesture_type = GestureType.ROTATE
        else:
            raise GestureError(
                "two-finger gesture is neither a zoom nor a rotation "
                f"(scale={scale:.3f}, angle={angle:.3f})"
            )
        return RecognizedGesture(
            gesture_type=gesture_type,
            view_name=stream.view_name,
            stream=stream,
            duration=stream.duration,
            scale=1.0 if gesture_type is GestureType.ROTATE else scale,
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
