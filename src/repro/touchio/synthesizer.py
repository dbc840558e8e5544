"""Gesture synthesizer: generates the touch streams a human finger would.

The paper's evaluation sweeps gesture *speed* and *object size* for a slide
gesture.  Since this reproduction has no physical touch screen, the
synthesizer stands in for the finger: given a device profile and a view,
it emits exactly the stream of touch events the digitizer would register —
sampled at the device's touch rate, bounded by the finger width, with
optional pauses, direction reversals and positional jitter.

Every gesture is built as whole arrays (:class:`TouchStream`'s timestamps,
phase codes and finger locations) with ``np.arange`` / ``np.repeat``,
never one event object per location.  Jitter takes all of a gesture's
draws from the synthesizer's ``Generator`` in one call, which yields the
same values, in the same order, as one scalar draw per location would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import GestureError
from repro.touchio.device import DeviceProfile, IPAD1
from repro.touchio.events import PHASES, TouchPhase, TouchStream
from repro.touchio.views import View

_BEGAN, _MOVED, _STATIONARY, _ENDED = (
    PHASES.index(phase)
    for phase in (TouchPhase.BEGAN, TouchPhase.MOVED, TouchPhase.STATIONARY, TouchPhase.ENDED)
)


def _linspace(start: float, stop: float, n: int) -> np.ndarray:
    """``np.linspace(start, stop, n)`` for ``n >= 2``, bit for bit: the same
    arithmetic, without the Python-level set-up that costs a slide more."""
    values = np.arange(n) * ((float(stop) - float(start)) / (n - 1)) + start
    values[-1] = stop
    return values


@dataclass(frozen=True)
class SlideSegment:
    """One leg of a (possibly multi-leg) slide gesture.

    Attributes
    ----------
    start_fraction / end_fraction:
        Start and end positions along the slide axis, as fractions of the
        view's extent (0.0 = top/left edge, 1.0 = bottom/right edge).
    duration:
        Wall-clock seconds the finger takes to cover this leg.
    pause_after:
        Seconds the finger rests (stationary) after finishing the leg.
    """

    start_fraction: float
    end_fraction: float
    duration: float
    pause_after: float = 0.0

    def __post_init__(self) -> None:
        for frac in (self.start_fraction, self.end_fraction):
            if not 0.0 <= frac <= 1.0:
                raise GestureError(f"slide fractions must be within [0, 1], got {frac}")
        if self.duration <= 0:
            raise GestureError("slide segment duration must be positive")
        if self.pause_after < 0:
            raise GestureError("pause_after must be non-negative")


class GestureSynthesizer:
    """Generate synthetic touch streams for a given device profile."""

    def __init__(
        self, profile: DeviceProfile = IPAD1, jitter_cm: float = 0.0, seed: int = 11
    ) -> None:
        if jitter_cm < 0:
            raise GestureError("jitter must be non-negative")
        self.profile = profile
        self.jitter_cm = jitter_cm
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _axis_extent(self, view: View, axis: str) -> float:
        if axis == "vertical":
            return view.height
        if axis == "horizontal":
            return view.width
        raise GestureError(f"unknown slide axis {axis!r}")

    def _on_axis(
        self, view: View, axis: str, fractions, cross_fraction: float, repeats=1
    ) -> tuple[np.ndarray, np.ndarray]:
        """The locations at ``fractions`` along ``axis``, each repeated
        ``repeats`` times and clipped to the view: one jitter draw per
        fraction, in order, from one call."""
        vertical = axis == "vertical"
        extent = view.height if vertical else view.width
        fractions = np.asarray(fractions, dtype=np.float64)
        jitter = self._rng.normal(0.0, self.jitter_cm, fractions.size) if self.jitter_cm else 0.0
        along = np.repeat(fractions * extent + jitter, repeats)
        np.minimum(np.maximum(along, 0.0, out=along), extent, out=along)
        across = np.full(along.size, cross_fraction * (view.width if vertical else view.height))
        return (across, along) if vertical else (along, across)

    def _lifted(self, view: View, times: np.ndarray, xs: np.ndarray, ys: np.ndarray):
        """The stream of a finger (or two) down at ``times`` and lifted one
        sampling interval after the last, where it last was."""
        phases = np.full(times.size + 1, _MOVED)
        phases[0], phases[-1] = _BEGAN, _ENDED
        times = np.append(times, float(times[-1]) + 1.0 / self.profile.sampling_rate_hz)
        xs, ys = (np.concatenate([a, a[-1:]]) for a in (xs, ys))
        return TouchStream(view.name, times, phases, xs, ys)

    # ------------------------------------------------------------------ #
    # tap
    # ------------------------------------------------------------------ #
    def tap(
        self,
        view: View,
        fraction: float = 0.5,
        cross_fraction: float = 0.5,
        axis: str = "vertical",
        start_time: float = 0.0,
    ) -> TouchStream:
        """Synthesize a single tap at the given fractional position."""
        xs, ys = self._on_axis(view, axis, [fraction], cross_fraction, 2)
        return TouchStream(view.name, [start_time, start_time + 0.05], [_BEGAN, _ENDED], xs, ys)

    # ------------------------------------------------------------------ #
    # slide
    # ------------------------------------------------------------------ #
    def slide(
        self,
        view: View,
        duration: float,
        start_fraction: float = 0.0,
        end_fraction: float = 1.0,
        axis: str = "vertical",
        cross_fraction: float = 0.5,
        start_time: float = 0.0,
    ) -> TouchStream:
        """Synthesize a single-leg slide over ``view``.

        ``duration`` controls the gesture speed: a 10 cm object swept in
        1 second moves the finger at 10 cm/s, and at a 60 Hz digitizer
        registers ~60 touch locations.  A slower sweep (larger duration)
        registers proportionally more locations, which is exactly the
        effect Figure 4(a) measures.
        """
        segment = SlideSegment(start_fraction, end_fraction, duration)
        return self.slide_path(
            view, [segment], axis=axis, cross_fraction=cross_fraction, start_time=start_time
        )

    def slide_path(
        self,
        view: View,
        segments: Sequence[SlideSegment],
        axis: str = "vertical",
        cross_fraction: float = 0.5,
        start_time: float = 0.0,
    ) -> TouchStream:
        """Synthesize a multi-leg slide (speed changes, reversals, pauses).

        Each leg's samples, each pause's resting location and the lifting
        location are drawn in that order (one jitter draw each); a pause
        repeats its location once per stationary event.
        """
        if not segments:
            raise GestureError("a slide needs at least one segment")
        extent = self._axis_extent(view, axis)
        if extent <= 0:
            raise GestureError("cannot slide over a view with no extent")
        interval = 1.0 / self.profile.sampling_rate_hz
        # per drawn location its fraction and how many events it makes; per
        # event its time and phase code
        fractions, repeats, times, phases = [], [], [], []
        time = start_time
        for segment in segments:
            n = max(2, self.profile.max_touches_for_duration(segment.duration))
            fractions.append(_linspace(segment.start_fraction, segment.end_fraction, n))
            repeats.append(np.ones(n, dtype=np.int64))
            times.append(_linspace(time, time + segment.duration, n))
            phases.append(np.full(n, _MOVED))
            time = float(times[-1][-1])
            if segment.pause_after > 0:
                # a paused finger produces stationary events at the sampling rate
                n = self.profile.max_touches_for_duration(segment.pause_after)
                fractions.append([segment.end_fraction])
                repeats.append([n])
                times.append(time + np.arange(1, n + 1) * interval)
                phases.append(np.full(n, _STATIONARY))
                time += segment.pause_after
        fractions.append([segments[-1].end_fraction])
        repeats.append([1])
        times.append([time + interval])
        phases.append([_ENDED])
        phases = np.concatenate(phases)
        phases[0] = _BEGAN
        xs, ys = self._on_axis(
            view, axis, np.concatenate(fractions), cross_fraction, np.concatenate(repeats)
        )
        return TouchStream(view.name, np.concatenate(times), phases, xs, ys)

    # ------------------------------------------------------------------ #
    # zoom (two-finger pinch)
    # ------------------------------------------------------------------ #
    def zoom(
        self,
        view: View,
        zoom_in: bool = True,
        duration: float = 0.4,
        start_time: float = 0.0,
    ) -> TouchStream:
        """Synthesize a two-finger pinch gesture over the view's center.

        A zoom-in spreads the fingers apart (growing spread); a zoom-out
        pinches them together (shrinking spread).  The pinch spans a factor
        of at least 4, so the 0.5 cm side a zoom-out leaves can be zoomed
        back in.
        """
        if duration <= 0:
            raise GestureError("zoom duration must be positive")
        cx, cy = view.width / 2.0, view.height / 2.0
        max_half = max(0.2, min(view.width, view.height) / 2.5)
        min_half = min(0.2, max_half / 4.0)
        n_samples = max(3, self.profile.max_touches_for_duration(duration))
        spreads = (
            np.linspace(min_half, max_half, n_samples)
            if zoom_in
            else np.linspace(max_half, min_half, n_samples)
        )
        times = np.linspace(start_time, start_time + duration, n_samples)
        ys = np.column_stack([np.maximum(0.0, cy - spreads), np.minimum(view.height, cy + spreads)])
        return self._lifted(view, times, np.full((n_samples, 2), cx), ys)

    # ------------------------------------------------------------------ #
    # rotate (two-finger twist)
    # ------------------------------------------------------------------ #
    def rotate(self, view: View, duration: float = 0.5, start_time: float = 0.0) -> TouchStream:
        """Synthesize a two-finger 90-degree rotation gesture."""
        if duration <= 0:
            raise GestureError("rotation duration must be positive")
        cx, cy = view.width / 2.0, view.height / 2.0
        radius = max(0.2, min(view.width, view.height) / 3.0)
        n_samples = max(3, self.profile.max_touches_for_duration(duration))
        angles = np.linspace(0.0, np.pi / 2.0, n_samples)
        times = np.linspace(start_time, start_time + duration, n_samples)
        dx, dy = radius * np.cos(angles), radius * np.sin(angles)
        xs = np.column_stack([cx + dx, cx - dx])
        ys = np.column_stack([cy + dy, cy - dy])
        return self._lifted(view, times, xs, ys)

    # ------------------------------------------------------------------ #
    # pan (drag an object around the screen)
    # ------------------------------------------------------------------ #
    def pan(
        self,
        view: View,
        dx_cm: float,
        dy_cm: float,
        duration: float = 0.5,
        start_time: float = 0.0,
    ) -> TouchStream:
        """Synthesize a single-finger pan (drag) by ``(dx_cm, dy_cm)``."""
        if duration <= 0:
            raise GestureError("pan duration must be positive")
        n_samples = max(3, self.profile.max_touches_for_duration(duration))
        cx, cy = view.width / 2.0, view.height / 2.0
        xs = np.linspace(cx, cx + dx_cm, n_samples)
        ys = np.linspace(cy, cy + dy_cm, n_samples)
        times = np.linspace(start_time, start_time + duration, n_samples)
        return self._lifted(view, times, xs, ys)
