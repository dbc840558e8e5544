"""Touch events: the raw input stream delivered by the simulated touch OS.

A touch event is what iOS would deliver to a view: one or more finger
contact points, each with a location (in the view's coordinate system, in
centimeters), a phase (began / moved / ended) and a timestamp.  The dbTouch
kernel consumes nothing but this stream.

A :class:`TouchStream` holds numpy arrays (timestamps, phase codes, each
finger's x and y) that the synthesizer, the recognizer and the batch mapper
build and read whole, so a slide or a tap makes no :class:`TouchEvent` or
:class:`TouchPoint`; the per-touch reference loop and two-finger
recognition walk event objects built from the arrays on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.errors import TouchError


class TouchPhase(Enum):
    """Lifecycle phase of one touch point, mirroring the iOS touch phases."""

    BEGAN = "began"
    MOVED = "moved"
    STATIONARY = "stationary"
    ENDED = "ended"
    CANCELLED = "cancelled"


#: A stream's ``phases`` hold each event's position in ``PHASES``; ENDED and
#: CANCELLED come last, so a code below ``ENDED_CODE`` is an active touch.
PHASES = tuple(TouchPhase)
ENDED_CODE = PHASES.index(TouchPhase.ENDED)


@dataclass(frozen=True)
class TouchPoint:
    """A single finger contact at a single instant.

    Coordinates are expressed in centimeters within the target view, with
    the origin at the view's top-left corner, ``x`` growing rightwards and
    ``y`` growing downwards (so a top-to-bottom slide has increasing ``y``).
    """

    x: float
    y: float
    finger: int = 0

    def __post_init__(self) -> None:
        if self.finger < 0:
            raise TouchError("finger index must be non-negative")


@dataclass(frozen=True)
class TouchEvent:
    """One touch-OS event: a timestamp, a phase and the active touch points."""

    timestamp: float
    phase: TouchPhase
    points: tuple[TouchPoint, ...]
    view_name: str = ""

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise TouchError("timestamps must be non-negative")
        if not self.points:
            raise TouchError("a touch event needs at least one touch point")

    @property
    def num_fingers(self) -> int:
        """Number of simultaneous finger contacts in this event."""
        return len(self.points)

    @property
    def primary(self) -> TouchPoint:
        """The first (primary) touch point."""
        return self.points[0]

    @property
    def spread(self) -> float:
        """Largest pairwise distance between touch points (pinch distance)."""
        if len(self.points) < 2:
            return 0.0
        best = 0.0
        for i, a in enumerate(self.points):
            for b in self.points[i + 1 :]:
                dist = ((a.x - b.x) ** 2 + (a.y - b.y) ** 2) ** 0.5
                best = max(best, dist)
        return best


class TouchStream:
    """An ordered sequence of touch events destined for one view, as arrays.

    Event ``i`` is ``timestamps[i]``, phase ``PHASES[phases[i]]`` and finger
    ``j`` at ``(xs[i, j], ys[i, j])`` — NaN where the event has fewer
    fingers than the stream's widest.  :attr:`events` is the same stream
    as :class:`TouchEvent` objects, built on first use and cached.
    Timestamps must be non-negative and non-decreasing, which the gesture
    recognizer relies on when estimating gesture velocity.
    """

    def __init__(self, view_name: str = "", timestamps=(), phases=(), xs=(), ys=()) -> None:
        self.view_name = view_name
        self.timestamps = t = np.asarray(timestamps, dtype=np.float64)
        if t.size and t[0] < 0:
            raise TouchError("timestamps must be non-negative")
        if t.size > 1 and (t[1:] < t[:-1]).any():
            i = int(np.argmax(t[1:] < t[:-1]))
            raise TouchError(
                f"touch events must have non-decreasing timestamps ({t[i + 1]} after {t[i]})"
            )
        self.phases = np.asarray(phases, dtype=np.int8)
        self.xs = np.asarray(xs, dtype=np.float64).reshape(t.size, -1 if t.size else 1)
        self.ys = np.asarray(ys, dtype=np.float64).reshape(t.size, -1 if t.size else 1)
        self._events: tuple[TouchEvent, ...] | None = None

    def append(self, event: TouchEvent) -> None:
        """Append an event, validating timestamp monotonicity."""
        events = self.events + (event,)
        xys = np.full((2, len(events), max(e.num_fingers for e in events)), np.nan)
        for i, each in enumerate(events):
            xys[:, i, : each.num_fingers] = np.transpose([(p.x, p.y) for p in each.points])
        codes = [PHASES.index(e.phase) for e in events]
        self.__init__(self.view_name, [e.timestamp for e in events], codes, *xys)
        self._events = events

    @property
    def events(self) -> tuple[TouchEvent, ...]:
        """The stream as :class:`TouchEvent` objects; a derived point's
        ``finger`` is its column."""
        if self._events is None:
            rows = zip(*(a.tolist() for a in (self.timestamps, self.phases, self.xs, self.ys)))
            self._events = tuple(
                TouchEvent(
                    t,
                    PHASES[code],
                    tuple(TouchPoint(x, y, j) for j, (x, y) in enumerate(zip(xs, ys)) if x == x),
                    self.view_name,
                )
                for t, code, xs, ys in rows
            )
        return self._events

    def __len__(self) -> int:
        return self.timestamps.size

    def __iter__(self):
        return iter(self.events)

    def __getitem__(self, item):
        return self.events[item]

    @property
    def duration(self) -> float:
        """Elapsed time between the first and last event, in seconds."""
        if len(self) < 2:
            return 0.0
        return float(self.timestamps[-1] - self.timestamps[0])

    @property
    def is_empty(self) -> bool:
        """Whether the stream holds no events."""
        return not len(self)
