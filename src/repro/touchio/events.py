"""Touch events: the raw input stream delivered by the simulated touch OS.

A touch event is what iOS would deliver to a view: one or more finger
contact points, each with a location (in the view's coordinate system, in
centimeters), a phase (began / moved / ended) and a timestamp.  The dbTouch
kernel consumes nothing but this stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import TouchError


class TouchPhase(Enum):
    """Lifecycle phase of one touch point, mirroring the iOS touch phases."""

    BEGAN = "began"
    MOVED = "moved"
    STATIONARY = "stationary"
    ENDED = "ended"
    CANCELLED = "cancelled"


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


@dataclass
class TouchStream:
    """An ordered sequence of touch events destined for one view.

    The stream enforces monotonically non-decreasing timestamps, which the
    gesture recognizer and the prefetcher rely on when estimating gesture
    velocity.
    """

    view_name: str = ""
    events: list[TouchEvent] = field(default_factory=list)

    def append(self, event: TouchEvent) -> None:
        """Append an event, validating timestamp monotonicity."""
        if self.events and event.timestamp < self.events[-1].timestamp:
            raise TouchError(
                "touch events must have non-decreasing timestamps "
                f"({event.timestamp} after {self.events[-1].timestamp})"
            )
        self.events.append(event)

    def extend(self, events: list[TouchEvent]) -> None:
        """Append several events in order."""
        for event in events:
            self.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __getitem__(self, item):
        return self.events[item]

    @property
    def duration(self) -> float:
        """Elapsed time between the first and last event, in seconds."""
        if len(self.events) < 2:
            return 0.0
        return self.events[-1].timestamp - self.events[0].timestamp

    @property
    def is_empty(self) -> bool:
        """Whether the stream holds no events."""
        return not self.events
