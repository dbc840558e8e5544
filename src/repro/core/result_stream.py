"""Result presentation: values that pop up in place and fade away.

In the prototype, each result value appears next to the touch position that
produced it, stays bold for a moment and then fades out to make room for
newer results.  The result stream models that behaviour with simulated
timestamps so the front-end (and the tests) can ask "what is visible right
now, and how faded is it?".

The screen shows at most ``max_visible`` results, so that is all the
stream keeps: a fixed ring of ``max_visible`` slots held as four arrays —
values (``object``), rowids (``int64``), position fractions and timestamps
(``float64``) — and a write count.  A single emission (a tap, the
per-touch loop) writes one slot; a batch emission (one slide's results)
writes its newest ``max_visible`` results with a fixed number of numpy
steps, whatever the result count, so a session's streams hold the same
bytes after ten thousand slides as after ten.  A slide's whole result set
is the gesture's own: the batch arrives as one :class:`ResultColumns`
chunk, which the stream returns and
:class:`~repro.core.kernel.GestureOutcome` keeps as ``result_columns``;
its :class:`ResultValue` objects are views, built when the chunk is first
read as a sequence (``outcome.results``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import VisualizationError


@dataclass(frozen=True)
class ResultValue:
    """One displayed result value.

    Attributes
    ----------
    value:
        The value (raw scan value, running aggregate, summary...).
    rowid:
        The tuple the value was read from: the touched row, or the sample
        row that served a coarse touch (a summary names the touched row,
        the centre of its window).
    position_fraction:
        Where along the data object the value appeared (0 = top, 1 = bottom).
    timestamp:
        Simulated time at which the value appeared.
    """

    value: Any
    rowid: int
    position_fraction: float
    timestamp: float


@dataclass(frozen=True)
class VisibleResult:
    """A result value together with its current opacity."""

    result: ResultValue
    opacity: float


class ResultColumns:
    """One batch emission's results as four parallel columns.

    ``values`` is an array or a list (select-where rows are dicts);
    ``rowids`` is ``int64``, ``fractions`` and ``timestamps`` ``float64``.
    As a sequence it yields :class:`ResultValue` views, built on first read
    and kept.
    """

    __slots__ = ("values", "rowids", "fractions", "timestamps", "_views")

    def __init__(self, values, rowids, fractions, timestamps) -> None:
        self.values = values
        self.rowids = rowids
        self.fractions = fractions
        self.timestamps = timestamps
        self._views: list[ResultValue] | None = None

    def __len__(self) -> int:
        return len(self.timestamps)

    def __iter__(self):
        if self._views is None:
            values = self.values
            if isinstance(values, np.ndarray):
                values = values.tolist()
            # __new__ + a direct __dict__ fill skips the frozen dataclass
            # __init__ (four object.__setattr__ calls per result)
            new = ResultValue.__new__
            views = []
            for value, rowid, fraction, timestamp in zip(
                values, self.rowids.tolist(), self.fractions.tolist(), self.timestamps.tolist()
            ):
                result = new(ResultValue)
                result.__dict__.update(
                    value=value, rowid=rowid, position_fraction=fraction, timestamp=timestamp
                )
                views.append(result)
            self._views = views
        return iter(self._views)


class ResultStream:
    """The results on screen, newest last, with a fade-out model.

    Parameters
    ----------
    fade_seconds:
        How long a value remains visible after it appears; opacity decays
        linearly from 1 to 0 over this interval.
    max_visible:
        Upper bound on simultaneously visible values, and the size of the
        ring: the stream keeps the newest ``max_visible`` results only.

    Iterating the stream (and ``len``) covers those results, oldest
    first, as :class:`ResultValue` views; ``total_emitted`` counts every
    result ever emitted and doubles as the ring's write position.

    Threading: a stream is single-writer by contract.  Under the
    concurrent serving engine the :class:`repro.core.scheduler.GestureScheduler`
    guarantees session affinity (at most one worker inside a session at a
    time), so emission and inspection never race.
    """

    def __init__(self, fade_seconds: float = 1.5, max_visible: int = 50):
        if fade_seconds <= 0:
            raise VisualizationError("fade_seconds must be positive")
        if max_visible < 1:
            raise VisualizationError("max_visible must be at least 1")
        self.fade_seconds = fade_seconds
        self.max_visible = max_visible
        self.clear()

    # ------------------------------------------------------------------ #
    # emission
    # ------------------------------------------------------------------ #
    def emit(
        self, value: Any, rowid: int, position_fraction: float, timestamp: float
    ) -> ResultValue:
        """Record a new result value appearing on screen."""
        if not 0.0 <= position_fraction <= 1.0:
            raise VisualizationError("position_fraction must be within [0, 1]")
        if timestamp < self._last_timestamp():
            raise VisualizationError("result timestamps must be non-decreasing")
        slot = self.total_emitted % self.max_visible
        self._values[slot] = value
        self._rowids[slot] = rowid
        self._fractions[slot] = position_fraction
        self._timestamps[slot] = timestamp
        self.total_emitted += 1
        return ResultValue(
            value=value,
            rowid=rowid,
            position_fraction=position_fraction,
            timestamp=timestamp,
        )

    def emit_batch(self, values, rowids, position_fractions, timestamps) -> ResultColumns:
        """Record a whole gesture's result values in one call.

        Semantically a loop of :meth:`emit` calls: the same validation is
        applied (fractions within [0, 1], non-decreasing timestamps,
        including against the last already-recorded result), vectorized
        and before anything is stored, so a batch either lands completely
        or not at all.  Accepts numpy arrays or plain sequences for every
        argument, and returns them as one :class:`ResultColumns` chunk.
        Only the batch's newest ``max_visible`` results reach the ring.
        """
        fraction_arr = np.asarray(position_fractions, dtype=np.float64)
        time_arr = np.asarray(timestamps, dtype=np.float64)
        chunk = ResultColumns(values, np.asarray(rowids, dtype=np.int64), fraction_arr, time_arr)
        n = len(chunk)
        if not n:
            return chunk
        if fraction_arr.min() < 0.0 or fraction_arr.max() > 1.0:
            raise VisualizationError("position_fraction must be within [0, 1]")
        if time_arr[0] < self._last_timestamp() or (time_arr[1:] < time_arr[:-1]).any():
            raise VisualizationError("result timestamps must be non-decreasing")
        first = n - min(n, self.max_visible)
        slots = np.arange(self.total_emitted + first, self.total_emitted + n) % self.max_visible
        shown = values[first:]
        if not isinstance(shown, np.ndarray):
            # fromiter keeps each value one object, whatever its shape (a
            # dict, a tuple), where assigning a list would let numpy
            # broadcast it; an array's values land as Python scalars
            shown = np.fromiter(shown, dtype=object, count=n - first)
        self._values[slots] = shown
        self._rowids[slots] = chunk.rowids[first:]
        self._fractions[slots] = fraction_arr[first:]
        self._timestamps[slots] = time_arr[first:]
        self.total_emitted += n
        return chunk

    def _last_timestamp(self) -> float:
        if not self.total_emitted:
            return -math.inf
        return self._timestamps[(self.total_emitted - 1) % self.max_visible]

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def _ring_order(self) -> np.ndarray:
        """The slots of the results kept, oldest first."""
        return np.arange(self.total_emitted - len(self), self.total_emitted) % self.max_visible

    def _columns(self, slots: np.ndarray) -> ResultColumns:
        return ResultColumns(
            self._values[slots],
            self._rowids[slots],
            self._fractions[slots],
            self._timestamps[slots],
        )

    def __len__(self) -> int:
        return min(self.total_emitted, self.max_visible)

    def __iter__(self):
        return iter(self._columns(self._ring_order()))

    @property
    def values(self) -> list[Any]:
        """Just the kept values, oldest first."""
        return self._values[self._ring_order()].tolist()

    def opacity_at(self, result: ResultValue, now: float) -> float:
        """Opacity of ``result`` at simulated time ``now`` (1 = fresh, 0 = gone)."""
        age = now - result.timestamp
        if age < 0:
            return 1.0
        if age >= self.fade_seconds:
            return 0.0
        return 1.0 - age / self.fade_seconds

    def visible_at(self, now: float) -> list[VisibleResult]:
        """Results still visible at ``now``, newest last, with opacities.

        Timestamps never decrease along the ring, so ages never increase
        and the visible results are a suffix of it.  Their ages come from
        the timestamp column (``now - timestamp``, the subtraction
        :meth:`opacity_at` makes), and one ``searchsorted`` finds the first
        younger than ``fade_seconds``; only the results shown get an
        opacity.  Results stamped after ``now`` show at opacity 1.0.
        """
        slots = self._ring_order()
        ages = now - self._timestamps[slots]
        first = int(np.searchsorted(-ages, -self.fade_seconds, side="right"))
        return [
            VisibleResult(result=r, opacity=self.opacity_at(r, now))
            for r in self._columns(slots[first:])
        ]

    def clear(self) -> None:
        """Forget everything (a new exploration starts)."""
        size = self.max_visible
        self._values = np.empty(size, dtype=object)
        self._rowids = np.zeros(size, dtype=np.int64)
        self._fractions = np.zeros(size, dtype=np.float64)
        self._timestamps = np.zeros(size, dtype=np.float64)
        self.total_emitted = 0
