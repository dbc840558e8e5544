"""Result presentation: values that pop up in place and fade away.

In the prototype, each result value appears next to the touch position that
produced it, stays bold for a moment and then fades out to make room for
newer results.  The result stream models that behaviour with simulated
timestamps so the front-end (and the tests) can ask "what is visible right
now, and how faded is it?".

The stream stores results as columns, not objects: each batch emission
(one slide's results) is one :class:`ResultColumns` chunk of four arrays —
value, rowid, position fraction, timestamp — kept as the kernel handed
them over.  Single emissions (taps, the per-touch loop) build their
:class:`ResultValue` for the caller anyway, so they append it to one open
list chunk: no array grows per emission.  A batch chunk's
:class:`ResultValue` objects are views, built when the chunk is first read
as a sequence: iterating the stream, its ``values``, or a
:class:`~repro.core.kernel.GestureOutcome`'s ``results``.  Emitting a
slide's results therefore costs a few vectorized checks, whatever the
result count, and :meth:`ResultStream.visible_at` reads the timestamp
column of the newest ``max_visible`` results only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
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
        The tuple identifier that produced it.
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
    and kept.  A chunk is never modified once emitted — the stream and a
    gesture outcome share it — so the stream drops its oldest results by
    an offset into it.
    """

    __slots__ = ("values", "rowids", "fractions", "timestamps", "_views")

    def __init__(self, values, rowids, fractions, timestamps, views=None) -> None:
        self.values = values
        self.rowids = rowids
        self.fractions = fractions
        self.timestamps = timestamps
        self._views: list[ResultValue] | None = views

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

    def __getitem__(self, index: slice) -> "ResultColumns":
        views = None if self._views is None else self._views[index]
        return ResultColumns(
            self.values[index],
            self.rowids[index],
            self.fractions[index],
            self.timestamps[index],
            views,
        )


class ResultStream:
    """Time-ordered stream of result values with a fade-out model.

    Parameters
    ----------
    fade_seconds:
        How long a value remains visible after it appears; opacity decays
        linearly from 1 to 0 over this interval.
    max_visible:
        Upper bound on simultaneously visible values (older values are
        considered fully faded once the bound is exceeded).
    max_retained:
        Optional retention bound on the stored history: once exceeded, the
        oldest (long-faded) values are dropped and counted in
        :attr:`total_dropped`.  This is the per-session backpressure knob
        the concurrent serving engine uses — a session whose display is
        never serviced cannot grow its stream without bound.  ``None``
        (the default) retains everything, preserving the single-user
        behaviour.

    Iterating the stream yields its retained history, oldest first, as
    :class:`ResultValue` views.

    Threading: a stream is single-writer by contract.  Under the
    concurrent serving engine the :class:`repro.core.scheduler.GestureScheduler`
    guarantees session affinity (at most one worker inside a session at a
    time), so emission, trimming and inspection never race.
    """

    def __init__(
        self,
        fade_seconds: float = 1.5,
        max_visible: int = 50,
        max_retained: int | None = None,
    ):
        if fade_seconds <= 0:
            raise VisualizationError("fade_seconds must be positive")
        if max_visible < 1:
            raise VisualizationError("max_visible must be at least 1")
        if max_retained is not None and max_retained < 1:
            raise VisualizationError("max_retained must be at least 1 (or None)")
        self.fade_seconds = fade_seconds
        self.max_visible = max_visible
        self.max_retained = max_retained
        self.total_emitted = 0
        self.total_dropped = 0
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
        if timestamp < self._last_timestamp:
            raise VisualizationError("result timestamps must be non-decreasing")
        result = ResultValue(
            value=value,
            rowid=rowid,
            position_fraction=position_fraction,
            timestamp=timestamp,
        )
        if self._open is None:
            self._open = []
            self._chunks.append(self._open)
        self._open.append(result)
        self._size += 1
        self._last_timestamp = timestamp
        self.total_emitted += 1
        self._enforce_retention()
        return result

    def emit_batch(self, values, rowids, position_fractions, timestamps) -> ResultColumns:
        """Record a whole gesture's result values in one call.

        Semantically a loop of :meth:`emit` calls: the same validation is
        applied (fractions within [0, 1], non-decreasing timestamps,
        including against the last already-recorded result), vectorized
        and before anything is stored, so a batch either lands completely
        or not at all.  Accepts numpy arrays or plain sequences for every
        argument; the stream keeps the arrays it is given as one
        :class:`ResultColumns` chunk, which it also returns.  No
        :class:`ResultValue` is built until the chunk is read.
        """
        fraction_arr = np.asarray(position_fractions, dtype=np.float64)
        time_arr = np.asarray(timestamps, dtype=np.float64)
        chunk = ResultColumns(values, np.asarray(rowids, dtype=np.int64), fraction_arr, time_arr)
        if not len(chunk):
            return chunk
        if fraction_arr.min() < 0.0 or fraction_arr.max() > 1.0:
            raise VisualizationError("position_fraction must be within [0, 1]")
        if time_arr[0] < self._last_timestamp or (time_arr[1:] < time_arr[:-1]).any():
            raise VisualizationError("result timestamps must be non-decreasing")
        self._chunks.append(chunk)
        self._open = None
        self._size += len(chunk)
        self._last_timestamp = float(time_arr[-1])
        self.total_emitted += len(chunk)
        self._enforce_retention()
        return chunk

    def _enforce_retention(self) -> int:
        """Drop the oldest values beyond ``max_retained``; returns the count."""
        if self.max_retained is None:
            return 0
        overflow = self._size - self.max_retained
        return self._drop_oldest(overflow) if overflow > 0 else 0

    def _drop_oldest(self, count: int) -> int:
        """Drop the ``count`` (> 0) oldest results."""
        self._size -= count
        self.total_dropped += count
        chunks = self._chunks
        left = self._head + count
        while left >= len(chunks[0]):
            left -= len(chunks[0])
            if chunks.pop(0) is self._open:
                self._open = None
        if left and isinstance(chunks[0], list):  # single emits: the stream's own list
            del chunks[0][:left]
            left = 0
        self._head = left
        return count

    def trim(self, max_retained: int | None = None) -> int:
        """Trim the retained history to ``max_retained`` values (or the
        stream's own bound when omitted); returns how many were dropped.

        The serving engine calls this after every executed command for
        sessions configured with result backpressure.
        """
        if max_retained is None:
            return self._enforce_retention()
        if max_retained < 1:
            raise VisualizationError("max_retained must be at least 1")
        overflow = self._size - max_retained
        return self._drop_oldest(overflow) if overflow > 0 else 0

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        for index, chunk in enumerate(self._chunks):
            yield from islice(chunk, self._head, None) if index == 0 else chunk

    @property
    def values(self) -> list[Any]:
        """Just the emitted values, oldest first."""
        return [r.value for r in self]

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

        Timestamps never decrease along the history, so ages never
        increase and the visible results are a suffix of it: only the
        newest ``max_visible`` can show.  Their ages come from the
        timestamp column (``now - timestamp``, the subtraction
        :meth:`opacity_at` makes), and one ``searchsorted`` finds the first
        younger than ``fade_seconds``; only the results shown get an
        opacity.  Results stamped after ``now`` show at opacity 1.0.
        """
        pieces = []
        need = self.max_visible
        chunks = self._chunks
        for index in range(len(chunks) - 1, -1, -1):
            chunk = chunks[index]
            start = max(self._head if index == 0 else 0, len(chunk) - need)
            piece = chunk[start:] if start else chunk
            pieces.append(piece)
            need -= len(piece)
            if need <= 0:
                break
        if not pieces:
            return []
        pieces.reverse()
        ages = now - np.concatenate(
            [
                piece.timestamps
                if isinstance(piece, ResultColumns)
                else np.array([r.timestamp for r in piece], dtype=np.float64)
                for piece in pieces
            ]
        )
        first = int(np.searchsorted(-ages, -self.fade_seconds, side="right"))
        tail = [result for piece in pieces for result in piece][first:]
        return [VisibleResult(result=r, opacity=self.opacity_at(r, now)) for r in tail]

    def clear(self) -> None:
        """Forget everything (a new exploration starts)."""
        # batch chunks, and lists of single emits' results, oldest first
        self._chunks: list[ResultColumns | list[ResultValue]] = []
        self._open: list[ResultValue] | None = None  # the list single emits append to
        self._head = 0  # results of a first batch chunk already dropped
        self._size = 0
        self._last_timestamp = -math.inf
        self.total_emitted = 0
        self.total_dropped = 0
