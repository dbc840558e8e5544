"""Result presentation: values that pop up in place and fade away.

In the prototype, each result value appears next to the touch position that
produced it, stays bold for a moment and then fades out to make room for
newer results.  The result stream models that behaviour with simulated
timestamps so the front-end (and the tests) can ask "what is visible right
now, and how faded is it?".
"""

from __future__ import annotations

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
        self._results: list[ResultValue] = []

    # ------------------------------------------------------------------ #
    # emission
    # ------------------------------------------------------------------ #
    def emit(
        self, value: Any, rowid: int, position_fraction: float, timestamp: float
    ) -> ResultValue:
        """Record a new result value appearing on screen."""
        if not 0.0 <= position_fraction <= 1.0:
            raise VisualizationError("position_fraction must be within [0, 1]")
        if self._results and timestamp < self._results[-1].timestamp:
            raise VisualizationError("result timestamps must be non-decreasing")
        result = ResultValue(
            value=value,
            rowid=rowid,
            position_fraction=position_fraction,
            timestamp=timestamp,
        )
        self._results.append(result)
        self.total_emitted += 1
        self._enforce_retention()
        return result

    def emit_batch(self, values, rowids, position_fractions, timestamps) -> list[ResultValue]:
        """Record a whole gesture's result values in one call.

        Semantically a loop of :meth:`emit` calls: the same validation is
        applied (fractions within [0, 1], non-decreasing timestamps,
        including against the last already-recorded result), but the checks
        run vectorized before any object is created, so a batch either
        lands completely or not at all.  Accepts numpy arrays or plain
        sequences for every argument.
        """
        fraction_arr = np.asarray(position_fractions, dtype=np.float64)
        time_arr = np.asarray(timestamps, dtype=np.float64)
        if fraction_arr.size == 0:
            return []
        if fraction_arr.min() < 0.0 or fraction_arr.max() > 1.0:
            raise VisualizationError("position_fraction must be within [0, 1]")
        previous = self._results[-1].timestamp if self._results else None
        if (previous is not None and time_arr[0] < previous) or (
            time_arr.size > 1 and bool(np.any(np.diff(time_arr) < 0))
        ):
            raise VisualizationError("result timestamps must be non-decreasing")
        value_list = values.tolist() if isinstance(values, np.ndarray) else values
        rowid_list = (
            rowids.tolist() if isinstance(rowids, np.ndarray) else [int(r) for r in rowids]
        )
        # bulk construction: __new__ + direct __dict__ fill skips the frozen
        # dataclass __init__ (4 object.__setattr__ calls per result), which
        # dominates dense-gesture emission
        new = ResultValue.__new__
        emitted: list[ResultValue] = []
        append = emitted.append
        for value, rowid, fraction, timestamp in zip(
            value_list, rowid_list, fraction_arr.tolist(), time_arr.tolist()
        ):
            result = new(ResultValue)
            result.__dict__["value"] = value
            result.__dict__["rowid"] = rowid
            result.__dict__["position_fraction"] = fraction
            result.__dict__["timestamp"] = timestamp
            append(result)
        self._results.extend(emitted)
        self.total_emitted += len(emitted)
        self._enforce_retention()
        return emitted

    def _enforce_retention(self) -> int:
        """Drop the oldest values beyond ``max_retained``; returns the count."""
        if self.max_retained is None:
            return 0
        overflow = len(self._results) - self.max_retained
        if overflow <= 0:
            return 0
        del self._results[:overflow]
        self.total_dropped += overflow
        return overflow

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
        overflow = len(self._results) - max_retained
        if overflow <= 0:
            return 0
        del self._results[:overflow]
        self.total_dropped += overflow
        return overflow

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._results)

    @property
    def values(self) -> list[Any]:
        """Just the emitted values, oldest first."""
        return [r.value for r in self._results]

    def opacity_at(self, result: ResultValue, now: float) -> float:
        """Opacity of ``result`` at simulated time ``now`` (1 = fresh, 0 = gone)."""
        age = now - result.timestamp
        if age < 0:
            return 1.0
        if age >= self.fade_seconds:
            return 0.0
        return 1.0 - age / self.fade_seconds

    def visible_at(self, now: float) -> list[VisibleResult]:
        """Results still visible at ``now``, newest last, with opacities."""
        visible = [
            VisibleResult(result=r, opacity=self.opacity_at(r, now))
            for r in self._results
            if self.opacity_at(r, now) > 0.0
        ]
        return visible[-self.max_visible :]

    def clear(self) -> None:
        """Forget everything (a new exploration starts)."""
        self._results.clear()
        self.total_emitted = 0
        self.total_dropped = 0
