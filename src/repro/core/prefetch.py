"""Prefetching via gesture extrapolation.

When a slide pauses or slows down, dbTouch can extrapolate the gesture's
progression — its rowid velocity and direction — and fetch the entries the
gesture is expected to touch next, so they are ready if and when the
gesture resumes or speeds up.  The prefetcher below maintains a small
history of (timestamp, rowid) observations, fits a constant-velocity model
and produces the list of rowids to warm in the cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import OptimizationError


@dataclass(frozen=True)
class GestureEstimate:
    """The prefetcher's current belief about the gesture's progression.

    Attributes
    ----------
    velocity_rows_per_s:
        Signed rowid velocity (positive = moving towards higher rowids).
    direction:
        +1, -1 or 0 when the gesture is effectively paused.
    last_rowid / last_timestamp:
        The most recent observation.
    confident:
        Whether enough observations exist for the estimate to be usable.
    """

    velocity_rows_per_s: float
    direction: int
    last_rowid: int
    last_timestamp: float
    confident: bool


#: ``propose_batch``'s answer when nothing is proposed (read-only, shared)
_NO_PROPOSALS = (np.empty(0, dtype=np.int64),) * 2
_NO_PROPOSALS[0].flags.writeable = False


class GesturePrefetcher:
    """Extrapolate a gesture and decide which rowids to prefetch.

    Parameters
    ----------
    history:
        Number of recent observations used for the velocity fit.
    horizon_seconds:
        How far ahead (in time) to extrapolate when proposing prefetches.
    max_prefetch:
        Upper bound on rowids proposed per call, keeping the per-touch work
        bounded.
    """

    def __init__(
        self,
        history: int = 8,
        horizon_seconds: float = 0.25,
        max_prefetch: int = 64,
    ) -> None:
        if history < 2:
            raise OptimizationError("prefetcher needs a history of at least 2 observations")
        if horizon_seconds <= 0:
            raise OptimizationError("prefetch horizon must be positive")
        if max_prefetch < 1:
            raise OptimizationError("max_prefetch must be at least 1")
        self.history = history
        self.horizon_seconds = horizon_seconds
        self.max_prefetch = max_prefetch
        # the observation window, oldest first, padded in front: the slots
        # before the oldest of the ``_count`` observations repeat it, so the
        # fit's first observation is always slot 0 and a gesture's window
        # starts are one slice of the window followed by its touches
        self._times = np.zeros(history, dtype=np.float64)
        self._rowids = np.zeros(history, dtype=np.int64)
        self._count = 0
        self.prefetches_issued = 0

    # ------------------------------------------------------------------ #
    # observation and estimation
    # ------------------------------------------------------------------ #
    def observe(self, timestamp: float, rowid: int) -> None:
        """Record that the gesture touched ``rowid`` at ``timestamp``."""
        if self._count and timestamp < self._times[-1]:
            raise OptimizationError("gesture observations must have non-decreasing timestamps")
        if self._count:
            self._times[:-1] = self._times[1:]
            self._rowids[:-1] = self._rowids[1:]
            self._times[-1] = timestamp
            self._rowids[-1] = rowid
        else:
            self._times.fill(timestamp)
            self._rowids.fill(rowid)
        self._count = min(self.history, self._count + 1)

    def estimate(self) -> GestureEstimate:
        """Fit a constant-velocity model to the recent observations."""
        last_t = float(self._times[-1]) if self._count else 0.0
        last_r = int(self._rowids[-1]) if self._count else 0
        if self._count < 2:
            return GestureEstimate(0.0, 0, last_r, last_t, confident=False)
        dt = last_t - float(self._times[0])
        if dt <= 1e-9:
            return GestureEstimate(0.0, 0, last_r, last_t, confident=False)
        velocity = (last_r - int(self._rowids[0])) / dt
        direction = 0
        if velocity > 1e-9:
            direction = 1
        elif velocity < -1e-9:
            direction = -1
        return GestureEstimate(velocity, direction, last_r, last_t, confident=True)

    # ------------------------------------------------------------------ #
    # prefetch proposals
    # ------------------------------------------------------------------ #
    def propose(self, num_tuples: int, stride: int = 1) -> list[int]:
        """Return the rowids to prefetch given the current estimate.

        ``num_tuples`` bounds the valid rowid range and ``stride`` is the
        spacing between consecutive touches at the gesture's current
        granularity, so prefetched rowids line up with what the resuming
        gesture will actually request.
        """
        if num_tuples <= 0:
            return []
        est = self.estimate()
        if not est.confident or est.direction == 0:
            return []
        stride = max(1, int(stride))
        lookahead_rows = abs(est.velocity_rows_per_s) * self.horizon_seconds
        count = min(self.max_prefetch, max(1, int(lookahead_rows / stride)))
        proposals = []
        rowid = est.last_rowid
        for _ in range(count):
            rowid += est.direction * stride
            if not 0 <= rowid < num_tuples:
                break
            proposals.append(rowid)
        self.prefetches_issued += len(proposals)
        return proposals

    def propose_batch(
        self,
        timestamps: np.ndarray,
        rowids: np.ndarray,
        strides: np.ndarray,
        num_tuples: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized replay of per-touch ``observe()`` + ``propose()``.

        Given the (timestamp, rowid, stride) sequence of one gesture's
        processed touches, this produces every rowid the sequential loop
        would have proposed, flattened as two parallel arrays:

        ``proposal_rowids``
            the proposed rowids, each touch's nearest first;
        ``proposer_index``
            index (into the input arrays) of the touch that proposed each.

        The observation window and ``prefetches_issued`` are updated as if
        the touches had been observed one at a time.  The cost is a fixed
        number of array operations, whatever the touch count: the window
        is padded (see ``__init__``), so touch ``j``'s fit starts at slot
        ``j + 1`` of the window followed by the touches — one slice, no
        gather — and direction, count and room are fused passes.
        """
        t = np.asarray(timestamps, dtype=np.float64)
        r = np.asarray(rowids, dtype=np.int64)
        n = r.size
        if n == 0:
            return _NO_PROPOSALS
        if (self._count and t[0] < self._times[-1]) or (t[1:] < t[:-1]).any():
            raise OptimizationError("gesture observations must have non-decreasing timestamps")
        if not self._count:
            self._times.fill(t[0])
            self._rowids.fill(r[0])
        window_t = np.concatenate((self._times, t))
        window_r = np.concatenate((self._rowids, r))
        self._times, self._rowids = window_t[-self.history :], window_r[-self.history :]
        self._count = min(self.history, self._count + n)
        if num_tuples <= 0:
            return _NO_PROPOSALS

        s = np.maximum(strides, 1, dtype=np.int64)
        dt = t - window_t[1 : n + 1]
        velocity = np.divide(r - window_r[1 : n + 1], dt, out=np.zeros(n), where=dt > 1e-9)
        direction = np.subtract(velocity > 1e-9, velocity < -1e-9, dtype=np.int64)
        # count = min(max_prefetch, max(1, floor(|v| * horizon / stride))) for
        # a touch with a direction, 0 without, cut at the first rowid out of
        # range; clipping at max_prefetch before the cast keeps a huge
        # velocity from overflowing int64
        ahead = velocity * direction  # |v|, or 0 without a direction
        ahead *= self.horizon_seconds
        ahead /= s
        np.minimum(ahead, self.max_prefetch, out=ahead)
        counts = ahead.astype(np.int64)
        np.maximum(counts, direction != 0, out=counts)
        np.minimum(counts, np.where(direction > 0, num_tuples - 1 - r, r) // s, out=counts)
        np.maximum(counts, 0, out=counts)

        total = int(counts.sum())
        self.prefetches_issued += total
        if total == 0:
            return _NO_PROPOSALS
        # a touch's proposals step from its rowid: one running sum of the
        # signed strides, restarted at each touch by subtracting the sums
        # of the touches before it
        step = direction * s
        run = counts * step
        base = r - (run.cumsum() - run)
        proposal_rowids = step.repeat(counts).cumsum() + base.repeat(counts)
        return proposal_rowids, np.arange(n).repeat(counts)

    def reset(self) -> None:
        """Forget the gesture history (a new gesture starts)."""
        self._count = 0

    @property
    def num_observations(self) -> int:
        """Number of observations currently in the history window."""
        return self._count
