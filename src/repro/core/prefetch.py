"""Prefetching via gesture extrapolation.

When a slide pauses or slows down, dbTouch can extrapolate the gesture's
progression — its rowid velocity and direction — and fetch the entries the
gesture is expected to touch next, so they are ready if and when the
gesture resumes or speeds up.  The prefetcher below maintains a small
history of (timestamp, rowid) observations, fits a constant-velocity model
and produces the list of rowids to warm in the cache.
"""

from __future__ import annotations

from collections import deque
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
        self._observations: deque[tuple[float, int]] = deque(maxlen=history)
        self.prefetches_issued = 0

    # ------------------------------------------------------------------ #
    # observation and estimation
    # ------------------------------------------------------------------ #
    def observe(self, timestamp: float, rowid: int) -> None:
        """Record that the gesture touched ``rowid`` at ``timestamp``."""
        if self._observations and timestamp < self._observations[-1][0]:
            raise OptimizationError("gesture observations must have non-decreasing timestamps")
        self._observations.append((timestamp, rowid))

    def estimate(self) -> GestureEstimate:
        """Fit a constant-velocity model to the recent observations."""
        if len(self._observations) < 2:
            last_t, last_r = self._observations[-1] if self._observations else (0.0, 0)
            return GestureEstimate(0.0, 0, last_r, last_t, confident=False)
        (t0, r0), (t1, r1) = self._observations[0], self._observations[-1]
        dt = t1 - t0
        if dt <= 1e-9:
            return GestureEstimate(0.0, 0, r1, t1, confident=False)
        velocity = (r1 - r0) / dt
        direction = 0
        if velocity > 1e-9:
            direction = 1
        elif velocity < -1e-9:
            direction = -1
        return GestureEstimate(velocity, direction, r1, t1, confident=True)

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
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized replay of per-touch ``observe()`` + ``propose()``.

        Given the (timestamp, rowid, stride) sequence of one gesture's
        processed touches, this produces every rowid the sequential loop
        would have proposed, flattened as three parallel arrays:

        ``proposal_rowids``
            the proposed rowids;
        ``proposer_index``
            index (into the input arrays) of the touch that proposed each;
        ``proposal_rank``
            1-based position of the proposal within its touch's proposal
            list (sequential proposals are emitted nearest-first).

        The observation history and ``prefetches_issued`` are updated as
        if the touches had been observed one at a time.
        """
        t = np.asarray(timestamps, dtype=np.float64)
        r = np.asarray(rowids, dtype=np.int64)
        s = np.maximum(1, np.asarray(strides, dtype=np.int64))
        n = r.size
        empty = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        if n == 0:
            return empty
        if self._observations and t[0] < self._observations[-1][0]:
            raise OptimizationError("gesture observations must have non-decreasing timestamps")
        if n > 1 and np.any(np.diff(t) < 0):
            raise OptimizationError("gesture observations must have non-decreasing timestamps")

        prior_t = np.asarray([obs[0] for obs in self._observations], dtype=np.float64)
        prior_r = np.asarray([obs[1] for obs in self._observations], dtype=np.int64)
        all_t = np.concatenate([prior_t, t])
        all_r = np.concatenate([prior_r, r])
        # after observing touch j the history window is the deque's contents:
        # the last `history` observations ending at global index g
        g = prior_t.size + np.arange(n)
        w = np.maximum(0, g - (self.history - 1))
        dt = all_t[g] - all_t[w]
        velocity = np.zeros(n, dtype=np.float64)
        confident = (g >= 1) & (dt > 1e-9)
        np.divide(
            (all_r[g] - all_r[w]).astype(np.float64), dt, out=velocity, where=confident
        )
        direction = np.zeros(n, dtype=np.int64)
        direction[velocity > 1e-9] = 1
        direction[velocity < -1e-9] = -1
        active = confident & (direction != 0) & (num_tuples > 0)

        lookahead = np.abs(velocity) * self.horizon_seconds
        counts = np.minimum(
            self.max_prefetch,
            np.maximum(1, np.floor(lookahead / s).astype(np.int64)),
        )
        # the sequential loop stops at the first out-of-range rowid
        room = np.where(direction > 0, (num_tuples - 1 - r) // s, r // s)
        counts = np.where(active, np.minimum(counts, np.maximum(0, room)), 0)

        total = int(counts.sum())
        # the deque ends up exactly as a sequential loop would leave it
        tail = min(self.history, n)
        self._observations.extend(zip(t[-tail:].tolist(), r[-tail:].tolist()))
        self.prefetches_issued += total
        if total == 0:
            return empty
        proposer = np.repeat(np.arange(n), counts)
        offsets = np.cumsum(counts) - counts
        rank = np.arange(total) - np.repeat(offsets, counts) + 1
        proposal_rowids = r[proposer] + direction[proposer] * s[proposer] * rank
        return proposal_rowids, proposer, rank

    def reset(self) -> None:
        """Forget the gesture history (a new gesture starts)."""
        self._observations.clear()

    @property
    def num_observations(self) -> int:
        """Number of observations currently in the history window."""
        return len(self._observations)
