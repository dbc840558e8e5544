"""The flight recorder: the last N completed gesture traces, always on.

Tracing answers "where did this gesture spend its time" only if the trace
is still around when someone asks.  The recorder keeps a bounded ring of
completed traces (oldest evicted silently — the point is a crash-dump-
style tail, not an archive) plus a separate **slow log**: traces whose
root span met the configured threshold, so the interesting outliers
survive longer than the general churn.

``drain()`` empties the ring and returns it — the fleet idiom: each
worker's recorder is drained over the ``telemetry`` verb, and the front
door stitches the partial traces back together by trace id
(:func:`repro.obs.trace.stitch_traces`).
"""

from __future__ import annotations

import threading
from collections import deque

from repro.obs.trace import Trace

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Bounded in-memory store of completed traces (thread-safe).

    Parameters
    ----------
    capacity:
        Ring size of the main buffer; the oldest trace is dropped (and
        counted) when a newer one arrives full.
    slow_threshold_s:
        Root-span duration at which a trace *also* lands in the slow log
        (``None`` disables the slow log entirely).
    slow_capacity:
        Ring size of the slow log.
    """

    def __init__(
        self,
        capacity: int = 64,
        slow_threshold_s: float | None = None,
        slow_capacity: int = 32,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.slow_threshold_s = slow_threshold_s
        self._lock = threading.Lock()
        self._traces: deque[Trace] = deque(maxlen=capacity)
        self._slow: deque[Trace] = deque(maxlen=max(1, slow_capacity))
        self._recorded = 0
        self._dropped = 0
        self._slow_recorded = 0

    def record(self, trace: Trace) -> None:
        """File one completed trace (called by the tracer on root finish)."""
        with self._lock:
            self._recorded += 1
            if len(self._traces) == self._traces.maxlen:
                self._dropped += 1
            self._traces.append(trace)
            threshold = self.slow_threshold_s
            if threshold is not None and trace.duration_s >= threshold:
                self._slow_recorded += 1
                self._slow.append(trace)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def drain(self) -> list[Trace]:
        """Empty the ring and return its traces, oldest first."""
        with self._lock:
            traces = list(self._traces)
            self._traces.clear()
            return traces

    def slow_traces(self) -> list[Trace]:
        """The slow log, oldest first, without consuming it."""
        with self._lock:
            return list(self._slow)

    def drain_slow(self) -> list[Trace]:
        """Empty the slow log and return it, oldest first."""
        with self._lock:
            traces = list(self._slow)
            self._slow.clear()
            return traces

    def stats_snapshot(self) -> dict[str, int]:
        """The recorder's counters (a telemetry collector)."""
        with self._lock:
            return {
                "traces_recorded": self._recorded,
                "traces_dropped": self._dropped,
                "traces_buffered": len(self._traces),
                "slow_traces_recorded": self._slow_recorded,
                "slow_traces_buffered": len(self._slow),
            }
