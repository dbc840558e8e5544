"""The device side of a split dbTouch deployment.

The client keeps only a small local sample of each explored column.  Every
touch is answered *immediately* from the local sample (a partial answer);
when the gesture's granularity demands more detail than the local sample
holds, the client also issues a remote request and accounts for the network
time it would take for the refined answer to arrive.  The benchmark
compares three policies:

* ``local-only`` — never talk to the server (coarse answers only);
* ``remote-every-touch`` — ship every touch to the server (the naive policy
  the paper warns about);
* ``hybrid`` — answer locally, refine remotely only when needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from repro.errors import RemoteError
from repro.remote.network import NetworkStats, SimulatedLink
from repro.remote.server import RemoteServer
from repro.storage.column import Column


class RemotePolicy(Enum):
    """How the client balances local samples against remote requests."""

    LOCAL_ONLY = "local-only"
    REMOTE_EVERY_TOUCH = "remote-every-touch"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class TouchAnswer:
    """What the client produced for one touch.

    Attributes
    ----------
    immediate_value:
        The value shown immediately (from the local sample, or from the
        remote response when the policy ships every touch).
    refined_value:
        The refined value once the remote answer arrives (None when no
        remote request was made).
    response_time_s:
        Simulated time until *something* was on screen.
    refinement_time_s:
        Simulated time until the refined value arrived (0 if no request).
    went_remote:
        Whether a remote request was issued for this touch.
    """

    immediate_value: float
    refined_value: float | None
    response_time_s: float
    refinement_time_s: float
    went_remote: bool


@dataclass
class ClientStats:
    """Per-session accounting for a remote exploration client."""

    touches: int = 0
    remote_requests: int = 0
    local_answers: int = 0
    total_response_s: float = 0.0
    max_response_s: float = 0.0

    @property
    def mean_response_s(self) -> float:
        """Mean immediate response time per touch."""
        if not self.touches:
            return 0.0
        return self.total_response_s / self.touches


#: Simulated cost of reading a value from device-local memory.
LOCAL_READ_SECONDS = 0.0002


class RemoteExplorationClient:
    """A tablet-side client exploring a column hosted on a remote server."""

    def __init__(
        self,
        server: RemoteServer,
        link: SimulatedLink,
        column_name: str,
        policy: RemotePolicy = RemotePolicy.HYBRID,
        local_sample_rows: int = 4096,
    ) -> None:
        if local_sample_rows <= 0:
            raise RemoteError("local_sample_rows must be positive")
        self.server = server
        self.link = link
        self.column_name = column_name
        self.policy = policy
        self._local_sample: Column = server.small_sample(column_name, local_sample_rows)
        self._base_rows = len(server.column(column_name))
        self._local_stride = max(1, self._base_rows // len(self._local_sample))
        self.stats = ClientStats()

    @property
    def local_sample(self) -> Column:
        """The small sample stored on the device."""
        return self._local_sample

    def _local_value(self, base_rowid: int) -> float:
        sample_rowid = min(len(self._local_sample) - 1, base_rowid // self._local_stride)
        return float(self._local_sample.value_at(sample_rowid))

    def touch(self, base_rowid: int, stride_hint: int = 1) -> TouchAnswer:
        """Answer one touch at ``base_rowid`` under the configured policy.

        ``stride_hint`` is the gesture's current granularity; a hybrid
        client only goes remote when the requested granularity is finer
        than what the local sample resolves.
        """
        if not 0 <= base_rowid < self._base_rows:
            raise RemoteError(
                f"rowid {base_rowid} out of range for column of {self._base_rows} rows"
            )
        self.stats.touches += 1
        needs_detail = stride_hint < self._local_stride
        go_remote = self.policy is RemotePolicy.REMOTE_EVERY_TOUCH or (
            self.policy is RemotePolicy.HYBRID and needs_detail
        )
        local_value = self._local_value(base_rowid)

        if self.policy is RemotePolicy.REMOTE_EVERY_TOUCH:
            response = self.server.read_value(self.column_name, base_rowid, stride_hint)
            elapsed = self.link.request(response.payload_bytes)
            answer = TouchAnswer(
                immediate_value=float(response.values[0]),
                refined_value=None,
                response_time_s=elapsed,
                refinement_time_s=0.0,
                went_remote=True,
            )
            self.stats.remote_requests += 1
        elif go_remote:
            response = self.server.read_value(self.column_name, base_rowid, stride_hint)
            refine_time = self.link.request(response.payload_bytes)
            answer = TouchAnswer(
                immediate_value=local_value,
                refined_value=float(response.values[0]),
                response_time_s=LOCAL_READ_SECONDS,
                refinement_time_s=refine_time,
                went_remote=True,
            )
            self.stats.remote_requests += 1
            self.stats.local_answers += 1
        else:
            answer = TouchAnswer(
                immediate_value=local_value,
                refined_value=None,
                response_time_s=LOCAL_READ_SECONDS,
                refinement_time_s=0.0,
                went_remote=False,
            )
            self.stats.local_answers += 1

        self._observe_response(answer.response_time_s)
        return answer

    def summary_touch(
        self,
        base_rowid: int,
        half_window: int,
        stride_hint: int,
        reduce_fn: Callable[[np.ndarray], float],
    ) -> tuple[float, int, float]:
        """One interactive-summary touch under the configured policy.

        The immediate answer reduces the local sample's window around
        ``base_rowid`` with ``reduce_fn``; when the policy ships the touch,
        the refined answer reduces the server's window read instead.
        Returns ``(value, values_examined, immediate_response_seconds)``.
        """
        if not 0 <= base_rowid < self._base_rows:
            raise RemoteError(
                f"rowid {base_rowid} out of range for column of {self._base_rows} rows"
            )
        self.stats.touches += 1
        sample = self._local_sample
        hi = max(0, min(len(sample) - 1, (base_rowid + half_window) // self._local_stride))
        lo = max(0, min(hi, (base_rowid - half_window) // self._local_stride))
        window = sample.slice(lo, hi + 1)
        local_value = reduce_fn(np.asarray(window, dtype=np.float64))
        go_remote = self.policy is RemotePolicy.REMOTE_EVERY_TOUCH or (
            self.policy is RemotePolicy.HYBRID and stride_hint < self._local_stride
        )
        if not go_remote:
            self.stats.local_answers += 1
            self._observe_response(LOCAL_READ_SECONDS)
            return local_value, int(window.size), LOCAL_READ_SECONDS
        response = self.server.read_window(
            self.column_name, base_rowid, half_window, stride_hint
        )
        elapsed = self.link.request(response.payload_bytes)
        refined = reduce_fn(np.asarray(response.values, dtype=np.float64))
        self.stats.remote_requests += 1
        if self.policy is RemotePolicy.REMOTE_EVERY_TOUCH:
            response_s = elapsed
        else:
            self.stats.local_answers += 1
            response_s = LOCAL_READ_SECONDS
        self._observe_response(response_s)
        return refined, int(response.values.size), response_s

    def _observe_response(self, response_s: float) -> None:
        self.stats.total_response_s += response_s
        self.stats.max_response_s = max(self.stats.max_response_s, response_s)

    def slide(self, rowids: list[int], stride_hint: int | None = None) -> list[TouchAnswer]:
        """Answer a whole slide's worth of touches."""
        if stride_hint is None:
            stride_hint = self._stride_from_rowids(rowids)
        return [self.touch(rowid, stride_hint) for rowid in rowids]

    @staticmethod
    def _stride_from_rowids(rowids: list[int]) -> int:
        if len(rowids) < 2:
            return 1
        diffs = [abs(b - a) for a, b in zip(rowids, rowids[1:]) if b != a]
        if not diffs:
            return 1
        return max(1, int(np.median(diffs)))

    @property
    def network_stats(self) -> NetworkStats:
        """Traffic statistics of the underlying link."""
        return self.link.stats
