"""The remote side of a split dbTouch deployment.

The server holds the base data and the full sample hierarchies.  It answers
two kinds of requests: point/window reads at a given granularity (to refine
what the device showed from its local sample) and summary reads over a
rowid range.  Responses are sized in bytes so the network model can charge
transfer time.

A single :class:`RemoteServer` may back many device sessions at once (the
multi-session serving engine hands one shared server to every
remote-backed service), so hosting and request handling are guarded by a
lock: column registration is atomic, and the request counter never loses
increments under concurrent touches.  The hosted columns themselves are
read-only, so actual data reads need no synchronization beyond the
registry lookup.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import RemoteError
from repro.storage.column import Column
from repro.storage.sample import SampleHierarchy


@dataclass(frozen=True)
class RemoteResponse:
    """A server response: the values plus their wire size in bytes."""

    values: np.ndarray
    payload_bytes: int
    served_from_level: int


class RemoteServer:
    """Holds base columns and serves granular reads to remote clients."""

    def __init__(self, sample_factor: int = 4):
        if sample_factor < 2:
            raise RemoteError("sample_factor must be at least 2")
        self._lock = threading.RLock()
        self._columns: dict[str, Column] = {}
        self._hierarchies: dict[str, SampleHierarchy] = {}
        self._sample_factor = sample_factor
        self.requests_served = 0

    # ------------------------------------------------------------------ #
    # data management
    # ------------------------------------------------------------------ #
    def host_column(self, column: Column, replace: bool = False) -> None:
        """Store a column (and build its sample hierarchy) on the server.

        With ``replace``, an already-hosted column of the same name is
        swapped for the new data and its sample hierarchy rebuilt.
        """
        hierarchy = SampleHierarchy(column, factor=self._sample_factor)
        with self._lock:
            if column.name in self._columns and not replace:
                raise RemoteError(f"column {column.name!r} is already hosted")
            self._columns[column.name] = column
            self._hierarchies[column.name] = hierarchy

    def ensure_hosted(self, column: Column) -> Column:
        """Host ``column`` unless a column of that name is already hosted.

        The idempotent variant used when many sessions share one server:
        the first session pays the hierarchy build, later sessions reuse
        the hosted data.  Returns the column actually hosted.  The lock is
        held across the check *and* the host (it is reentrant), so two
        sessions racing on the same name can never trip each other.
        """
        with self._lock:
            existing = self._columns.get(column.name)
            if existing is not None:
                return existing
            self.host_column(column)
            return column

    def column(self, name: str) -> Column:
        """Return a hosted column."""
        with self._lock:
            if name not in self._columns:
                raise RemoteError(f"server does not host a column named {name!r}")
            return self._columns[name]

    def hosts(self, name: str) -> bool:
        """Whether the server hosts a column named ``name``."""
        with self._lock:
            return name in self._columns

    def small_sample(self, name: str, max_rows: int = 4096) -> Column:
        """Produce the small sample a device keeps locally for ``name``.

        The sample is an evenly strided subset of at most ``max_rows`` rows.
        """
        if max_rows <= 0:
            raise RemoteError("max_rows must be positive")
        column = self.column(name)
        stride = max(1, len(column) // max_rows)
        return column.take_every(stride)

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    def _hierarchy(self, name: str) -> SampleHierarchy:
        with self._lock:
            hierarchy = self._hierarchies.get(name)
            if hierarchy is None:
                raise RemoteError(f"server does not host a column named {name!r}")
            return hierarchy

    def _count_request(self) -> None:
        with self._lock:
            self.requests_served += 1

    def read_window(
        self,
        name: str,
        base_rowid: int,
        half_window: int,
        stride_hint: int = 1,
    ) -> RemoteResponse:
        """Serve a window read at the granularity matching ``stride_hint``."""
        hierarchy = self._hierarchy(name)
        values, level = hierarchy.read_window(base_rowid, half_window, stride_hint)
        self._count_request()
        payload = int(values.size) * self.column(name).dtype.width_bytes
        return RemoteResponse(
            values=np.asarray(values),
            payload_bytes=payload,
            served_from_level=level.level,
        )

    def read_value(self, name: str, base_rowid: int, stride_hint: int = 1) -> RemoteResponse:
        """Serve a single-value read (one touch's worth of detail)."""
        hierarchy = self._hierarchy(name)
        value, level = hierarchy.read_at(base_rowid, stride_hint)
        self._count_request()
        payload = self.column(name).dtype.width_bytes
        return RemoteResponse(
            values=np.asarray([value]),
            payload_bytes=payload,
            served_from_level=level.level,
        )
