"""The remote backend: the local front half, answered over a simulated link.

The paper's Section 2.9 split deployment as a model: the device side *is*
a :class:`repro.service.LocalExplorationService` (views, per-view state,
actions, zoom, rotate, pan, clock, touch synthesis); this module adds only
what is remote — hosting on a :class:`RemoteServer`, answering each touch
under a :class:`RemotePolicy`, charging the :class:`SimulatedLink`.
Nothing here opens a socket; the real wire is :mod:`repro.serving`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

import numpy as np

from repro.core.actions import ActionKind
from repro.core.batch import dedupe_slide_batch
from repro.core.commands import (
    AppendCommand,
    ChooseAction,
    DragColumnOut,
    GestureCommand,
    GestureScript,
    GroupColumns,
    Pan,
    Rotate,
    ShowColumn,
    ShowTable,
    Slide,
    SlidePath,
    Tap,
    UngroupTable,
    ZoomIn,
    ZoomOut,
)
from repro.core.kernel import GestureOutcome, KernelConfig
from repro.engine.aggregate import AggregateKind
from repro.errors import IngestError, RemoteError, ServiceError
from repro.remote.client import RemoteExplorationClient, RemotePolicy
from repro.remote.network import WAN, NetworkProfile, SimulatedLink
from repro.remote.server import RemoteServer
from repro.service import LocalExplorationService, OutcomeEnvelope, _as_named_column
from repro.storage.column import Column
from repro.touchio.device import DeviceProfile, IPAD1
from repro.touchio.recognizer import GestureType

_SUMMARY_FUNCS: dict[AggregateKind, Callable[[np.ndarray], float]] = {
    AggregateKind.COUNT: lambda a: float(a.size),
    AggregateKind.SUM: lambda a: float(np.sum(a)),
    AggregateKind.AVG: lambda a: float(np.mean(a)),
    AggregateKind.MIN: lambda a: float(np.min(a)),
    AggregateKind.MAX: lambda a: float(np.max(a)),
    AggregateKind.STD: lambda a: float(np.std(a)),
}
#: the actions a touch answered off-device can feed (no table-shaped ones)
_REMOTE_ACTIONS = (ActionKind.SCAN, ActionKind.AGGREGATE, ActionKind.SUMMARY)


class RemoteExplorationService:
    """Gesture exploration against a server that holds the base data.

    The device side is the local backend's own front half (same device
    profile, synthesizer, recognizer and touch→rowid mapping), but every
    touch is answered under a :class:`RemotePolicy`: immediately from the
    device-local sample, by shipping the touch over the simulated link, or
    hybrid — local answer first, remote refinement only when the gesture's
    granularity outruns the local sample.  The remote backend hosts
    standalone columns only; table-shaped commands raise
    :class:`repro.errors.RemoteError`.

    The device side is composed, not inherited: serving layers probe a
    backend for ``catalog``, ``load_table``, ``select_where`` and friends,
    and a device that holds no base data must answer "no" to all of them.
    """

    backend = "remote"

    def __init__(
        self,
        server: RemoteServer | None = None,
        link: SimulatedLink | None = None,
        policy: RemotePolicy = RemotePolicy.HYBRID,
        profile: DeviceProfile = IPAD1,
        network_profile: NetworkProfile = WAN,
        local_sample_rows: int = 4096,
        jitter_cm: float = 0.0,
        seed: int = 11,
    ) -> None:
        self.server = server if server is not None else RemoteServer()
        self.link = link if link is not None else SimulatedLink(network_profile)
        self.policy = policy
        self.profile = profile
        self.local_sample_rows = local_sample_rows
        self._clients: dict[str, RemoteExplorationClient] = {}
        # the device holds no base data, so everything that works off base
        # data is off; its catalog only ever holds the handles of hosted
        # columns shown here (how the device learns length, dtype and size)
        self._device_side = LocalExplorationService(
            profile=profile,
            config=KernelConfig(
                enable_samples=False,
                enable_indexing=False,
            ),
            jitter_cm=jitter_cm,
            seed=seed,
        )
        self.link.reset()

    def reset(self) -> None:
        """Reset the device side (views, clients, clock); keep hosted data."""
        self._device_side.reset()
        self._clients.clear()
        self.link.reset()

    @property
    def device(self):
        """The device side's simulated touch device (screen, views, clock)."""
        return self._device_side.device

    @property
    def synthesizer(self):
        """The device side's seeded gesture synthesizer."""
        return self._device_side.synthesizer

    @property
    def network_seconds(self) -> float:
        """Total simulated network time spent so far."""
        return self.link.stats.simulated_seconds

    def client_for(self, view_name: str) -> RemoteExplorationClient:
        """The device-side client answering touches for ``view_name``."""
        if view_name not in self._clients:
            raise RemoteError(f"no remote data object is shown under view {view_name!r}")
        return self._clients[view_name]

    # ------------------------------------------------------------------ #
    # host-side data management and live ingestion
    # ------------------------------------------------------------------ #
    def load_column(self, name: str, values: Iterable, replace: bool = False) -> Column:
        """Host a column on the remote server (mirrors the local signature).

        Hosting is idempotent per name (``RemoteServer.ensure_hosted``):
        when many device sessions share one server, the first load pays the
        hierarchy build and later loads of the same name reuse the hosted
        data — swapping the data intentionally is what ``replace`` is for.

        With ``replace``, an already-hosted column is swapped for the new
        data (a reload): the server rebuilds its sample hierarchy, and
        every device-side view of the object is re-bound as the local
        backend re-binds a reloaded object, plus a fresh exploration client.
        """
        column = _as_named_column(name, values)
        if replace and self.server.hosts(name):
            self.server.host_column(column, replace=True)
            self._rebind(column, grew=False)
            return column
        return self.server.ensure_hosted(column)

    def _rebind(self, column: Column, grew: bool) -> None:
        """Re-bind shown views of ``column`` after its hosted data changed."""
        side = self._device_side
        name = column.name
        if name not in side.catalog:
            return  # never shown on this device
        if grew:
            side.kernel.extend_object(name)  # the registered handle grew in place
        else:
            side.load_column(name, column, replace=True)
        for view_name in self._clients:
            state = side.kernel.state_of(view_name)
            if state.object_name == name:
                # the old client's local sample was drawn from the old data
                self._clients[view_name] = self._new_client(name)
                state.last_rowid = None
                state.current_stride = 1

    def _new_client(self, object_name: str) -> RemoteExplorationClient:
        return RemoteExplorationClient(
            self.server,
            self.link,
            object_name,
            policy=self.policy,
            local_sample_rows=self.local_sample_rows,
        )

    def append_rows(
        self,
        object_name: str,
        values: Iterable | None = None,
        columns: Mapping[str, Iterable] | None = None,
    ) -> int:
        """Append rows to a hosted column (mirrors the local signature).

        The hosted column grows in place; its server-side sample hierarchy
        sampled the pre-append rows, so it is rebuilt, and every shown
        device-side view is re-bound and gets a fresh exploration client —
        the same re-bind a ``replace`` reload performs.
        """
        if columns is not None:
            raise RemoteError(
                "the remote backend hosts standalone columns only; "
                "table appends are a local-backend feature"
            )
        if values is None:
            raise IngestError("append_rows needs values= for a hosted column")
        if not self.server.hosts(object_name):
            raise IngestError(
                f"server does not host a column named {object_name!r}; "
                "load_column() it before appending"
            )
        column = self.server.column(object_name)
        new_length = column.append_batch(values)
        self.server.host_column(column, replace=True)
        self._rebind(column, grew=True)
        return new_length

    # ------------------------------------------------------------------ #
    # the service protocol
    # ------------------------------------------------------------------ #
    def execute(self, command: GestureCommand) -> OutcomeEnvelope:
        """Execute one gesture command through the remote machinery."""
        if isinstance(command, AppendCommand):
            new_length = self.append_rows(
                command.object_name, values=command.values, columns=command.columns
            )
            return OutcomeEnvelope(
                command_kind=command.kind,
                backend=self.backend,
                object_name=command.object_name,
                payload={"num_rows": new_length},
            )
        if isinstance(command, ShowColumn):
            return self._show_column(command)
        if isinstance(command, (Slide, SlidePath, Tap)):
            return self._touch_gesture(command)
        if isinstance(command, (ChooseAction, ZoomIn, ZoomOut, Rotate, Pan)):
            self.client_for(command.view)  # RemoteError unless shown here
            if isinstance(command, ChooseAction) and command.action.kind not in _REMOTE_ACTIONS:
                raise RemoteError(
                    f"the remote backend supports scan/aggregate/summary actions, "
                    f"not {command.action.kind.value!r}"
                )
            return self._on_device(command)
        if isinstance(command, (ShowTable, DragColumnOut, GroupColumns, UngroupTable)):
            raise RemoteError(
                "the remote backend hosts standalone columns only; "
                f"command {command.kind!r} needs a table object"
            )
        raise ServiceError(
            f"the remote backend does not understand command kind {command.kind!r}"
        )

    def run(self, script: GestureScript) -> list[OutcomeEnvelope]:
        """Execute a whole script in order."""
        return [self.execute(command) for command in script]

    # ------------------------------------------------------------------ #
    # command handlers
    # ------------------------------------------------------------------ #
    def _on_device(self, command: GestureCommand) -> OutcomeEnvelope:
        """Run a command that needs no base data on the device side, as ours."""
        envelope = self._device_side.execute(command)
        envelope.backend = self.backend
        if envelope.object_name is None:  # the local pan envelope names none
            state = self._device_side.kernel.state_of(envelope.view_name)
            envelope.object_name = state.object_name
        return envelope

    def _show_column(self, command: ShowColumn) -> OutcomeEnvelope:
        if command.column_name is not None:
            raise RemoteError(
                "the remote backend addresses hosted columns directly; "
                "table-attribute lookups are a local-backend feature"
            )
        if not self.server.hosts(command.object_name):
            raise RemoteError(
                f"server does not host a column named {command.object_name!r}; "
                "load_column() it before showing it"
            )
        self._device_side.catalog.register_column(
            self.server.column(command.object_name), replace=True
        )
        envelope = self._on_device(command)
        self._clients[envelope.view_name] = self._new_client(command.object_name)
        return envelope

    def _touch_gesture(self, command: Slide | SlidePath | Tap) -> OutcomeEnvelope:
        client = self.client_for(command.view)
        kernel = self._device_side.kernel
        state = kernel.state_of(command.view)
        stream = self._device_side.synthesize(command)
        self.device.advance_clock(stream.duration)
        gesture = kernel.recognizer.recognize(stream)
        requests_before = self.link.stats.requests
        seconds_before = self.link.stats.simulated_seconds
        outcome = GestureOutcome(
            gesture_type=gesture.gesture_type,
            view_name=gesture.view_name,
            object_name=state.object_name,
            duration_s=gesture.duration,
        )
        if gesture.gesture_type is GestureType.TAP:
            # a tap asks for the exact value under the finger and, like
            # the local kernel, leaves the slide-tracking state untouched
            x, y = float(stream.xs[-1, 0]), float(stream.ys[-1, 0])
            mapped = kernel.mapper.map_touch(state.view, x, y)
            outcome.rowids_touched = np.array([mapped.rowid], dtype=np.int64)
            latencies = [self._answer_touch(state, client, mapped.rowid, 1, outcome)]
        else:
            # the whole slide is mapped and deduplicated in one numpy pass, as
            # in the local kernel; each touch is then answered under the policy
            latencies = []
            mapped_batch = kernel.mapper.map_batch(state.view, stream, active_only=True)
            if len(mapped_batch):
                keep, strides = dedupe_slide_batch(
                    mapped_batch.rowids, state.last_rowid, state.current_stride
                )
                kept = mapped_batch.rowids[keep]
                outcome.rowids_touched = kept
                latencies = [
                    self._answer_touch(state, client, rowid, stride, outcome)
                    for rowid, stride in zip(kept.tolist(), strides.tolist())
                ]
                if kept.size:
                    state.last_rowid = int(kept[-1])
                    state.current_stride = int(strides[-1])
        outcome.per_touch_latencies_s = np.array(latencies, dtype=np.float64)
        if state.aggregate is not None:
            outcome.final_aggregate = state.aggregate.current()
        return OutcomeEnvelope(
            command_kind=command.kind,
            backend=self.backend,
            view_name=gesture.view_name,
            object_name=state.object_name,
            payload=outcome,
            remote_requests=self.link.stats.requests - requests_before,
            network_seconds=self.link.stats.simulated_seconds - seconds_before,
            **outcome.counters(),
        )

    def _answer_touch(self, state, client, rowid: int, stride: int, outcome) -> float:
        """Answer one touch under the policy; returns its response time."""
        action = state.action
        if action.kind is ActionKind.SUMMARY:
            value, examined, response_s = client.summary_touch(
                rowid, action.summary_k, stride, _SUMMARY_FUNCS[action.aggregate]
            )
        else:
            answer = client.touch(rowid, stride_hint=stride)
            value = (
                answer.refined_value
                if answer.refined_value is not None
                else answer.immediate_value
            )
            examined = 1
            response_s = answer.response_time_s
        outcome.tuples_examined += examined
        if action.predicate is not None and not action.predicate.matches(value):
            return response_s
        if state.aggregate is not None:
            state.aggregate.on_touch(rowid, value)
        outcome.entries_returned += 1
        return response_s
