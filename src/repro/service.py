"""Backend-agnostic exploration services: one gesture protocol, many hosts.

The dbTouch paper describes a query as a session of continuous gestures and
explicitly sketches a remote deployment where the device keeps only small
samples while a server holds the base data (Section 2.9).  This module is
the seam that makes both worlds speak the same language:

* :class:`ExplorationService` — the protocol: ``execute`` one
  :class:`repro.core.commands.GestureCommand`, or ``run`` a whole
  :class:`repro.core.commands.GestureScript`, returning
  :class:`OutcomeEnvelope` objects either way;
* :class:`LocalExplorationService` — the in-process path: a private
  catalog/device/kernel/synthesizer per service;
* :class:`MultiSessionServer` — N independent services behind one façade,
  with per-session and aggregate metrics (the concurrency substrate for
  sharding and scale-out work).

The simulated split deployment, :class:`repro.remote.RemoteExplorationService`,
lives next to the server, link and client it composes; it *uses* the local
backend as its device side, so this module imports nothing from
:mod:`repro.remote`.

:class:`repro.ExplorationSession` is a thin facade over a service: every
imperative method builds a command and calls ``execute``.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Protocol, Sequence, runtime_checkable

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
    TimedCommand,
    UngroupTable,
    ZoomIn,
    ZoomOut,
)
from repro.core.kernel import (
    DETERMINISTIC_COUNTERS,
    LINK_COUNTERS,
    OUTCOME_COUNTERS,
    DbTouchKernel,
    KernelConfig,
)
from repro.core.scheduler import GestureScheduler, InlineLane, SchedulerConfig
from repro.core.schema_gestures import SchemaGestures
from repro.engine.filter import Predicate
from repro.errors import IngestError, ServiceError
from repro.indexing.manager import IndexManager, RangeSelection
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import TelemetryRegistry, merge_numeric
from repro.obs.stats import nearest_rank
from repro.obs.trace import Trace, TraceConfig, TraceContext, Tracer
from repro.persist.snapshot import StoreCatalog
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.sample import SampleHierarchy
from repro.storage.table import Table
from repro.touchio.device import DeviceProfile, IPAD1, TouchDevice
from repro.touchio.events import TouchStream
from repro.touchio.synthesizer import GestureSynthesizer
from repro.touchio.views import View


@dataclass
class OutcomeEnvelope:
    """What a service hands back for one executed command.

    The metric fields mirror :meth:`repro.core.kernel.GestureOutcome.counters`
    so local and remote backends report the same measurement surface;
    ``remote_requests`` / ``network_seconds`` stay zero on the local path.
    ``payload`` carries the backend-native outcome object (a
    :class:`GestureOutcome`, a :class:`SchemaGestureOutcome`, a
    :class:`repro.touchio.views.View` for show commands, or ``None``).
    """

    command_kind: str
    backend: str
    view_name: str | None = None
    object_name: str | None = None
    entries_returned: int = 0
    tuples_examined: int = 0
    duration_s: float = 0.0
    max_touch_latency_s: float = 0.0
    remote_requests: int = 0
    network_seconds: float = 0.0
    payload: Any = None

    #: Always 0, and not on the wire: no touch is served from a cache or a
    #: prefetch any more.  The ledger (``ledger/harness.py``) is their last
    #: reader.
    cache_hits = prefetch_hits = 0

    def to_dict(self) -> dict[str, Any]:
        """The envelope's wire format: metrics only, no live objects.

        Counter fields are coerced to plain ``int``/``float`` so the dict
        is always JSON-encodable — the kernel accumulates some counters as
        numpy scalars, which ``json.dumps`` refuses.  Only a plain-``dict``
        payload (an append's ``{"num_rows": n}``: data, not a live object)
        gets a ``payload`` key.
        """
        wire = {
            "command_kind": self.command_kind,
            "backend": self.backend,
            "view_name": self.view_name,
            "object_name": self.object_name,
        }
        for name, plain in _ENVELOPE_COUNTERS.items():
            wire[name] = plain(getattr(self, name))
        if type(self.payload) is dict:
            wire["payload"] = self.payload
        return wire

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "OutcomeEnvelope":
        """Rebuild an envelope from :meth:`to_dict` output (wire side).

        The ``payload`` attribute is the wire's plain-data one or ``None`` —
        live outcome objects never cross the wire; only the measurement
        surface does.  Raises
        :class:`repro.errors.ServiceError` on a malformed payload so
        protocol clients surface a typed error instead of a ``KeyError``.
        """
        try:
            return cls(
                command_kind=str(payload["command_kind"]),
                backend=str(payload["backend"]),
                view_name=payload.get("view_name"),
                object_name=payload.get("object_name"),
                payload=payload.get("payload"),
                **{
                    name: plain(payload.get(name, 0))
                    for name, plain in _ENVELOPE_COUNTERS.items()
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed outcome-envelope payload: {exc}") from exc


#: Every counter field of an :class:`OutcomeEnvelope`, in wire order, with the
#: plain type (``int``/``float``) its declaration gives it.
_ENVELOPE_COUNTERS = {
    name: type(getattr(OutcomeEnvelope, name)) for name in OUTCOME_COUNTERS + LINK_COUNTERS
}


@runtime_checkable
class ExplorationService(Protocol):
    """The backend-agnostic exploration protocol.

    This is the full contract :class:`repro.ExplorationSession` and
    :class:`MultiSessionServer` rely on: command execution plus host-side
    data loading and state recycling.  Backend-specific extras (``catalog``,
    ``kernel``, ``load_table`` on the local backend; ``server``, ``link``
    on the remote one) are intentionally outside the protocol.
    """

    def execute(self, command: GestureCommand) -> OutcomeEnvelope:
        """Execute one gesture command and return its outcome envelope."""
        ...

    def run(self, script: GestureScript) -> list[OutcomeEnvelope]:
        """Execute a whole script, one envelope per command."""
        ...

    def load_column(self, name: str, values: Iterable) -> Column:
        """Make a standalone column available to the backend under ``name``."""
        ...

    def reset(self) -> None:
        """Discard the backend's exploration state so it can be reused."""
        ...


def _as_named_column(name: str, values: Iterable) -> Column:
    """Normalize raw values / an existing Column to a column named ``name``."""
    column = values if isinstance(values, Column) else Column(name, values)
    if column.name != name:
        column = column.rename(name)
    return column


def _accepts_replace(loader: Callable) -> bool:
    """Whether a backend loader takes the ``replace=`` keyword.

    Both built-in backends do; the check exists so a custom backend
    without reload support fails with a clean :class:`ServiceError`
    instead of a ``TypeError`` from an unexpected keyword.
    """
    try:
        parameters = inspect.signature(loader).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False
    return "replace" in parameters or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


# --------------------------------------------------------------------- #
# the in-process backend
# --------------------------------------------------------------------- #


class LocalExplorationService:
    """The in-process backend: a private catalog, device and dbTouch kernel.

    This is the execution path :class:`repro.ExplorationSession` always had;
    it is now addressable through the command protocol so recorded scripts
    replay on it and :class:`MultiSessionServer` can host many instances.
    """

    backend = "local"

    def __init__(
        self,
        profile: DeviceProfile = IPAD1,
        config: KernelConfig | None = None,
        jitter_cm: float = 0.0,
        seed: int = 11,
    ) -> None:
        self.profile = profile
        self.config = config
        self.jitter_cm = jitter_cm
        self.seed = seed
        self._shared_index: IndexManager | None = None
        self.reset()

    def reset(self) -> None:
        """Discard all catalog/device/kernel state and start fresh."""
        self.catalog = Catalog()
        self.device = TouchDevice(self.profile)
        self.kernel = DbTouchKernel(self.catalog, self.device, self.config)
        self.synthesizer = GestureSynthesizer(
            self.profile, jitter_cm=self.jitter_cm, seed=self.seed
        )
        self.schema_gestures = SchemaGestures(self.kernel)
        if self._shared_index is not None and self.kernel.config.enable_indexing:
            self.kernel.index_manager = self._shared_index

    def adopt_index_manager(self, manager: IndexManager) -> None:
        """Serve this session's adaptive indexing from a shared manager.

        The hook :class:`MultiSessionServer` uses when sessions attach the
        same base storage by reference: an index built by one session's
        selection then speeds up every session's selections.  The adoption
        survives :meth:`reset` (the kernel is rebuilt around the same
        shared manager).  A kernel explicitly configured with
        ``enable_indexing=False`` keeps its off switch: the shared
        manager is remembered but never installed.
        """
        self._shared_index = manager
        if self.kernel.config.enable_indexing:
            self.kernel.index_manager = manager

    def index_stats(self) -> dict[str, int] | None:
        """Counters and gauges of the adaptive indexing tier.

        A point-in-time :meth:`~repro.indexing.manager.IndexManager.
        stats_snapshot`: consultation, build, adoption and drop counters,
        tail merges and rows merged, plus live gauges (indexes live and the
        bytes they hold: ``crackers_live``, ``cracker_bytes``).  ``None`` when indexing
        is disabled.  Load-dependent — deliberately not part of
        :meth:`SessionMetrics.counters_snapshot`, the serial-vs-concurrent
        parity surface.
        """
        manager = self.kernel.index_manager
        return None if manager is None else manager.stats_snapshot()

    # ------------------------------------------------------------------ #
    # host-side data management (not part of the command vocabulary)
    # ------------------------------------------------------------------ #
    def load_column(self, name: str, values: Iterable, replace: bool = False) -> Column:
        """Register a standalone column in the service's catalog.

        With ``replace``, an already-registered column of the same name is
        overwritten (a data reload): stale sample hierarchies are dropped,
        and shown views are re-bound to the new data.
        """
        column = _as_named_column(name, values)
        self.catalog.register_column(column, replace=replace)
        if replace:
            self.kernel.refresh_object(name)
        return column

    def load_table(
        self, name: str, data: Mapping[str, Iterable] | Table, replace: bool = False
    ) -> Table:
        """Register a table in the service's catalog.

        ``replace`` reloads an existing table; see :meth:`load_column`.
        """
        table = data if isinstance(data, Table) else Table.from_arrays(name, data)
        self.catalog.register_table(table, replace=replace)
        if replace:
            self.kernel.refresh_object(name)
        return table

    # ------------------------------------------------------------------ #
    # live ingestion
    # ------------------------------------------------------------------ #
    def append_rows(
        self,
        object_name: str,
        values: Iterable | None = None,
        columns: Mapping[str, Iterable] | None = None,
    ) -> int:
        """Append rows to an already-loaded object without pausing exploration.

        Standalone columns take ``values``; tables take ``columns`` covering
        the schema exactly (the storage tier appends all-or-nothing).  After
        the data grows, shown views are re-bound via
        :meth:`repro.core.kernel.DbTouchKernel.extend_object`, so indexes
        stay valid over their prefix window — the hot tail is
        scanned until :meth:`merge_index_tails` (or a background merge)
        folds it in.  Returns the object's new row count.
        """
        if (values is None) == (columns is None):
            raise IngestError(
                "append_rows needs exactly one of values= (column) or columns= (table)"
            )
        if object_name not in self.catalog:
            raise IngestError(
                f"no loaded object {object_name!r} to append to; "
                f"known: {self.catalog.table_names + self.catalog.column_names}"
            )
        is_table = object_name in self.catalog.table_names
        if columns is not None:
            if not is_table:
                raise IngestError(
                    f"{object_name!r} is a standalone column; append with values="
                )
            new_length = self.catalog.table(object_name).append_batch(columns)
        else:
            if is_table:
                raise IngestError(f"{object_name!r} is a table; append with columns=")
            new_length = self.catalog.column(object_name).append_batch(values)
        self.kernel.extend_object(object_name)
        return new_length

    def merge_index_tails(self, object_name: str | None = None) -> int:
        """Fold appended hot tails into the indexes' windows; returns rows merged.

        A no-op (0) when indexing is disabled or nothing was appended.
        Serving layers schedule this on the background lane; callers here
        may also invoke it synchronously at a quiet moment.
        """
        manager = self.kernel.index_manager
        if manager is None:
            return 0
        return manager.merge_tails(object_name)

    # ------------------------------------------------------------------ #
    # the service protocol
    # ------------------------------------------------------------------ #
    def execute(self, command: GestureCommand) -> OutcomeEnvelope:
        """Execute one gesture command against the in-process kernel."""
        if isinstance(command, ShowColumn):
            view = self.kernel.show_column(
                command.object_name,
                column_name=command.column_name,
                view_name=command.view_name,
                height_cm=command.height_cm,
                width_cm=command.width_cm,
                x=command.x,
                y=command.y,
            )
            return self._envelope(
                command, view_name=view.name, object_name=command.object_name, payload=view
            )
        if isinstance(command, ShowTable):
            view = self.kernel.show_table(
                command.table_name,
                view_name=command.view_name,
                height_cm=command.height_cm,
                width_cm=command.width_cm,
                x=command.x,
                y=command.y,
            )
            return self._envelope(
                command, view_name=view.name, object_name=command.table_name, payload=view
            )
        if isinstance(command, ChooseAction):
            self.kernel.set_action(command.view, command.action)
            object_name = self.kernel.state_of(command.view).object_name
            return self._envelope(command, view_name=command.view, object_name=object_name)
        if isinstance(command, (Slide, SlidePath, Tap, ZoomIn, ZoomOut, Rotate)):
            stream = self.synthesize(command)
            self.device.advance_clock(stream.duration)
            outcome = self.kernel.handle_stream(stream)
            return self._envelope(
                command,
                view_name=outcome.view_name,
                object_name=outcome.object_name,
                payload=outcome,
                **outcome.counters(),
            )
        if isinstance(command, Pan):
            moved = self.schema_gestures.pan_view(
                self._target_view(command.view), command.dx_cm, command.dy_cm
            )
            return self._envelope(command, view_name=command.view, payload=moved)
        if isinstance(command, DragColumnOut):
            dragged = self.schema_gestures.drag_column_out(
                self._target_view(command.table_view),
                command.column_name,
                new_object_name=command.new_object_name,
                x=command.x,
                y=command.y,
                height_cm=command.height_cm,
            )
            return self._envelope(command, view_name=command.table_view, payload=dragged)
        if isinstance(command, GroupColumns):
            grouped = self.schema_gestures.group_columns(
                list(command.column_object_names),
                command.table_name,
                x=command.x,
                y=command.y,
                height_cm=command.height_cm,
                width_cm=command.width_cm,
            )
            return self._envelope(command, payload=grouped)
        if isinstance(command, UngroupTable):
            split = self.schema_gestures.ungroup_table(
                self._target_view(command.table_view), height_cm=command.height_cm
            )
            return self._envelope(command, view_name=command.table_view, payload=split)
        if isinstance(command, AppendCommand):
            new_length = self.append_rows(
                command.object_name, values=command.values, columns=command.columns
            )
            return self._envelope(
                command, object_name=command.object_name, payload={"num_rows": new_length}
            )
        raise ServiceError(
            f"the local backend does not understand command kind {command.kind!r}"
        )

    def run(self, script: GestureScript) -> list[OutcomeEnvelope]:
        """Execute a whole script in order."""
        return [self.execute(command) for command in script]

    # ------------------------------------------------------------------ #
    # bulk range selection (consults the adaptive indexing tier)
    # ------------------------------------------------------------------ #
    def select_where(
        self, view: str, predicate: Predicate | None = None
    ) -> RangeSelection:
        """Whole-object range selection for the object shown in ``view``.

        A backend extra outside the gesture-command vocabulary (like
        ``load_table``): delegates to
        :meth:`repro.core.kernel.DbTouchKernel.select_where`, so the
        adaptive indexing tier is consulted when enabled and the result is
        bit-identical to a full scan either way.
        """
        return self.kernel.select_where(view, predicate)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _target_view(self, view_name: str) -> View:
        # resolve through the kernel's object state, not the device's view
        # tree: when view names collide the kernel's last-shown object wins,
        # and gestures must land on the view the kernel will map against
        return self.kernel.state_of(view_name).view

    def synthesize(self, command: GestureCommand) -> TouchStream:
        """Turn a gesture command into the stream a finger would produce
        (the remote backend's touch path calls this on its device side, so
        both backends see identical streams for the same command)."""
        view = self._target_view(command.view)
        now = self.device.now
        if isinstance(command, (ZoomIn, ZoomOut)):
            return self.synthesizer.zoom(
                view,
                zoom_in=isinstance(command, ZoomIn),
                duration=command.duration,
                start_time=now,
            )
        if isinstance(command, Rotate):
            return self.synthesizer.rotate(view, duration=command.duration, start_time=now)
        axis = getattr(command, "axis", None)
        if axis is None:
            # slide along the view's orientation
            axis = view.properties.orientation if view.properties is not None else "vertical"
        if isinstance(command, Slide):
            return self.synthesizer.slide(
                view,
                duration=command.duration,
                start_fraction=command.start_fraction,
                end_fraction=command.end_fraction,
                axis=axis,
                cross_fraction=command.cross_fraction,
                start_time=now,
            )
        if isinstance(command, SlidePath):
            return self.synthesizer.slide_path(
                view,
                list(command.segments),
                axis=axis,
                cross_fraction=command.cross_fraction,
                start_time=now,
            )
        if isinstance(command, Tap):
            return self.synthesizer.tap(view, fraction=command.fraction, axis=axis, start_time=now)
        raise ServiceError(f"cannot synthesize a stream for command {command.kind!r}")

    def _envelope(self, command: GestureCommand, **fields: Any) -> OutcomeEnvelope:
        """This backend's envelope for ``command``: what every one starts with."""
        return OutcomeEnvelope(command_kind=command.kind, backend=self.backend, **fields)


# --------------------------------------------------------------------- #
# many sessions behind one protocol
# --------------------------------------------------------------------- #


#: The envelope counters a session (and the server's aggregate) totals up —
#: the clock readings are accounted apart, as ``simulated_seconds`` and the
#: session's own wall-clock latencies.
_SESSION_TOTALS = DETERMINISTIC_COUNTERS + LINK_COUNTERS


@dataclass
class SessionMetrics:
    """Per-session accounting kept by :class:`MultiSessionServer`.

    The deterministic counters (``commands``, ``entries_returned``,
    ``tuples_examined``) depend only on
    the session's command sequence, so a concurrent run must reproduce a
    serial run's values exactly; the wall-clock fields
    (latencies, throughput) describe host-side performance.  All mutation
    happens under a private lock, so the serving engine's workers and any
    monitoring thread can touch one session's metrics concurrently.

    Adaptive-index activity (builds, consultations, tail merges, index bytes) is
    deliberately NOT folded in here: with a shared index those counters
    depend on cross-session interleaving, so they live on the separate
    load-dependent surface (:meth:`LocalExplorationService.index_stats` /
    :meth:`MultiSessionServer.index_stats`) and never contaminate the
    parity contract of :meth:`counters_snapshot`.
    """

    commands: int = 0
    entries_returned: int = 0
    tuples_examined: int = 0
    remote_requests: int = 0
    network_seconds: float = 0.0
    simulated_seconds: float = 0.0
    wall_seconds: float = 0.0
    max_command_wall_s: float = 0.0
    first_command_monotonic: float | None = field(default=None, repr=False)
    last_command_monotonic: float | None = field(default=None, repr=False)
    _latencies_s: list[float] = field(default_factory=list, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def mean_command_wall_s(self) -> float:
        """Mean host-side execution time per command."""
        if not self.commands:
            return 0.0
        return self.wall_seconds / self.commands

    @property
    def p50_command_wall_s(self) -> float:
        """Median host-side command latency."""
        return self.latency_quantile(0.5)

    @property
    def p95_command_wall_s(self) -> float:
        """95th-percentile host-side command latency."""
        return self.latency_quantile(0.95)

    @property
    def throughput_cps(self) -> float:
        """Observed commands per second over the session's active span."""
        with self._lock:
            commands = self.commands
            first = self.first_command_monotonic
            last = self.last_command_monotonic
            wall = self.wall_seconds
        if not commands:
            return 0.0
        span = (last - first) if (first is not None and last is not None) else 0.0
        if span > 0.0:
            return commands / span
        return commands / wall if wall > 0.0 else 0.0

    def latency_quantile(self, q: float) -> float:
        """Nearest-rank quantile of per-command wall latencies (0 < q <= 1)."""
        with self._lock:
            ordered = sorted(self._latencies_s)
        try:
            return nearest_rank(ordered, q)
        except ValueError as exc:  # q is the caller's: a service-layer error
            raise ServiceError(str(exc)) from exc

    def latencies(self) -> list[float]:
        """A copy of every observed per-command wall latency."""
        with self._lock:
            return list(self._latencies_s)

    def counters_snapshot(self) -> dict[str, int]:
        """The deterministic counters only — the serial-vs-concurrent
        parity surface (wall-clock fields intentionally excluded)."""
        with self._lock:
            return {
                "commands": self.commands,
                **{name: getattr(self, name) for name in DETERMINISTIC_COUNTERS},
            }

    def observe(self, envelope: OutcomeEnvelope, wall_s: float) -> None:
        """Fold one executed command into the running totals (thread-safe)."""
        now = time.monotonic()
        with self._lock:
            self.commands += 1
            for name in _SESSION_TOTALS:
                setattr(self, name, getattr(self, name) + getattr(envelope, name))
            self.simulated_seconds += envelope.duration_s
            self.wall_seconds += wall_s
            self.max_command_wall_s = max(self.max_command_wall_s, wall_s)
            self._latencies_s.append(wall_s)
            if self.first_command_monotonic is None:
                self.first_command_monotonic = now
            self.last_command_monotonic = now


def _as_trace_context(trace: TraceContext | Mapping[str, Any] | None) -> TraceContext | None:
    """Normalize a caller-supplied trace handle (capsule, wire dict, or
    nothing) — malformed wire dicts degrade to untraced, never error."""
    if trace is None or isinstance(trace, TraceContext):
        return trace
    return TraceContext.from_dict(trace)


class MultiSessionServer:
    """Hosts N independent exploration sessions behind the service protocol.

    Each session gets its own service instance from ``service_factory`` —
    its own device, kernel, caches and clock — so concurrent explorations
    cannot bleed state into each other.

    **One lane.**  Every unit of session work — a gesture command, a data
    load (``replace=True`` reloads included), an append — is submitted to
    the server's *lane*, so it lands at a well-defined point in the
    session's command order.  The lane is the only thing the ``scheduler``
    argument chooses, and where work runs is the only thing that differs:

    * ``scheduler=None`` (the default): an
      :class:`repro.core.scheduler.InlineLane` runs each item at once on the
      calling thread.  One thread serves everyone, so a session's
      think-time (the pause between a user's gestures) stalls the whole
      server, and background work (tail merges) runs inline.
    * ``scheduler=SchedulerConfig(...)`` or a worker count: a
      :class:`repro.core.scheduler.GestureScheduler` queues items per
      session and runs them on a worker pool — different sessions in
      parallel, each session strictly FIFO on one worker at a time,
      think-time parking the session without occupying a worker,
      background work on its own lane.  :meth:`submit` (a future instead
      of a result) is available only here.

    Both run the same code, so per-session deterministic counters (see
    :meth:`SessionMetrics.counters_snapshot`) are bit-identical whichever
    lane serves the same traces.

    **One plane.**  Every stat island (scheduler, index, storage, server,
    tracer, flight recorder) is registered once, here, as a
    collector on :attr:`telemetry`; ``index_stats()`` and its siblings are
    views of one collector each, and a new island reaches
    :meth:`telemetry_snapshot`, :meth:`exposition` and the sharded
    ``stats`` / ``telemetry`` verbs with one ``register_collector`` call.

    **Shared base storage.**  Columns/tables registered once via
    :meth:`load_shared_column` / :meth:`load_shared_table` are attached to
    every subsequently opened session *by reference*: N sessions over the
    same 1M-row dataset share one numpy buffer instead of copying it N
    times.  Shared objects are read-only by convention; everything mutable
    (views, sample hierarchies, result streams) stays
    private per session.  A session that ``load_column(replace=True)``-s a
    shared name merely rebinds its *private* catalog entry — other
    sessions keep the shared data.
    """

    def __init__(
        self,
        service_factory: Callable[[], ExplorationService] | None = None,
        scheduler: SchedulerConfig | int | None = None,
        shared_index: IndexManager | bool | None = None,
        tracing: Tracer | TraceConfig | bool | None = None,
    ) -> None:
        self._factory = service_factory if service_factory is not None else LocalExplorationService
        if shared_index is True:
            shared_index = IndexManager()
        elif shared_index is False:
            shared_index = None
        #: one adaptive-index manager adopted by every session that
        #: attaches the shared base storage: an index built by one
        #: session's selection shrinks every session's selections (the
        #: manager's per-column locks make this scheduler-safe)
        self._shared_index: IndexManager | None = shared_index
        self._lock = threading.RLock()
        self._services: dict[str, ExplorationService] = {}
        self._metrics: dict[str, SessionMetrics] = {}
        self._ids = itertools.count(1)
        self._shared_columns: dict[str, Column] = {}
        self._shared_tables: dict[str, Table] = {}
        self._shared_hierarchies: dict[tuple[str, str | None], SampleHierarchy] = {}
        self._shared_stores: list[StoreCatalog] = []
        if isinstance(scheduler, int):
            scheduler = SchedulerConfig(num_workers=scheduler)
        self._scheduler: GestureScheduler | None = (
            GestureScheduler(config=scheduler) if scheduler is not None else None
        )
        #: where session work runs: the worker pool, or the calling thread
        self._lane: GestureScheduler | InlineLane = self._scheduler or InlineLane()
        #: the server's telemetry plane: always present (collectors are
        #: scrape-time and free until polled), tracing opt-in via the
        #: ``tracing`` knob — a TraceConfig/True enables per-gesture span
        #: trees recorded into the tracer's flight recorder
        self.telemetry = TelemetryRegistry()
        if tracing is True:
            tracing = TraceConfig()
        if isinstance(tracing, Tracer):
            self.tracer = tracing
        elif isinstance(tracing, TraceConfig):
            self.tracer = Tracer(tracing, registry=self.telemetry)
        else:
            # even a disabled tracer registers its (all-zero) counters, so
            # an untraced deployment still scrapes a complete schema
            self.tracer = Tracer(TraceConfig(enabled=False), registry=self.telemetry)
        # every stat island, registered once: a shared manager reports
        # for itself, private per-session ones are pooled
        if self._scheduler is not None:
            self.telemetry.register_collector("scheduler", self._scheduler.stats.snapshot)
        self.telemetry.register_collector(
            "index",
            shared_index.stats_snapshot
            if shared_index is not None
            else lambda: self._pooled_sessions("index_stats"),
        )
        self.telemetry.register_collector("storage", self._storage_report)
        self.telemetry.register_collector("server", self.aggregate_metrics)
        if self.tracer.recorder is not None:
            self.telemetry.register_collector(
                "flight_recorder", self.tracer.recorder.stats_snapshot
            )

    # ------------------------------------------------------------------ #
    # serving-mode introspection
    # ------------------------------------------------------------------ #
    @property
    def concurrent(self) -> bool:
        """Whether commands execute on the scheduler's worker pool."""
        return self._scheduler is not None

    @property
    def scheduler(self) -> GestureScheduler | None:
        """The gesture scheduler (``None`` in serial mode)."""
        return self._scheduler

    def scheduler_stats(self) -> dict[str, int] | None:
        """Snapshot of the scheduler's counters (``None`` in serial mode)."""
        return self.telemetry.collect("scheduler")

    def queue_depth(self, session_id: str | None = None) -> int:
        """Commands queued or executing (one session, or server-wide)."""
        return self._lane.queue_depth(session_id)

    # ------------------------------------------------------------------ #
    # session lifecycle
    # ------------------------------------------------------------------ #
    def open_session(
        self, session_id: str | None = None, attach_shared: bool = True
    ) -> str:
        """Create a fresh, isolated session and return its identifier.

        With ``attach_shared`` (the default), every shared column/table
        already loaded on the server is registered into the new session's
        catalog by reference (local backends only — backends without a
        catalog skip the attachment).
        """
        with self._lock:
            if session_id is None:
                session_id = f"session-{next(self._ids)}"
            if session_id in self._services:
                raise ServiceError(f"session {session_id!r} is already open")
            service = self._factory()
            if attach_shared:
                self._attach_shared(service)
            self._services[session_id] = service
            self._metrics[session_id] = SessionMetrics()
        try:
            self._lane.register_session(session_id)
        except ServiceError:
            with self._lock:
                del self._services[session_id]
                del self._metrics[session_id]
            raise
        return session_id

    def close_session(self, session_id: str) -> SessionMetrics:
        """Drop a session's service and return its final metrics.

        On a worker pool the session's queued-but-unstarted commands are
        cancelled and its in-flight command (if any) is waited out first.
        """
        self.service(session_id)
        self._lane.unregister_session(session_id)
        with self._lock:
            del self._services[session_id]
            return self._metrics.pop(session_id)

    def service(self, session_id: str) -> ExplorationService:
        """The backing service of one session."""
        with self._lock:
            if session_id not in self._services:
                raise ServiceError(f"no open session named {session_id!r}")
            return self._services[session_id]

    @property
    def session_ids(self) -> list[str]:
        """Identifiers of all open sessions."""
        with self._lock:
            return sorted(self._services)

    def __len__(self) -> int:
        with self._lock:
            return len(self._services)

    def __enter__(self) -> "MultiSessionServer":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.shutdown(wait=exc_type is None)
        return False

    # ------------------------------------------------------------------ #
    # shared read-only base storage
    # ------------------------------------------------------------------ #
    def load_shared_column(self, name: str, values: Iterable) -> Column:
        """Register one column to be shared, by reference, by all sessions.

        The column is registered into each subsequently opened session's
        private catalog without copying the underlying numpy buffer.
        Shared objects are read-only by convention; sessions opened before
        the load do not see it.
        """
        column = _as_named_column(name, values)
        with self._lock:
            if name in self._shared_tables:
                raise ServiceError(f"shared name {name!r} already used by a table")
            self._shared_columns[name] = column
        return column

    def load_shared_table(self, name: str, data: Mapping[str, Iterable] | Table) -> Table:
        """Register one table to be shared, by reference, by all sessions."""
        table = data if isinstance(data, Table) else Table.from_arrays(name, data)
        with self._lock:
            if name in self._shared_columns:
                raise ServiceError(f"shared name {name!r} already used by a column")
            self._shared_tables[name] = table
        return table

    def load_shared_store(self, snapshot: StoreCatalog) -> list[str]:
        """Attach a persisted snapshot as shared, out-of-core base storage.

        Every table and standalone column in the
        :class:`repro.persist.snapshot.StoreCatalog` is registered shared:
        sessions opened afterwards explore
        :class:`repro.persist.paged_column.PagedColumn`-backed objects over
        *one* read-only mapping per column — N sessions, zero copies, and
        resident bytes bounded by the store's chunk-cache budget rather
        than the dataset size.  The snapshot's materialized sample
        hierarchies ride along: each new session adopts them (via
        :meth:`repro.storage.sample.SampleHierarchy.share`, so level lists
        stay session-private), which is the warm cold-start — no CSV
        re-ingest, no sample re-striding, first gesture served from mmap.
        Returns the shared object names.
        """
        names: list[str] = []
        for table_name in snapshot.table_names:
            self.load_shared_table(table_name, snapshot.load_table(table_name))
            names.append(table_name)
        for column_name in snapshot.column_names:
            self.load_shared_column(column_name, snapshot.load_column(column_name))
            names.append(column_name)
        with self._lock:
            for key in snapshot.iter_hierarchy_keys():
                hierarchy = snapshot.load_hierarchy(*key)
                if hierarchy is not None:
                    self._shared_hierarchies[key] = hierarchy
            # keep the catalog itself: its chunk cache is the storage
            # tier's observability surface (the "storage" collector)
            self._shared_stores.append(snapshot)
        return names

    @property
    def shared_object_names(self) -> list[str]:
        """Names of every shared column and table."""
        with self._lock:
            return sorted([*self._shared_columns, *self._shared_tables])

    @property
    def index_manager(self) -> IndexManager | None:
        """The shared adaptive-index manager (``None`` when not enabled)."""
        return self._shared_index

    def index_stats(self) -> dict[str, int] | None:
        """Adaptive-index counters and gauges for this server.

        With a shared index, the shared manager's snapshot; otherwise the
        key-wise sum over every open session's private manager (``None``
        when no session has indexing enabled).  Like the per-service
        snapshot this is load-dependent observability, kept separate from
        the :meth:`counters_report` parity surface.
        """
        return self.telemetry.collect("index")

    def _pooled_sessions(self, report: str) -> dict[str, float] | None:
        """The open sessions' private islands as one: ``merge_numeric``
        over each service's ``report()`` (``None`` when none has one)."""
        with self._lock:
            services = list(self._services.values())
        reports = [
            method() for service in services if callable(method := getattr(service, report, None))
        ]
        reports = [found for found in reports if found is not None]
        return merge_numeric(reports) if reports else None

    def _storage_report(self) -> dict[str, float] | None:
        with self._lock:
            caches = [catalog.store.cache for catalog in self._shared_stores]
        if not caches:
            return None
        return merge_numeric([cache.stats_snapshot() for cache in caches])

    # ------------------------------------------------------------------ #
    # telemetry: traces and the merged snapshot
    # ------------------------------------------------------------------ #
    @property
    def flight_recorder(self) -> FlightRecorder | None:
        """The tracer's flight recorder (``None`` with tracing off)."""
        return self.tracer.recorder

    def drain_traces(self) -> list[Trace]:
        """Drain the flight recorder's completed traces (oldest first)."""
        recorder = self.tracer.recorder
        return recorder.drain() if recorder is not None else []

    def drain_slow_traces(self) -> list[Trace]:
        """Drain the slow-gesture log (oldest first)."""
        recorder = self.tracer.recorder
        return recorder.drain_slow() if recorder is not None else []

    def telemetry_snapshot(self) -> dict[str, float]:
        """One merged numeric snapshot of every registered island."""
        return self.telemetry.snapshot()

    def exposition(self) -> str:
        """The merged snapshot in Prometheus text exposition format."""
        return self.telemetry.exposition()

    def _attach_shared(self, service: ExplorationService) -> None:
        """Register shared objects into a fresh service's private catalog."""
        catalog = getattr(service, "catalog", None)
        if catalog is None:
            return  # a remote device holds no base data: nothing to attach into
        for column in self._shared_columns.values():
            catalog.register_column(column)
        for table in self._shared_tables.values():
            catalog.register_table(table)
        for (object_name, column_name), hierarchy in self._shared_hierarchies.items():
            # share(): same materialized sample columns, private level list
            catalog.adopt_hierarchy(object_name, column_name, hierarchy.share())
        if self._shared_index is not None:
            adopt = getattr(service, "adopt_index_manager", None)
            if adopt is not None:
                adopt(self._shared_index)
    # ------------------------------------------------------------------ #
    # data loading and execution
    # ------------------------------------------------------------------ #
    def load_column(
        self, session_id: str, name: str, values: Iterable, replace: bool = False
    ) -> Column:
        """Load a column into one session's backend (session-private).

        The load is submitted to the session's lane like any command, so
        a mid-traffic ``replace=True`` reload lands *after* every
        previously submitted command and *before* every later one — no
        update can be lost between interleaved gestures.
        """

        def load() -> Column:
            service = self.service(session_id)
            if replace:
                if not _accepts_replace(service.load_column):
                    raise ServiceError(
                        f"the {getattr(service, 'backend', '?')!r} backend does "
                        "not support replace-reloads via load_column()"
                    )
                return service.load_column(name, values, replace=True)
            return service.load_column(name, values)

        return self._lane.submit(session_id, load).result()

    def load_table(
        self,
        session_id: str,
        name: str,
        data: Mapping[str, Iterable] | Table,
        replace: bool = False,
    ) -> Table:
        """Load a table into one session's backend (local backends only)."""

        def load() -> Table:
            service = self.service(session_id)
            loader = getattr(service, "load_table", None)
            if loader is None:
                raise ServiceError(
                    f"the {getattr(service, 'backend', '?')!r} backend has no load_table"
                )
            if replace:
                return loader(name, data, replace=True)
            return loader(name, data)

        return self._lane.submit(session_id, load).result()

    def append_rows(
        self,
        session_id: str,
        object_name: str,
        values: Iterable | None = None,
        columns: Mapping[str, Iterable] | None = None,
        trace: TraceContext | Mapping[str, Any] | None = None,
    ) -> int:
        """Append rows to one session's loaded object; returns its new length.

        A convenience over :meth:`execute` of an
        :class:`repro.core.commands.AppendCommand`: same place in the
        session's command order, same background tail merge as an append
        arriving in a script, a trace replay or over the wire.
        """
        command = AppendCommand.of(object_name, values, columns)
        return self.execute(session_id, command, trace=trace).payload["num_rows"]

    def _merge_tails(
        self, session_id: str, object_name: str, ctx: TraceContext | None = None
    ) -> int:
        """Fold appended index tails in; tolerant of a just-closed session.

        ``ctx`` is the append's own span context: the merge records its
        span as a second partial under the same trace id, stitched back
        under the append span by :func:`repro.obs.trace.stitch_traces`.
        ``None`` (the append wasn't sampled) merges untraced too.
        """
        if ctx is not None:
            with self.tracer.gesture(
                "merge_tails", ctx=ctx, lane="background", object=object_name
            ):
                return self._merge_tails(session_id, object_name)
        if self._shared_index is not None:
            return self._shared_index.merge_tails(object_name)
        try:
            service = self.service(session_id)
        except ServiceError:
            return 0  # session closed before the background merge ran
        merger = getattr(service, "merge_index_tails", None)
        return merger(object_name) if callable(merger) else 0

    def _execute_direct(
        self,
        session_id: str,
        command: GestureCommand,
        trace: TraceContext | None = None,
        queued_monotonic: float | None = None,
    ) -> OutcomeEnvelope:
        """Execute one command on this thread, recording its latency (and,
        when sampled, its span tree — the tracer activates the trace on the
        thread the lane runs the work on, so the kernel's ambient child
        spans attach to the right gesture).

        The one place that knows what follows an append: its tail merge goes
        to the background lane — a pool keeps serving gestures, which
        tail-scan until it lands; inline it runs right after the append."""
        service = self.service(session_id)
        metrics = self.metrics(session_id)
        started = time.perf_counter()
        queue_wait_s = (started - queued_monotonic) if queued_monotonic is not None else None
        with self.tracer.gesture(
            command.kind, ctx=trace, queue_wait_s=queue_wait_s, session=session_id
        ) as root:
            envelope = service.execute(command)
            # captured before the root closes so a background merge
            # attaches *under* the append span, not beside it
            merge_ctx = root.context() if root is not None else None
        metrics.observe(envelope, time.perf_counter() - started)
        if isinstance(command, AppendCommand):
            self._lane.submit_background(
                lambda: self._merge_tails(session_id, command.object_name, merge_ctx)
            )
        return envelope

    def execute(
        self,
        session_id: str,
        command: GestureCommand,
        trace: TraceContext | Mapping[str, Any] | None = None,
    ) -> OutcomeEnvelope:
        """Execute one command in one session and wait for its outcome.

        Submits to the session's lane and blocks for the result, so it
        composes correctly with earlier ``submit`` calls (FIFO order is
        preserved).  ``trace`` optionally continues a distributed trace (a
        :class:`repro.obs.trace.TraceContext` or its wire dict).
        """
        return self.submit(session_id, command, trace=trace).result()

    def submit(
        self,
        session_id: str,
        command: GestureCommand,
        think_s: float = 0.0,
        trace: TraceContext | Mapping[str, Any] | None = None,
    ) -> Future:
        """Put one command on the session's lane; returns its future.

        ``think_s`` is the user's pause before this command (enforced from
        the completion of the session's previous command).  Inline, the
        command runs now and the future comes back resolved.  Where a
        queue exists the submit time is captured here, so a sampled trace
        records the scheduler ``queue_wait`` as its first child span.
        """
        ctx = _as_trace_context(trace)
        queued = time.perf_counter() if self.concurrent and self.tracer.enabled else None
        return self._lane.submit(
            session_id,
            lambda: self._execute_direct(
                session_id, command, trace=ctx, queued_monotonic=queued
            ),
            think_s,
        )

    def submit_script(
        self,
        session_id: str,
        script: GestureScript,
        think_s: float = 0.0,
        trace: TraceContext | Mapping[str, Any] | None = None,
    ):
        """Queue a whole script; returns one future per command.

        One ``trace`` context covers the whole script: each command's
        gesture span joins the same distributed trace, which is how a
        multi-command script shows up as one tree instead of N roots.
        """
        return [
            self.submit(session_id, command, think_s=think_s, trace=trace)
            for command in script
        ]

    def run(self, session_id: str, script: GestureScript) -> list[OutcomeEnvelope]:
        """Execute a whole script in one session."""
        return [self.execute(session_id, command) for command in script]

    def replay_traces(
        self, traces: Mapping[str, Sequence[TimedCommand]]
    ) -> dict[str, list[OutcomeEnvelope]]:
        """Drive a multi-user trace set to completion; envelopes per session.

        Commands are submitted to the lane round-robin across sessions —
        each session's first, then each session's second, … — with their
        think-times.  Inline that is the order they are served in, every
        think-time slept out on the calling thread; on a worker pool
        per-session FIFO makes the submission order irrelevant and
        think-times overlap across sessions.  Same workload, same
        counters, which is what lets a benchmark compare the two.
        """
        futures: dict[str, list[Future]] = {sid: [] for sid in traces}
        for step in itertools.zip_longest(*traces.values()):
            for sid, timed in zip(traces, step):
                if timed is not None:
                    futures[sid].append(
                        self.submit(sid, timed.command, think_s=timed.think_s)
                    )
        return {sid: [f.result() for f in pending] for sid, pending in futures.items()}

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until every queued command has executed."""
        return self._lane.drain(timeout=timeout)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the lane (nothing to stop when it runs inline).

        With ``wait`` a worker pool drains every queue first; otherwise
        queued commands are cancelled and only in-flight ones complete.
        """
        self._lane.shutdown(wait=wait, cancel_pending=not wait)

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def metrics(self, session_id: str) -> SessionMetrics:
        """Per-session metrics for one open session."""
        with self._lock:
            if session_id not in self._metrics:
                raise ServiceError(f"no open session named {session_id!r}")
            return self._metrics[session_id]

    def counters_report(self) -> dict[str, dict[str, int]]:
        """Per-session deterministic counters for every open session.

        The serving tier's parity surface: a sharded worker answers the
        ``stats`` protocol verb with this, and the front door merges the
        reports across workers — the counters must match a serial replay
        of the same traces bit for bit.
        """
        with self._lock:
            metrics = dict(self._metrics)
        return {sid: m.counters_snapshot() for sid, m in sorted(metrics.items())}

    def aggregate_metrics(self) -> dict[str, float]:
        """Totals, latency percentiles and throughput across open sessions."""
        with self._lock:
            sessions = list(self._metrics.values())
        pooled: list[float] = []
        firsts: list[float] = []
        lasts: list[float] = []
        for m in sessions:
            pooled.extend(m.latencies())
            if m.first_command_monotonic is not None:
                firsts.append(m.first_command_monotonic)
            if m.last_command_monotonic is not None:
                lasts.append(m.last_command_monotonic)
        totals = {
            "sessions": float(len(sessions)),
            **{
                name: float(sum(getattr(m, name) for m in sessions))
                for name in ("commands", *_SESSION_TOTALS, "wall_seconds")
            },
            "max_command_wall_s": max(
                (m.max_command_wall_s for m in sessions), default=0.0
            ),
            "queue_depth": float(self.queue_depth()),
        }
        total_commands = totals["commands"]
        totals["mean_command_wall_s"] = (
            totals["wall_seconds"] / total_commands if total_commands else 0.0
        )
        pooled.sort()
        totals["p50_command_wall_s"] = nearest_rank(pooled, 0.5)
        totals["p95_command_wall_s"] = nearest_rank(pooled, 0.95)
        span = (max(lasts) - min(firsts)) if firsts and lasts else 0.0
        totals["throughput_cps"] = total_commands / span if span > 0.0 else 0.0
        return totals
