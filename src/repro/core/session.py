"""The exploration session: the public facade of the dbTouch reproduction.

An :class:`ExplorationSession` mirrors how a person uses the prototype:
load some data, put objects on the screen, pick a query action, and then
slide / tap / zoom / rotate.  In the paper's terms, *a query is a session
of one or more continuous gestures*.

Since the service redesign the session is a thin facade over an
:class:`repro.service.ExplorationService`: every imperative method builds a
serializable :class:`repro.core.commands.GestureCommand` and calls
``execute`` on the backing service (an in-process
:class:`repro.service.LocalExplorationService` by default — pass
``service=`` to explore against a remote backend instead).  Because the
session speaks commands, any interactive run can be recorded with
:meth:`record` and replayed later as a :class:`GestureScript` on any
backend.  The session also keeps a running :class:`SessionSummary`,
updated per gesture, and the last outcome: what it holds does not grow
with the number of gestures, and :meth:`summary` is O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from repro.core.actions import (
    QueryAction,
    aggregate_action,
    scan_action,
    summary_action,
)
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
from repro.core.kernel import DETERMINISTIC_COUNTERS, GestureOutcome, KernelConfig
from repro.core.schema_gestures import SchemaGestureOutcome
from repro.errors import QueryError
from repro.service import (
    ExplorationService,
    LocalExplorationService,
    OutcomeEnvelope,
    _accepts_replace,
)
from repro.storage.catalog import ObjectInfo
from repro.storage.column import Column
from repro.storage.table import Table
from repro.touchio.device import DeviceProfile, IPAD1
from repro.touchio.synthesizer import SlideSegment
from repro.touchio.views import View


@dataclass
class SessionSummary:
    """Aggregate view of everything a session did so far."""

    gestures: int = 0
    entries_returned: int = 0
    tuples_examined: int = 0
    max_touch_latency_s: float = 0.0


class ExplorationSession:
    """High-level, gesture-oriented interface to an exploration backend.

    Parameters
    ----------
    profile:
        The simulated device profile (defaults to the paper's iPad 1).
    config:
        Kernel configuration; the defaults enable samples, batch slides
        and the adaptive index.
    jitter_cm:
        Positional noise added to synthesized gestures, for more
        human-like touch streams (0 = perfectly straight finger).
    service:
        The backend executing the session's commands.  ``None`` (the
        default) creates a private in-process
        :class:`repro.service.LocalExplorationService` from the other
        parameters; pass a :class:`repro.remote.RemoteExplorationService`
        to run the same gestures against a simulated server deployment.
    """

    def __init__(
        self,
        profile: DeviceProfile = IPAD1,
        config: KernelConfig | None = None,
        jitter_cm: float = 0.0,
        seed: int = 11,
        service: ExplorationService | None = None,
    ) -> None:
        self._owns_service = service is None
        if service is None:
            service = LocalExplorationService(
                profile=profile, config=config, jitter_cm=jitter_cm, seed=seed
            )
        self._service = service
        self._last: GestureOutcome | None = None
        self._summary = SessionSummary()
        self._recording: GestureScript | None = None

    # ------------------------------------------------------------------ #
    # the backing service
    # ------------------------------------------------------------------ #
    @property
    def service(self) -> ExplorationService:
        """The backend executing this session's commands."""
        return self._service

    @property
    def catalog(self):
        """The backend's catalog (local backends only)."""
        return self._service.catalog

    @property
    def device(self):
        """The backend's simulated touch device."""
        return self._service.device

    @property
    def kernel(self):
        """The backend's dbTouch kernel (local backends only)."""
        return self._service.kernel

    @property
    def synthesizer(self):
        """The backend's gesture synthesizer."""
        return self._service.synthesizer

    @property
    def schema_gestures(self):
        """The backend's schema-gesture executor (local backends only)."""
        return self._service.schema_gestures

    def _execute(self, command: GestureCommand) -> OutcomeEnvelope:
        """Execute, then record and account one command.

        Recording happens only after the backend accepted the command, so a
        failed gesture (typo'd view name, bad geometry) never poisons the
        script for replay.
        """
        envelope = self._service.execute(command)
        if self._recording is not None:
            self._recording.append(command)
        if isinstance(envelope.payload, GestureOutcome):
            self._record(envelope.payload)
        return envelope

    # ------------------------------------------------------------------ #
    # recording and replay
    # ------------------------------------------------------------------ #
    def record(self, name: str = "") -> GestureScript:
        """Start recording: every subsequent command lands in the returned script.

        The script is live — it grows as the session executes commands —
        and survives the session via ``script.to_json()``.  Data loading is
        host-side and is *not* recorded; replaying a script requires the
        referenced columns/tables to be loaded on the target backend.
        """
        self._recording = GestureScript(name=name)
        return self._recording

    @property
    def recording(self) -> GestureScript | None:
        """The live script being recorded, or ``None``."""
        return self._recording

    def stop_recording(self) -> GestureScript | None:
        """Stop recording and return the finished script."""
        script, self._recording = self._recording, None
        return script

    def run(self, script: GestureScript) -> list[OutcomeEnvelope]:
        """Replay a script through this session (outcomes land in its summary)."""
        commands = list(script)
        if script is self._recording:
            # replaying the live recording: suspend recording so the replayed
            # commands are not appended back into the script being iterated
            saved, self._recording = self._recording, None
            try:
                return [self._execute(command) for command in commands]
            finally:
                self._recording = saved
        return [self._execute(command) for command in commands]

    # ------------------------------------------------------------------ #
    # session lifecycle
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Recycle the session: fresh backend state, empty summary.

        Long-running drivers can reuse one session object for many
        independent explorations without leaking catalog or view state.
        The backing service is reset only when the session created it; an
        injected (possibly shared) service belongs to its owner, so only
        the session-side state is discarded in that case.
        """
        if self._owns_service:
            self._service.reset()
        self._last = None
        self._summary = SessionSummary()
        self._recording = None

    def __enter__(self) -> "ExplorationSession":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.reset()
        return False

    # ------------------------------------------------------------------ #
    # loading and showing data
    # ------------------------------------------------------------------ #
    def _replace_loader(self, method_name: str):
        """The backend's loader if it supports ``replace=``, else raise."""
        loader = getattr(self._service, method_name, None)
        if loader is None or not _accepts_replace(loader):
            raise QueryError(
                f"the {getattr(self._service, 'backend', 'backing')!r} backend "
                f"does not support replace-reloads via {method_name}()"
            )
        return loader

    def load_column(self, name: str, values: Iterable, replace: bool = False) -> Column:
        """Register a standalone column on the backend (host-side, not recorded).

        ``replace`` reloads an already-registered column: shown views are
        re-bound to the new data (local backends only).
        """
        if replace:
            return self._replace_loader("load_column")(name, values, replace=True)
        return self._service.load_column(name, values)

    def load_table(
        self, name: str, data: Mapping[str, Iterable] | Table, replace: bool = False
    ) -> Table:
        """Register a table on the backend (from arrays or an existing Table)."""
        if replace:
            return self._replace_loader("load_table")(name, data, replace=True)
        return self._service.load_table(name, data)

    def append(
        self,
        object_name: str,
        values: Iterable | None = None,
        columns: Mapping[str, Iterable] | None = None,
    ) -> int:
        """Append rows to an already-loaded object, mid-exploration.

        Unlike :meth:`load_column`, appending *is* part of the command
        vocabulary (:class:`repro.core.commands.AppendCommand`), so it is
        recorded and replays at the same position in the script — which
        is what lets a replay reproduce an exploration over live,
        incrementally arriving data.  Shown views stay live: indexes
        keep answering for their prefix and tail-scan the appended rows
        until the backend merges them in.  Returns the object's new row count.
        """
        envelope = self._execute(AppendCommand.of(object_name, values, columns))
        return int(envelope.payload["num_rows"])

    def show_column(
        self,
        object_name: str,
        column_name: str | None = None,
        height_cm: float = 10.0,
        width_cm: float = 2.0,
        x: float = 0.0,
        y: float = 0.0,
        view_name: str | None = None,
    ) -> View:
        """Place a column object on the screen and return its view."""
        envelope = self._execute(
            ShowColumn(
                object_name=object_name,
                column_name=column_name,
                height_cm=height_cm,
                width_cm=width_cm,
                x=x,
                y=y,
                view_name=view_name,
            )
        )
        return envelope.payload

    def show_table(
        self,
        table_name: str,
        height_cm: float = 10.0,
        width_cm: float = 8.0,
        x: float = 0.0,
        y: float = 0.0,
        view_name: str | None = None,
    ) -> View:
        """Place a table object on the screen and return its view."""
        envelope = self._execute(
            ShowTable(
                table_name=table_name,
                height_cm=height_cm,
                width_cm=width_cm,
                x=x,
                y=y,
                view_name=view_name,
            )
        )
        return envelope.payload

    def glance(self) -> list[ObjectInfo]:
        """What the user sees by glancing at the screen: object descriptions."""
        return self.catalog.describe_all()

    # ------------------------------------------------------------------ #
    # choosing query actions
    # ------------------------------------------------------------------ #
    def choose_action(self, view: View | str, action: QueryAction) -> None:
        """Attach a query action to a shown object."""
        self._execute(ChooseAction(view=self._view_name(view), action=action))

    def choose_scan(self, view: View | str) -> None:
        """Shortcut: attach a plain-scan action."""
        self.choose_action(view, scan_action())

    def choose_aggregate(self, view: View | str, aggregate: str = "avg") -> None:
        """Shortcut: attach a running-aggregate action."""
        self.choose_action(view, aggregate_action(aggregate))

    def choose_summary(self, view: View | str, k: int = 10, aggregate: str = "avg") -> None:
        """Shortcut: attach an interactive-summary action (default k=10/avg,
        the configuration the paper's evaluation uses)."""
        self.choose_action(view, summary_action(k=k, aggregate=aggregate))

    # ------------------------------------------------------------------ #
    # bulk range selection
    # ------------------------------------------------------------------ #
    def select_where(self, view: View | str, predicate=None):
        """Whole-object range selection over the object shown in ``view``.

        Delegates to the backend's ``select_where`` extra (local backends
        only): the adaptive indexing tier — value-sorted runs, run 0
        built by the first selection on a column — answers range
        predicates from its sorted runs or zonemap-pruned chunks instead of
        full scans.  Not a gesture, so it is neither recorded nor counted in
        :meth:`summary`.  Returns a
        :class:`repro.indexing.manager.RangeSelection`.
        """
        select = getattr(self._service, "select_where", None)
        if select is None:
            raise QueryError(
                f"the {getattr(self._service, 'backend', '?')!r} backend does "
                "not support bulk select_where"
            )
        return select(self._view_name(view), predicate)

    # ------------------------------------------------------------------ #
    # gestures
    # ------------------------------------------------------------------ #
    def _view_name(self, view: View | str) -> str:
        return view.name if isinstance(view, View) else view

    def _record(self, outcome: GestureOutcome) -> GestureOutcome:
        self._last = outcome
        summary = self._summary
        summary.gestures += 1
        for name in DETERMINISTIC_COUNTERS:
            setattr(summary, name, getattr(summary, name) + getattr(outcome, name))
        summary.max_touch_latency_s = max(
            summary.max_touch_latency_s, outcome.max_touch_latency_s
        )
        return outcome

    def slide(
        self,
        view: View | str,
        duration: float = 1.0,
        start_fraction: float = 0.0,
        end_fraction: float = 1.0,
        axis: str | None = None,
        cross_fraction: float = 0.5,
    ) -> GestureOutcome:
        """Slide a single finger over an object for ``duration`` seconds."""
        envelope = self._execute(
            Slide(
                view=self._view_name(view),
                duration=duration,
                start_fraction=start_fraction,
                end_fraction=end_fraction,
                axis=axis,
                cross_fraction=cross_fraction,
            )
        )
        return envelope.payload

    def slide_path(
        self,
        view: View | str,
        segments: Sequence[SlideSegment],
        axis: str | None = None,
        cross_fraction: float = 0.5,
    ) -> GestureOutcome:
        """Slide along a multi-leg path (speed changes, reversals, pauses)."""
        envelope = self._execute(
            SlidePath(
                view=self._view_name(view),
                segments=tuple(segments),
                axis=axis,
                cross_fraction=cross_fraction,
            )
        )
        return envelope.payload

    def tap(self, view: View | str, fraction: float = 0.5) -> GestureOutcome:
        """Tap an object once to reveal a single value (or tuple)."""
        envelope = self._execute(Tap(view=self._view_name(view), fraction=fraction))
        return envelope.payload

    def zoom_in(self, view: View | str, duration: float = 0.4) -> GestureOutcome:
        """Two-finger zoom-in: the object grows, access becomes finer-grained."""
        envelope = self._execute(ZoomIn(view=self._view_name(view), duration=duration))
        return envelope.payload

    def zoom_out(self, view: View | str, duration: float = 0.4) -> GestureOutcome:
        """Two-finger zoom-out: the object shrinks, access becomes coarser."""
        envelope = self._execute(ZoomOut(view=self._view_name(view), duration=duration))
        return envelope.payload

    def rotate(self, view: View | str, duration: float = 0.5) -> GestureOutcome:
        """Two-finger rotate: switch the object's physical layout."""
        envelope = self._execute(Rotate(view=self._view_name(view), duration=duration))
        return envelope.payload

    # ------------------------------------------------------------------ #
    # schema and layout gestures (Section 2.8)
    # ------------------------------------------------------------------ #
    def pan(self, view: View | str, dx_cm: float, dy_cm: float) -> SchemaGestureOutcome:
        """Drag an object to a different position on the screen."""
        envelope = self._execute(
            Pan(view=self._view_name(view), dx_cm=dx_cm, dy_cm=dy_cm)
        )
        return envelope.payload

    def drag_column_out(
        self,
        table_view: View | str,
        column_name: str,
        new_object_name: str | None = None,
        x: float = 0.0,
        y: float = 0.0,
        height_cm: float = 10.0,
    ) -> SchemaGestureOutcome:
        """Drag a column out of a fat table into its own smaller object."""
        envelope = self._execute(
            DragColumnOut(
                table_view=self._view_name(table_view),
                column_name=column_name,
                new_object_name=new_object_name,
                x=x,
                y=y,
                height_cm=height_cm,
            )
        )
        return envelope.payload

    def group_columns(
        self,
        column_object_names: Sequence[str],
        table_name: str,
        x: float = 0.0,
        y: float = 0.0,
        height_cm: float = 10.0,
        width_cm: float = 8.0,
    ) -> SchemaGestureOutcome:
        """Drop standalone columns into a table placeholder (drag-and-drop grouping)."""
        envelope = self._execute(
            GroupColumns(
                column_object_names=tuple(column_object_names),
                table_name=table_name,
                x=x,
                y=y,
                height_cm=height_cm,
                width_cm=width_cm,
            )
        )
        return envelope.payload

    def ungroup_table(
        self, table_view: View | str, height_cm: float = 10.0
    ) -> SchemaGestureOutcome:
        """Split a table object into one standalone object per attribute."""
        envelope = self._execute(
            UngroupTable(table_view=self._view_name(table_view), height_cm=height_cm)
        )
        return envelope.payload

    # ------------------------------------------------------------------ #
    # session-level reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> SessionSummary:
        """Aggregate statistics over every gesture executed so far.

        The summary is maintained incrementally as gestures execute, so
        this is O(1) in the number of gestures.
        """
        return replace(self._summary)

    def last_outcome(self) -> GestureOutcome:
        """The most recent gesture outcome."""
        if self._last is None:
            raise QueryError("no gestures have been executed in this session yet")
        return self._last
