"""First-class gesture commands: explorations as data.

The paper frames a query as *a session of one or more continuous gestures*.
This module turns that framing into a concrete, serializable protocol: every
gesture (and the screen/action setup around it) is a small frozen dataclass,
and a :class:`GestureScript` is an ordered list of such commands with a JSON
round-trip.  Because a script is plain data, the same exploration can be

* executed in-process (``repro.service.LocalExplorationService``),
* shipped over a simulated network link to a server that holds the base
  data (``repro.remote.RemoteExplorationService``), or
* recorded from an interactive :class:`repro.ExplorationSession` and
  replayed later, byte-for-byte.

Commands carry only names and geometry — never live object references —
which is what makes them transportable between backends.  The one command
that also carries data values is :class:`AppendCommand`: ingestion *is*
data movement, so the appended rows travel inside the command itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Iterable, Iterator, Mapping, Sequence

from repro.core.actions import ActionKind, QueryAction
from repro.engine.aggregate import AggregateKind
from repro.engine.filter import Comparison, Predicate
from repro.errors import CommandError
from repro.touchio.synthesizer import SlideSegment

# --------------------------------------------------------------------- #
# QueryAction / Predicate (de)serialization
# --------------------------------------------------------------------- #


def predicate_to_dict(predicate: Predicate) -> dict[str, Any]:
    """Encode a predicate as plain JSON-compatible data."""
    return {
        "comparison": predicate.comparison.value,
        "operand": predicate.operand,
        "upper": predicate.upper,
    }


def predicate_from_dict(payload: dict[str, Any]) -> Predicate:
    """Rebuild a predicate from :func:`predicate_to_dict` output."""
    if not isinstance(payload, dict):
        raise CommandError(f"predicate payload must be an object, got {payload!r}")
    try:
        comparison = Comparison(payload["comparison"])
        return Predicate(comparison, float(payload["operand"]), payload.get("upper"))
    except (KeyError, ValueError, TypeError) as exc:
        raise CommandError(f"malformed predicate payload {payload!r}") from exc


def action_to_dict(action: QueryAction) -> dict[str, Any]:
    """Encode a query action as plain JSON-compatible data."""
    return {
        "kind": action.kind.value,
        "aggregate": action.aggregate.value,
        "summary_k": action.summary_k,
        "predicate": None if action.predicate is None else predicate_to_dict(action.predicate),
        "group_key_attribute": action.group_key_attribute,
        "measure_attribute": action.measure_attribute,
        "join_partner": action.join_partner,
        "where_attribute": action.where_attribute,
        "select_attributes": list(action.select_attributes),
    }


def action_from_dict(payload: dict[str, Any]) -> QueryAction:
    """Rebuild a query action from :func:`action_to_dict` output."""
    predicate = payload.get("predicate")
    try:
        kind = ActionKind(payload["kind"])
        aggregate = AggregateKind(payload.get("aggregate", AggregateKind.AVG.value))
        return QueryAction(
            kind=kind,
            aggregate=aggregate,
            summary_k=int(payload.get("summary_k", 0)),
            predicate=None if predicate is None else predicate_from_dict(predicate),
            group_key_attribute=payload.get("group_key_attribute"),
            measure_attribute=payload.get("measure_attribute"),
            join_partner=payload.get("join_partner"),
            where_attribute=payload.get("where_attribute"),
            select_attributes=tuple(payload.get("select_attributes", ())),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise CommandError(f"malformed action payload {payload!r}") from exc


# --------------------------------------------------------------------- #
# the command hierarchy
# --------------------------------------------------------------------- #

_COMMAND_TYPES: dict[str, type["GestureCommand"]] = {}


@dataclass(frozen=True)
class GestureCommand:
    """Base class of the gesture-command vocabulary.

    Every concrete command is a frozen dataclass with a unique ``kind``
    string; :meth:`to_dict` / :meth:`from_dict` give each command a stable
    wire format built only from JSON-compatible scalars and lists.
    """

    kind: ClassVar[str] = ""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls.kind:
            existing = _COMMAND_TYPES.get(cls.kind)
            if existing is not None and existing is not cls:
                raise CommandError(f"duplicate command kind {cls.kind!r}")
            _COMMAND_TYPES[cls.kind] = cls

    def to_dict(self) -> dict[str, Any]:
        """Encode the command (including its ``kind`` tag) as plain data."""
        payload: dict[str, Any] = {"kind": self.kind}
        for spec in fields(self):
            payload[spec.name] = encode_value(getattr(self, spec.name))
        return payload

    @staticmethod
    def from_dict(payload: dict[str, Any]) -> "GestureCommand":
        """Rebuild any registered command from its :meth:`to_dict` output.

        Every malformed shape — non-dict payloads and garbage field values
        included — raises :class:`repro.errors.CommandError`, never a bare
        ``TypeError``/``AttributeError``: this method sits on the wire
        path, where decode failures must stay typed protocol errors.
        """
        if not isinstance(payload, dict):
            raise CommandError(
                f"command payload must be an object, got {type(payload).__name__}"
            )
        kind = payload.get("kind")
        cls = _COMMAND_TYPES.get(kind)
        if cls is None:
            raise CommandError(f"unknown gesture-command kind {kind!r}")
        kwargs: dict[str, Any] = {}
        for spec in fields(cls):
            if spec.name in payload:
                kwargs[spec.name] = _decode_field(spec.name, payload[spec.name])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise CommandError(f"malformed {kind!r} command payload: {exc}") from exc


def encode_value(value: Any) -> Any:
    """One command field (or data value) as plain JSON-compatible data."""
    if isinstance(value, QueryAction):
        return action_to_dict(value)
    if isinstance(value, SlideSegment):
        return {
            "start_fraction": value.start_fraction,
            "end_fraction": value.end_fraction,
            "duration": value.duration,
            "pause_after": value.pause_after,
        }
    if isinstance(value, (tuple, list)):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        return {key: encode_value(item) for key, item in value.items()}
    item = getattr(value, "item", None)
    if item is not None and not isinstance(value, (int, float, str, bool)):
        return item()  # numpy scalar -> exact Python scalar
    return value


def _decode_field(name: str, value: Any) -> Any:
    if name == "action":
        if not isinstance(value, dict):
            raise CommandError(f"field 'action' must be an object, got {value!r}")
        return action_from_dict(value)
    if name == "segments":
        if not isinstance(value, list) or not all(isinstance(s, dict) for s in value):
            raise CommandError(f"field 'segments' must be a list of objects, got {value!r}")
        try:
            return tuple(SlideSegment(**segment) for segment in value)
        except TypeError as exc:
            raise CommandError(f"malformed slide segment: {exc}") from exc
    if name == "columns" and value is not None:
        if not isinstance(value, dict) or not all(
            isinstance(rows, list) for rows in value.values()
        ):
            raise CommandError(
                f"field 'columns' must map attribute names to lists, got {value!r}"
            )
        return {key: tuple(rows) for key, rows in value.items()}
    if name == "values" and value is not None and not isinstance(value, list):
        raise CommandError(f"field 'values' must be a list, got {value!r}")
    if isinstance(value, list):
        return tuple(value)
    return value


@dataclass(frozen=True)
class ShowColumn(GestureCommand):
    """Place a column-shaped data object on the screen."""

    kind: ClassVar[str] = "show-column"
    object_name: str = ""
    column_name: str | None = None
    height_cm: float = 10.0
    width_cm: float = 2.0
    x: float = 0.0
    y: float = 0.0
    view_name: str | None = None


@dataclass(frozen=True)
class ShowTable(GestureCommand):
    """Place a fat-rectangle table object on the screen."""

    kind: ClassVar[str] = "show-table"
    table_name: str = ""
    height_cm: float = 10.0
    width_cm: float = 8.0
    x: float = 0.0
    y: float = 0.0
    view_name: str | None = None


@dataclass(frozen=True)
class ChooseAction(GestureCommand):
    """Attach a query action to a shown data object."""

    kind: ClassVar[str] = "choose-action"
    view: str = ""
    action: QueryAction = field(default_factory=QueryAction)


@dataclass(frozen=True)
class Slide(GestureCommand):
    """Slide a single finger over an object for ``duration`` seconds."""

    kind: ClassVar[str] = "slide"
    view: str = ""
    duration: float = 1.0
    start_fraction: float = 0.0
    end_fraction: float = 1.0
    axis: str | None = None
    cross_fraction: float = 0.5


@dataclass(frozen=True)
class SlidePath(GestureCommand):
    """Slide along a multi-leg path (speed changes, reversals, pauses)."""

    kind: ClassVar[str] = "slide-path"
    view: str = ""
    segments: tuple[SlideSegment, ...] = ()
    axis: str | None = None
    cross_fraction: float = 0.5


@dataclass(frozen=True)
class Tap(GestureCommand):
    """Tap an object once to reveal a single value (or tuple)."""

    kind: ClassVar[str] = "tap"
    view: str = ""
    fraction: float = 0.5


@dataclass(frozen=True)
class ZoomIn(GestureCommand):
    """Two-finger zoom-in: the object grows, access becomes finer-grained."""

    kind: ClassVar[str] = "zoom-in"
    view: str = ""
    duration: float = 0.4


@dataclass(frozen=True)
class ZoomOut(GestureCommand):
    """Two-finger zoom-out: the object shrinks, access becomes coarser."""

    kind: ClassVar[str] = "zoom-out"
    view: str = ""
    duration: float = 0.4


@dataclass(frozen=True)
class Rotate(GestureCommand):
    """Two-finger rotate: switch the object's physical layout."""

    kind: ClassVar[str] = "rotate"
    view: str = ""
    duration: float = 0.5


@dataclass(frozen=True)
class Pan(GestureCommand):
    """Drag an object to a different position on the screen."""

    kind: ClassVar[str] = "pan"
    view: str = ""
    dx_cm: float = 0.0
    dy_cm: float = 0.0


@dataclass(frozen=True)
class DragColumnOut(GestureCommand):
    """Drag a column out of a fat table into its own smaller object."""

    kind: ClassVar[str] = "drag-column-out"
    table_view: str = ""
    column_name: str = ""
    new_object_name: str | None = None
    x: float = 0.0
    y: float = 0.0
    height_cm: float = 10.0


@dataclass(frozen=True)
class GroupColumns(GestureCommand):
    """Drop standalone columns into a table placeholder."""

    kind: ClassVar[str] = "group-columns"
    column_object_names: tuple[str, ...] = ()
    table_name: str = ""
    x: float = 0.0
    y: float = 0.0
    height_cm: float = 10.0
    width_cm: float = 8.0


@dataclass(frozen=True)
class UngroupTable(GestureCommand):
    """Split a table object into one standalone object per attribute."""

    kind: ClassVar[str] = "ungroup-table"
    table_view: str = ""
    height_cm: float = 10.0


@dataclass(frozen=True)
class AppendCommand(GestureCommand):
    """Append new rows to an already-loaded object, mid-exploration.

    The one command that ships data values (see the module docstring).
    Standalone columns take ``values``; tables take ``columns`` mapping
    *every* attribute name to an equal-length row batch — the storage
    tier appends all-or-nothing, so a partial schema is refused before
    any column grows.  Values travel as JSON numbers, which restricts
    wire-borne appends to finite numerics.  On a serving host
    (:class:`repro.service.MultiSessionServer`, and so every shard worker)
    the index tail merge follows on the background lane; on a bare
    service it is the caller's (``merge_index_tails``).
    """

    kind: ClassVar[str] = "append"
    object_name: str = ""
    values: tuple[float, ...] | None = None
    columns: dict[str, tuple[float, ...]] | None = None

    @classmethod
    def of(
        cls,
        object_name: str,
        values: Iterable | None = None,
        columns: Mapping[str, Iterable] | None = None,
    ) -> "AppendCommand":
        """The command for appending any row iterables (arrays included)."""
        return cls(
            object_name=object_name,
            values=None if values is None else tuple(values),
            columns=None
            if columns is None
            else {name: tuple(rows) for name, rows in columns.items()},
        )


# --------------------------------------------------------------------- #
# paced commands (serving traces)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class TimedCommand:
    """One gesture command plus the think-time that precedes it.

    ``think_s`` is the gap a user leaves between receiving the previous
    result and issuing this command — the pacing unit of a serving trace.
    A serial server must wait it out inline; the concurrent scheduler
    (:class:`repro.core.scheduler.GestureScheduler`) overlaps one session's
    think-time with other sessions' work.
    """

    command: GestureCommand
    think_s: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.command, GestureCommand):
            raise CommandError(
                f"expected a GestureCommand, got {type(self.command).__name__}"
            )
        if self.think_s < 0:
            raise CommandError("think_s cannot be negative")


# --------------------------------------------------------------------- #
# scripts
# --------------------------------------------------------------------- #


@dataclass
class GestureScript:
    """An ordered exploration: the unit of recording, transport and replay.

    Scripts reference data objects by name only; the backend executing the
    script must have the named columns/tables loaded (locally or hosted on
    a remote server) before :meth:`repro.service.ExplorationService.run`.
    """

    commands: list[GestureCommand] = field(default_factory=list)
    name: str = ""

    def append(self, command: GestureCommand) -> "GestureScript":
        """Append one command and return the script (for chaining)."""
        if not isinstance(command, GestureCommand):
            raise CommandError(f"expected a GestureCommand, got {type(command).__name__}")
        self.commands.append(command)
        return self

    def extend(self, commands: Sequence[GestureCommand]) -> "GestureScript":
        """Append several commands and return the script."""
        for command in commands:
            self.append(command)
        return self

    def __len__(self) -> int:
        return len(self.commands)

    def __iter__(self) -> Iterator[GestureCommand]:
        return iter(self.commands)

    def __getitem__(self, index: int) -> GestureCommand:
        return self.commands[index]

    # ------------------------------------------------------------------ #
    # wire format
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """Encode the whole script as plain JSON-compatible data."""
        return {
            "name": self.name,
            "commands": [command.to_dict() for command in self.commands],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "GestureScript":
        """Rebuild a script from :meth:`to_dict` output."""
        if not isinstance(payload, dict):
            raise CommandError(
                f"script payload must be an object, got {type(payload).__name__}"
            )
        commands = payload.get("commands")
        if not isinstance(commands, list):
            raise CommandError("script payload must contain a 'commands' list")
        return cls(
            commands=[GestureCommand.from_dict(item) for item in commands],
            name=payload.get("name", ""),
        )

    def to_json(self, indent: int | None = None) -> str:
        """Serialize the script to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "GestureScript":
        """Parse a script from a JSON string."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CommandError(f"script is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)
