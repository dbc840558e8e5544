"""Round-trip tests for the gesture-command protocol."""

import json

import numpy as np
import pytest

from repro.core.actions import (
    aggregate_action,
    group_by_action,
    join_action,
    scan_action,
    select_where_action,
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
    action_from_dict,
    action_to_dict,
)
from repro.core.session import ExplorationSession
from repro.engine.filter import Comparison, Predicate
from repro.errors import CommandError
from repro.service import LocalExplorationService
from repro.touchio.synthesizer import SlideSegment

#: One representative instance per command type, with non-default values.
ALL_COMMANDS = [
    ShowColumn(
        object_name="m", column_name=None, height_cm=12.0, width_cm=3.0, x=1.0, y=2.0, view_name="v"
    ),
    ShowColumn(object_name="t", column_name="a"),
    ShowTable(table_name="t", height_cm=8.0, width_cm=6.0, x=0.5, y=0.5, view_name="tv"),
    ChooseAction(view="v", action=summary_action(k=7, aggregate="max")),
    ChooseAction(view="v", action=scan_action(Predicate(Comparison.GT, 10.0))),
    ChooseAction(view="v", action=aggregate_action("sum")),
    ChooseAction(view="v", action=group_by_action("k", "m", "avg")),
    ChooseAction(view="v", action=join_action("other")),
    ChooseAction(
        view="v",
        action=select_where_action("a", Predicate(Comparison.BETWEEN, 1.0, 5.0), ["b", "c"]),
    ),
    Slide(
        view="v",
        duration=2.5,
        start_fraction=0.1,
        end_fraction=0.9,
        axis="horizontal",
        cross_fraction=0.3,
    ),
    SlidePath(
        view="v",
        segments=(SlideSegment(0.0, 0.6, 0.5, pause_after=0.2), SlideSegment(0.6, 0.3, 0.5)),
        axis="vertical",
    ),
    Tap(view="v", fraction=0.25),
    ZoomIn(view="v", duration=0.3),
    ZoomOut(view="v", duration=0.6),
    Rotate(view="v", duration=0.7),
    Pan(view="v", dx_cm=3.0, dy_cm=-1.0),
    DragColumnOut(
        table_view="tv", column_name="a", new_object_name="a_solo", x=4.0, y=0.0, height_cm=9.0
    ),
    GroupColumns(column_object_names=("a", "b"), table_name="grouped", x=1.0, y=1.0),
    UngroupTable(table_view="tv", height_cm=7.0),
    AppendCommand(object_name="m", values=(1.5, 2.5, 3.0)),
    AppendCommand(object_name="t", columns={"a": (1, 2), "b": (0.5, 0.25)}),
]


class TestCommandRoundTrip:
    @pytest.mark.parametrize("command", ALL_COMMANDS, ids=lambda c: c.kind)
    def test_dict_round_trip(self, command):
        rebuilt = GestureCommand.from_dict(command.to_dict())
        assert rebuilt == command
        assert type(rebuilt) is type(command)

    @pytest.mark.parametrize("command", ALL_COMMANDS, ids=lambda c: c.kind)
    def test_payload_is_json_compatible(self, command):
        payload = command.to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_kinds_are_unique(self):
        kinds = [command.to_dict()["kind"] for command in ALL_COMMANDS]
        assert len(set(kinds)) == 14  # the full gesture vocabulary

    def test_append_malformed_columns_rejected(self):
        with pytest.raises(CommandError):
            GestureCommand.from_dict(
                {"kind": "append", "object_name": "t", "columns": {"a": 5}}
            )
        with pytest.raises(CommandError):
            GestureCommand.from_dict({"kind": "append", "columns": [1, 2]})
        with pytest.raises(CommandError):
            GestureCommand.from_dict({"kind": "append", "object_name": "c", "values": 7})

    def test_unknown_kind_rejected(self):
        with pytest.raises(CommandError):
            GestureCommand.from_dict({"kind": "teleport"})

    def test_missing_kind_rejected(self):
        with pytest.raises(CommandError):
            GestureCommand.from_dict({"view": "v"})


class TestActionRoundTrip:
    @pytest.mark.parametrize(
        "action",
        [
            scan_action(),
            scan_action(Predicate(Comparison.LE, 3.5)),
            aggregate_action("std"),
            summary_action(k=21, aggregate="min"),
            group_by_action("service", "latency", "max"),
            join_action("partner", Predicate(Comparison.NE, 0.0)),
            select_where_action("a", Predicate(Comparison.BETWEEN, 0.0, 1.0), ("b",)),
        ],
        ids=lambda a: a.kind.value,
    )
    def test_round_trip(self, action):
        assert action_from_dict(action_to_dict(action)) == action

    def test_malformed_action_rejected(self):
        with pytest.raises(CommandError):
            action_from_dict({"kind": "levitate"})

    def test_malformed_predicate_rejected(self):
        from repro.core.commands import predicate_from_dict

        with pytest.raises(CommandError):
            predicate_from_dict({"comparison": "~="})


class TestGestureScript:
    def _script(self):
        return GestureScript(
            name="browse",
            commands=[
                ShowColumn(object_name="m", view_name="v"),
                ChooseAction(view="v", action=summary_action(k=10)),
                Slide(view="v", duration=1.5),
                ZoomIn(view="v"),
                Slide(view="v", duration=1.0, start_fraction=0.4, end_fraction=0.5),
                Tap(view="v"),
            ],
        )

    def test_json_round_trip_preserves_script(self):
        script = self._script()
        assert GestureScript.from_json(script.to_json()) == script
        assert GestureScript.from_json(script.to_json(indent=2)) == script

    def test_recorded_numpy_append_round_trips(self):
        """A script that appended a numpy array saves and loads (numpy
        scalars are coerced to exact Python ones by the encoder)."""
        session = ExplorationSession()
        session.load_column("c", np.arange(10))
        session.load_table("t", {"a": np.arange(4), "b": np.linspace(0.0, 1.0, 4)})
        session.record()
        session.append("c", values=np.arange(3))
        session.append("t", columns={"a": np.arange(2), "b": np.array([0.25, 0.5])})
        script = session.stop_recording()
        loaded = GestureScript.from_json(script.to_json())
        assert loaded[0].values == (0, 1, 2)
        assert loaded[1].columns == {"a": (0, 1), "b": (0.25, 0.5)}
        assert all(type(v) is int for v in loaded[0].values)
        assert loaded == script  # np.int64(1) == 1: equal values, plain types

    def test_container_protocol(self):
        script = self._script()
        assert len(script) == 6
        assert script[0] == ShowColumn(object_name="m", view_name="v")
        assert [c.kind for c in script][:2] == ["show-column", "choose-action"]

    def test_append_rejects_non_commands(self):
        with pytest.raises(CommandError):
            GestureScript().append("slide")

    def test_invalid_json_rejected(self):
        with pytest.raises(CommandError):
            GestureScript.from_json("{not json")
        with pytest.raises(CommandError):
            GestureScript.from_dict({"name": "x"})

    def test_round_tripped_script_replays_to_identical_outcomes(self):
        """The acceptance property: record → JSON → replay is lossless."""
        script = self._script()

        def run_fresh(s):
            service = LocalExplorationService()
            service.load_column("m", np.arange(500_000))
            return service.run(s)

        original = run_fresh(script)
        replayed = run_fresh(GestureScript.from_json(script.to_json()))
        assert len(original) == len(replayed)
        for first, second in zip(original, replayed):
            assert first.command_kind == second.command_kind
            assert first.entries_returned == second.entries_returned
            assert first.tuples_examined == second.tuples_examined
