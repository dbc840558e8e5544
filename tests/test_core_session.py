"""Unit tests for the exploration-session facade."""

import numpy as np
import pytest

from repro.core.commands import GestureScript
from repro.core.session import ExplorationSession
from repro.errors import QueryError
from repro.service import LocalExplorationService
from repro.storage.column import Column
from repro.storage.table import Table
from repro.touchio.synthesizer import SlideSegment


class TestLoading:
    def test_load_column_from_values(self, session):
        column = session.load_column("c", [1, 2, 3])
        assert isinstance(column, Column)
        assert "c" in session.catalog

    def test_load_column_from_column_renames(self, session):
        column = session.load_column("renamed", Column("orig", [1, 2]))
        assert column.name == "renamed"
        assert "renamed" in session.catalog

    def test_load_table_from_mapping(self, session):
        table = session.load_table("t", {"a": [1, 2], "b": [3, 4]})
        assert isinstance(table, Table)
        assert session.catalog.table("t") is table

    def test_load_table_from_table(self, session, small_table):
        session.load_table("events", small_table)
        assert session.catalog.table("events") is small_table

    def test_glance_describes_objects(self, session, small_table):
        session.load_table("events", small_table)
        session.load_column("c", [1, 2, 3])
        names = {info.name for info in session.glance()}
        assert names == {"events", "c"}


class TestGestureHistory:
    def test_history_accumulates(self, session):
        session.load_column("c", np.arange(10_000))
        view = session.show_column("c")
        session.choose_scan(view)
        outcomes = [session.slide(view, duration=0.5), session.tap(view), session.zoom_in(view)]
        assert session.summary().gestures == 3
        assert session.last_outcome() is outcomes[-1]

    def test_last_outcome_empty_history(self, session):
        with pytest.raises(QueryError):
            session.last_outcome()

    def test_summary_aggregates_history(self, session):
        session.load_column("c", np.arange(10_000))
        view = session.show_column("c")
        session.choose_scan(view)
        outcomes = [session.slide(view, duration=0.5), session.slide(view, duration=0.5)]
        summary = session.summary()
        assert summary.gestures == 2
        assert summary.entries_returned == sum(o.entries_returned for o in outcomes)

    def test_clock_advances_with_gestures(self, session):
        session.load_column("c", np.arange(1000))
        view = session.show_column("c")
        session.choose_scan(view)
        before = session.device.now
        session.slide(view, duration=1.0)
        assert session.device.now > before


class TestGestureConvenience:
    def test_view_addressable_by_name(self, session):
        session.load_column("c", np.arange(1000))
        session.show_column("c", view_name="my-view")
        session.choose_scan("my-view")
        outcome = session.tap("my-view")
        assert outcome.view_name == "my-view"

    def test_slide_path_with_pause_and_reversal(self, session):
        session.load_column("c", np.arange(100_000))
        view = session.show_column("c")
        session.choose_scan(view)
        outcome = session.slide_path(
            view,
            [
                SlideSegment(0.0, 0.6, 0.5, pause_after=0.2),
                SlideSegment(0.6, 0.3, 0.5),
            ],
        )
        rowids = outcome.rowids_touched
        assert max(rowids) > 55_000
        assert rowids[-1] < max(rowids)  # the gesture came back up

    def test_default_axis_follows_orientation(self, session):
        session.load_column("c", np.arange(1000))
        view = session.show_column("c")
        session.choose_scan(view)
        session.rotate(view)
        outcome = session.slide(view, duration=0.5)
        assert outcome.entries_returned > 0

    def test_incremental_summary_matches_history_scan(self, session):
        session.load_column("c", np.arange(50_000))
        view = session.show_column("c")
        session.choose_summary(view, k=10)
        outcomes = [
            session.slide(view, duration=0.5),
            session.tap(view),
            session.zoom_in(view),
            session.slide(view, duration=0.3),
        ]
        summary = session.summary()
        assert summary.gestures == len(outcomes)
        assert summary.entries_returned == sum(o.entries_returned for o in outcomes)
        assert summary.tuples_examined == sum(o.tuples_examined for o in outcomes)
        assert summary.max_touch_latency_s == max(o.max_touch_latency_s for o in outcomes)

    def test_summary_returns_a_snapshot(self, session):
        session.load_column("c", np.arange(1000))
        view = session.show_column("c")
        session.choose_scan(view)
        session.slide(view, duration=0.3)
        frozen = session.summary()
        session.slide(view, duration=0.3)
        assert session.summary().gestures == frozen.gestures + 1

    def test_multiple_objects_on_screen(self, session):
        session.load_column("a", np.arange(1000))
        session.load_column("b", np.arange(1000) * 2)
        view_a = session.show_column("a", x=0.0)
        view_b = session.show_column("b", x=5.0)
        session.choose_scan(view_a)
        session.choose_aggregate(view_b, "sum")
        out_a = session.slide(view_a, duration=0.5)
        out_b = session.slide(view_b, duration=0.5)
        assert out_a.object_name == "a"
        assert out_b.object_name == "b"
        assert out_b.final_aggregate is not None


class TestSessionLifecycle:
    def test_reset_clears_everything(self, session):
        session.load_column("c", np.arange(1000))
        view = session.show_column("c")
        session.choose_scan(view)
        session.slide(view, duration=0.3)
        session.reset()
        with pytest.raises(QueryError):
            session.last_outcome()
        assert session.summary().gestures == 0
        assert "c" not in session.catalog
        assert session.device.now == 0.0
        # the session is immediately reusable
        session.load_column("c", np.arange(1000))
        view = session.show_column("c")
        session.choose_scan(view)
        assert session.slide(view, duration=0.3).entries_returned > 0

    def test_context_manager_recycles_on_exit(self):
        with ExplorationSession() as session:
            session.load_column("c", np.arange(1000))
            view = session.show_column("c")
            session.choose_scan(view)
            session.slide(view, duration=0.3)
        assert session.summary().gestures == 0
        with pytest.raises(QueryError):
            session.last_outcome()
        assert "c" not in session.catalog

    def test_context_manager_does_not_swallow_exceptions(self):
        with pytest.raises(ValueError):
            with ExplorationSession():
                raise ValueError("boom")


class TestRecording:
    def test_record_produces_a_replayable_script(self, session):
        session.load_column("c", np.arange(100_000))
        script = session.record("my-exploration")
        view = session.show_column("c")
        session.choose_summary(view, k=10)
        outcome = session.slide(view, duration=0.5)
        assert session.recording is script
        finished = session.stop_recording()
        assert finished is script
        assert session.recording is None
        assert finished.name == "my-exploration"
        assert [c.kind for c in finished] == ["show-column", "choose-action", "slide"]

        # replaying requires the same device profile the recording used
        replica = LocalExplorationService(profile=session.device.profile)
        replica.load_column("c", np.arange(100_000))
        envelopes = replica.run(GestureScript.from_json(finished.to_json()))
        assert envelopes[-1].entries_returned == outcome.entries_returned
        assert envelopes[-1].tuples_examined == outcome.tuples_examined

    def test_loading_is_not_recorded(self, session):
        script = session.record()
        session.load_column("c", np.arange(100))
        assert len(script) == 0

    def test_session_replays_scripts_into_history(self, session):
        session.load_column("c", np.arange(10_000))
        script = session.record()
        view = session.show_column("c")
        session.choose_scan(view)
        session.slide(view, duration=0.3)
        session.stop_recording()
        session.reset()
        session.load_column("c", np.arange(10_000))
        envelopes = session.run(script)
        assert len(envelopes) == 3
        assert session.summary().gestures == 1  # only the slide yields an outcome
        assert session.last_outcome() is envelopes[-1].payload
        assert session.summary().entries_returned == envelopes[-1].entries_returned > 0

    def test_reset_discards_live_recording(self, session):
        session.record()
        session.reset()
        assert session.recording is None

    def test_replaying_the_live_recording_terminates(self, session):
        session.load_column("c", np.arange(10_000))
        script = session.record()
        view = session.show_column("c")
        session.choose_scan(view)
        session.slide(view, duration=0.3)
        commands_before = len(script)
        envelopes = session.run(script)  # replay while still recording
        assert len(envelopes) == commands_before
        assert len(script) == commands_before  # the script did not grow
        assert session.recording is script  # recording resumes afterwards

    def test_failed_commands_are_not_recorded(self, session):
        session.load_column("c", np.arange(100))
        script = session.record()
        with pytest.raises(Exception):
            session.slide("no-such-view", duration=0.3)
        view = session.show_column("c")
        session.choose_scan(view)
        session.slide(view, duration=0.3)
        assert [c.kind for c in script] == ["show-column", "choose-action", "slide"]
        # the recovered recording replays cleanly on a fresh backend
        replica = LocalExplorationService(profile=session.device.profile)
        replica.load_column("c", np.arange(100))
        assert len(replica.run(script)) == 3


class TestInjectedService:
    def test_reset_leaves_an_injected_service_untouched(self):
        shared = LocalExplorationService()
        shared.load_column("shared-data", np.arange(1000))
        with ExplorationSession(service=shared) as session:
            view = session.show_column("shared-data")
            session.choose_scan(view)
            session.slide(view, duration=0.3)
        # the session-side state is gone, the shared backend survives
        assert session.summary().gestures == 0
        with pytest.raises(QueryError):
            session.last_outcome()
        assert "shared-data" in shared.catalog
        assert shared.device.now > 0.0

    def test_owned_service_is_reset(self):
        session = ExplorationSession()
        session.load_column("c", np.arange(100))
        session.reset()
        assert "c" not in session.catalog
