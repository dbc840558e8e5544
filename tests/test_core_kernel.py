"""Unit tests for the dbTouch kernel (gesture dispatch and execution)."""

import numpy as np
import pytest

from repro.core.actions import (
    group_by_action,
    join_action,
    scan_action,
)
from repro.core.kernel import KernelConfig
from repro.errors import ExecutionError, QueryError, TouchError
from repro.storage.layout import LayoutKind
from repro.touchio.recognizer import GestureType


@pytest.fixture
def column_session(bare_session):
    """A session showing a 1M-row ramp column with no adaptive features."""
    bare_session.load_column("ramp", np.arange(1_000_000, dtype=np.int64))
    view = bare_session.show_column("ramp", height_cm=10.0)
    return bare_session, view


@pytest.fixture
def table_session(bare_session, small_table):
    bare_session.load_table("events", small_table)
    view = bare_session.show_table("events", height_cm=10.0, width_cm=8.0)
    return bare_session, view


class TestShowObjects:
    def test_show_column_registers_state(self, column_session):
        session, view = column_session
        state = session.kernel.state_of(view.name)
        assert state.object_name == "ramp"
        assert state.column is not None and state.table is None
        assert view.properties.num_tuples == 1_000_000

    def test_show_table_registers_state(self, table_session):
        session, view = table_session
        state = session.kernel.state_of(view.name)
        assert state.table is not None
        assert view.properties.num_attributes == 4

    def test_reshowing_a_view_name_replaces_its_view(self, bare_session, small_table):
        """The device holds one view per name: a re-show detaches the view
        it replaces, and a re-show the screen rejects leaves it in place."""
        session, kernel = bare_session, bare_session.kernel
        session.load_column("big", np.arange(1_000, dtype=np.int64))
        session.load_column("small", np.arange(10, dtype=np.int64))
        for _ in range(5):
            session.show_column("big", view_name="v")
        named_v = [view for view in session.device.root.subviews if view.name == "v"]
        assert len(named_v) == 1
        shown = session.show_column("small", view_name="v")
        assert session.device.view("v") is kernel.state_of("v").view is shown
        assert shown.properties.num_tuples == 10
        assert [view.name for view in session.device.root.subviews] == ["v"]
        with pytest.raises(TouchError):
            session.show_column("big", view_name="v", height_cm=1_000.0)
        assert session.device.view("v") is kernel.state_of("v").view is shown
        session.load_table("events", small_table)
        table_view = session.show_table("events", view_name="v")
        assert session.device.root.subviews == [table_view]
        assert session.device.view("v") is kernel.state_of("v").view

    def test_unknown_view_rejected(self, bare_session):
        with pytest.raises(ExecutionError):
            bare_session.kernel.state_of("ghost")


class TestTap:
    def test_tap_column_reveals_single_value(self, column_session):
        session, view = column_session
        session.choose_scan(view)
        outcome = session.tap(view, fraction=0.25)
        assert outcome.gesture_type is GestureType.TAP
        assert outcome.entries_returned == 1
        assert outcome.results[0].value == 250_000

    def test_tap_table_reveals_full_tuple(self, table_session):
        session, view = table_session
        outcome = session.tap(view, fraction=0.5)
        assert outcome.revealed_tuple is not None
        assert set(outcome.revealed_tuple) == {"id", "value", "category", "score"}
        assert outcome.tuples_examined == 4


class TestSlideScan:
    def test_scan_returns_raw_values(self, column_session):
        session, view = column_session
        session.choose_scan(view)
        outcome = session.slide(view, duration=1.0)
        assert outcome.entries_returned > 5
        assert outcome.entries_returned == len(outcome.results)
        values = [r.value for r in outcome.results]
        assert values == sorted(values)  # top-to-bottom slide over a ramp

    def test_rowids_increase_for_downward_slide(self, column_session):
        session, view = column_session
        session.choose_scan(view)
        outcome = session.slide(view, duration=0.5)
        rowids = outcome.rowids_touched.tolist()
        assert rowids == sorted(rowids)
        assert rowids[0] < 100_000 and rowids[-1] > 900_000

    def test_reverse_slide(self, column_session):
        session, view = column_session
        session.choose_scan(view)
        outcome = session.slide(view, duration=0.5, start_fraction=1.0, end_fraction=0.0)
        rowids = outcome.rowids_touched.tolist()
        assert rowids == sorted(rowids, reverse=True)

    def test_partial_slide_touches_partial_range(self, column_session):
        session, view = column_session
        session.choose_scan(view)
        outcome = session.slide(view, duration=0.5, start_fraction=0.4, end_fraction=0.6)
        assert min(outcome.rowids_touched) >= 390_000
        assert max(outcome.rowids_touched) <= 610_000

    def test_predicate_filters_displayed_entries(self, column_session):
        from repro.engine.filter import Comparison, Predicate

        session, view = column_session
        session.choose_action(view, scan_action(predicate=Predicate(Comparison.GE, 500_000)))
        outcome = session.slide(view, duration=1.0)
        assert all(r.value >= 500_000 for r in outcome.results)
        # touches below the threshold still happened, they just produced no output
        assert len(outcome.rowids_touched) > outcome.entries_returned


class TestSlideAggregate:
    def test_running_aggregate_converges(self, column_session):
        session, view = column_session
        session.choose_aggregate(view, "avg")
        outcome = session.slide(view, duration=2.0)
        assert outcome.final_aggregate == pytest.approx(500_000, rel=0.1)
        # the running aggregate is continuously updated: intermediate values differ
        values = [r.value for r in outcome.results]
        assert values[0] != values[-1]

    def test_max_aggregate(self, column_session):
        session, view = column_session
        session.choose_aggregate(view, "max")
        outcome = session.slide(view, duration=1.0)
        assert outcome.final_aggregate == max(r.value for r in outcome.results)


class TestSlideSummary:
    def test_summary_counts_window_tuples(self, column_session):
        session, view = column_session
        session.choose_summary(view, k=10)
        outcome = session.slide(view, duration=1.0)
        assert outcome.entries_returned > 0
        # each summary reads 21 values (2k+1)
        assert outcome.tuples_examined == pytest.approx(21 * outcome.entries_returned, rel=0.05)

    def test_summary_requires_column(self, table_session):
        session, view = table_session
        with pytest.raises(QueryError):
            session.choose_summary(view, k=5)


class TestZoomAndGranularity:
    def test_zoom_in_grows_view(self, column_session):
        session, view = column_session
        before = view.height
        outcome = session.zoom_in(view)
        assert outcome.zoom_scale > 1.0
        assert view.height > before

    def test_zoom_out_shrinks_view(self, column_session):
        session, view = column_session
        before = view.height
        session.zoom_out(view)
        assert view.height < before

    def test_a_zoomed_out_view_zooms_back_in(self, column_session):
        """A zoom-out leaves the view's short side at 0.5 cm; the next pinch
        still spans a zoom, so a user can zoom in and out indefinitely."""
        session, view = column_session
        for _ in range(3):
            assert session.zoom_in(view).zoom_scale > 1.0
            assert session.zoom_out(view).zoom_scale < 1.0

    def test_same_speed_slide_after_zoom_in_sees_finer_detail(self, column_session):
        """Figure 2: after zoom-in, the same slide speed returns results with a
        smaller rowid stride (more detail)."""
        session, view = column_session
        session.choose_scan(view)
        before = session.slide(view, duration=1.0)
        stride_before = np.median(np.abs(np.diff(before.rowids_touched)))
        session.zoom_in(view)
        # same gesture speed means the finger covers the (bigger) object in
        # proportionally more time; slide only the same physical distance
        after = session.slide(view, duration=1.0, start_fraction=0.0, end_fraction=0.5)
        stride_after = np.median(np.abs(np.diff(after.rowids_touched)))
        assert stride_after < stride_before


class TestRotate:
    def test_rotate_column_flips_orientation(self, column_session):
        session, view = column_session
        outcome = session.rotate(view)
        assert outcome.gesture_type is GestureType.ROTATE
        assert view.properties.orientation == "horizontal"

    def test_rotate_table_switches_layout_incrementally(self, table_session):
        session, view = table_session
        state = session.kernel.state_of(view.name)
        assert state.layout_kind is LayoutKind.COLUMN_STORE
        outcome = session.rotate(view)
        assert outcome.layout_kind is LayoutKind.ROW_STORE
        assert state.rotation is not None
        assert 0.0 < state.rotation.progress.fraction_converted < 1.0

    def test_slide_still_works_after_rotation(self, column_session):
        session, view = column_session
        session.choose_scan(view)
        session.rotate(view)
        outcome = session.slide(view, duration=0.5)
        assert outcome.entries_returned > 0


class TestJoin:
    def test_slide_driven_join_produces_matches(self, bare_session):
        keys = np.arange(500, dtype=np.int64) % 50
        bare_session.load_column("left", keys)
        bare_session.load_column("right", keys)
        left_view = bare_session.show_column("left", height_cm=10.0, x=0.0)
        right_view = bare_session.show_column("right", height_cm=10.0, x=5.0)
        bare_session.choose_action(left_view, join_action("right"))
        bare_session.choose_action(right_view, join_action("left"))
        bare_session.slide(left_view, duration=1.0)
        outcome = bare_session.slide(right_view, duration=1.0)
        assert outcome.join_matches > 0

    def test_join_requires_partner_on_screen(self, column_session):
        session, view = column_session
        with pytest.raises(QueryError):
            session.choose_action(view, join_action("not-shown"))


class TestGroupBy:
    def test_group_by_on_table(self, table_session):
        session, view = table_session
        session.choose_action(view, group_by_action("category", "value", aggregate="avg"))
        outcome = session.slide(view, duration=1.0)
        state = session.kernel.state_of(view.name)
        assert state.group_by is not None
        assert len(state.group_by.snapshot()) > 1

    def test_group_by_requires_table(self, column_session):
        session, view = column_session
        with pytest.raises(QueryError):
            session.choose_action(view, group_by_action("a", "b"))


class TestAdaptiveFeatures:
    def test_sample_hierarchy_serves_coarse_slides(self, fast_profile):
        from repro.core.session import ExplorationSession

        session = ExplorationSession(
            profile=fast_profile,
            config=KernelConfig(enable_samples=True),
        )
        session.load_column("c", np.arange(1_000_000, dtype=np.int64))
        view = session.show_column("c")
        session.choose_scan(view)
        outcome = session.slide(view, duration=1.0)
        served_levels = set(outcome.served_level_counts)
        assert any(level > 0 for level in served_levels)

    def test_latency_budget_tracked(self, column_session):
        session, view = column_session
        session.choose_summary(view, k=10)
        session.slide(view, duration=1.0)
        outcome = session.last_outcome()
        assert outcome.max_touch_latency_s >= 0.0
        assert outcome.mean_touch_latency_s <= outcome.max_touch_latency_s
