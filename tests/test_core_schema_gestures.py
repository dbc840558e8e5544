"""Unit tests for schema and layout gestures (Section 2.8)."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.storage.table import Table


@pytest.fixture
def table_session(session):
    table = Table.from_arrays(
        "trips",
        {
            "distance": np.arange(1000, dtype=np.float64),
            "fare": np.arange(1000, dtype=np.float64) * 2,
            "tip": np.arange(1000, dtype=np.float64) * 0.1,
        },
    )
    session.load_table("trips", table)
    view = session.show_table("trips", x=2.0, y=1.0, height_cm=10.0, width_cm=6.0)
    return session, view


class TestPan:
    def test_pan_moves_view(self, table_session):
        session, view = table_session
        outcome = session.pan(view, dx_cm=3.0, dy_cm=2.0)
        assert outcome.gesture == "pan"
        assert view.frame.x == pytest.approx(5.0)
        assert view.frame.y == pytest.approx(3.0)
        assert outcome.new_position == (view.frame.x, view.frame.y)

    def test_pan_clamped_to_screen(self, table_session):
        session, view = table_session
        session.pan(view, dx_cm=1000.0, dy_cm=1000.0)
        profile = session.device.profile
        assert view.frame.x + view.frame.width <= profile.screen_width_cm + 1e-9
        assert view.frame.y + view.frame.height <= profile.screen_height_cm + 1e-9
        session.pan(view, dx_cm=-1000.0, dy_cm=-1000.0)
        assert view.frame.x == 0.0 and view.frame.y == 0.0

    def test_mapping_unaffected_by_pan(self, table_session):
        """Moving the object does not change which tuples touches map to."""
        session, view = table_session
        session.choose_scan(view)
        before = session.tap(view, fraction=0.5).rowids_touched[0]
        session.pan(view, dx_cm=4.0, dy_cm=1.0)
        after = session.tap(view, fraction=0.5).rowids_touched[0]
        assert before == after


class TestDragColumnOut:
    def test_creates_standalone_object(self, table_session):
        session, view = table_session
        outcome = session.drag_column_out(view, "fare", x=10.0)
        assert outcome.created_objects == ("trips_fare",)
        assert "trips_fare" in session.catalog
        # the new object is queryable right away
        new_view = session.device.view("trips_fare-view")
        session.choose_aggregate(new_view, "max")
        result = session.slide(new_view, duration=0.5)
        # a slide of stride 111 reads the sample level of step 4, so its
        # last touch (row 999) shows the sampled row 996: fare 1992
        assert result.final_aggregate == pytest.approx(1992.0)
        assert result.final_aggregate == max(r.value for r in result.results)

    def test_original_table_untouched(self, table_session):
        session, view = table_session
        session.drag_column_out(view, "fare", x=10.0)
        assert session.catalog.table("trips").num_columns == 3

    def test_custom_name(self, table_session):
        session, view = table_session
        session.drag_column_out(view, "tip", new_object_name="tips_only", x=10.0)
        assert "tips_only" in session.catalog

    def test_unknown_column_rejected(self, table_session):
        session, view = table_session
        with pytest.raises(QueryError):
            session.drag_column_out(view, "ghost")

    def test_requires_table_object(self, session):
        session.load_column("c", np.arange(100))
        view = session.show_column("c")
        with pytest.raises(QueryError):
            session.drag_column_out(view, "c")


class TestGroupColumns:
    def test_group_into_table(self, session):
        session.load_column("a", np.arange(500))
        session.load_column("b", np.arange(500) * 3)
        outcome = session.group_columns(["a", "b"], "grouped", x=10.0)
        assert outcome.created_objects == ("grouped",)
        table = session.catalog.table("grouped")
        assert table.column_names == ["a", "b"]
        # the new table object answers taps with full tuples
        view = session.device.view("grouped-view")
        tap = session.tap(view, fraction=0.5)
        assert set(tap.revealed_tuple) == {"a", "b"}

    def test_group_requires_two_columns(self, session):
        session.load_column("a", np.arange(10))
        with pytest.raises(QueryError):
            session.group_columns(["a"], "bad")

    def test_group_requires_equal_lengths(self, session):
        session.load_column("a", np.arange(10))
        session.load_column("b", np.arange(20))
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            session.group_columns(["a", "b"], "bad")


class TestUngroupTable:
    def test_ungroup_creates_one_object_per_attribute(self, table_session):
        session, view = table_session
        outcome = session.ungroup_table(view)
        assert set(outcome.created_objects) == {
            "trips_distance",
            "trips_fare",
            "trips_tip",
        }
        for name in outcome.created_objects:
            assert name in session.catalog
        # each new object is independently explorable
        fare_view = session.device.view("trips_fare-view")
        session.choose_scan(fare_view)
        assert session.tap(fare_view, fraction=0.0).results[0].value == 0.0

    def test_ungroup_requires_table(self, session):
        session.load_column("c", np.arange(10))
        view = session.show_column("c")
        with pytest.raises(QueryError):
            session.ungroup_table(view)

    def test_ungroup_twice_rejected(self, table_session):
        session, view = table_session
        session.ungroup_table(view)
        with pytest.raises(QueryError):
            session.ungroup_table(view)
