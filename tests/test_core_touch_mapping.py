"""Unit tests for the Rule-of-Three touch → rowid mapping."""

import pytest

from repro.core.touch_mapping import TouchMapper
from repro.errors import MappingError
from repro.touchio.views import make_column_view, make_table_view


@pytest.fixture
def column_view():
    return make_column_view("v", "col", num_tuples=10_000_000, height_cm=10.0, width_cm=2.0)


@pytest.fixture
def table_view():
    return make_table_view(
        "t", "tab", num_tuples=1000, num_attributes=4, height_cm=10.0, width_cm=8.0
    )


class TestRuleOfThree:
    def test_formula(self):
        # id = n * t / o
        assert TouchMapper.rule_of_three(5.0, 10.0, 1000) == 500
        assert TouchMapper.rule_of_three(0.0, 10.0, 1000) == 0

    def test_clamped_to_last_rowid(self):
        assert TouchMapper.rule_of_three(10.0, 10.0, 1000) == 999
        assert TouchMapper.rule_of_three(11.0, 10.0, 1000) == 999

    def test_invalid_inputs(self):
        with pytest.raises(MappingError):
            TouchMapper.rule_of_three(1.0, 0.0, 10)
        with pytest.raises(MappingError):
            TouchMapper.rule_of_three(1.0, 10.0, 0)


class TestColumnMapping:
    def test_top_maps_to_first_rowid(self, column_view):
        mapped = TouchMapper().map_touch(column_view, 1.0, 0.0)
        assert mapped.rowid == 0
        assert mapped.attribute_index == 0

    def test_middle_maps_to_middle(self, column_view):
        mapped = TouchMapper().map_touch(column_view, 1.0, 5.0)
        assert mapped.rowid == 5_000_000
        assert mapped.fraction == pytest.approx(0.5)

    def test_bottom_maps_to_last(self, column_view):
        mapped = TouchMapper().map_touch(column_view, 1.0, 10.0)
        assert mapped.rowid == 9_999_999

    def test_outside_extent_rejected(self, column_view):
        with pytest.raises(MappingError):
            TouchMapper().map_touch(column_view, 1.0, 12.0)

    def test_view_without_properties_rejected(self):
        from repro.touchio.views import Rect, View

        bare = View("bare", Rect(0, 0, 2, 10))
        with pytest.raises(MappingError):
            TouchMapper().map_touch(bare, 1.0, 5.0)

    def test_zoom_doubles_resolution(self, column_view):
        mapper = TouchMapper()
        before = mapper.map_touch(column_view, 1.0, 2.5).rowid
        column_view.resize(2.0)
        after = mapper.map_touch(column_view, 1.0, 2.5).rowid
        # the same physical location now points to an earlier rowid because the
        # object is twice as tall
        assert after == pytest.approx(before / 2, rel=0.01)


class TestRotationInvariance:
    def test_rotated_object_uses_width_axis(self, column_view):
        mapper = TouchMapper()
        before = mapper.map_touch(column_view, 1.0, 7.5).rowid
        column_view.rotate()
        # after rotation the object lies horizontally: 10 cm wide, 2 cm tall
        after = mapper.map_touch(column_view, 7.5, 1.0).rowid
        assert after == before


class TestTableMapping:
    def test_attribute_selected_by_width(self, table_view):
        mapper = TouchMapper()
        left = mapper.map_touch(table_view, 0.5, 5.0)
        right = mapper.map_touch(table_view, 7.9, 5.0)
        assert left.attribute_index == 0
        assert right.attribute_index == 3

    def test_rowid_from_height(self, table_view):
        mapped = TouchMapper().map_touch(table_view, 4.0, 2.5)
        assert mapped.rowid == 250


class TestGranularity:
    def test_snapping(self, column_view):
        mapper = TouchMapper(granularity=1000)
        mapped = mapper.map_touch(column_view, 1.0, 5.0005)
        assert mapped.rowid % 1000 == 0

    def test_invalid_granularity(self):
        with pytest.raises(MappingError):
            TouchMapper(granularity=0)
