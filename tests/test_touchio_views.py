"""Unit tests for the view hierarchy."""

import pytest

from repro.errors import ViewError
from repro.touchio.views import (
    DataObjectProperties,
    Rect,
    View,
    make_column_view,
    make_table_view,
)


class TestRect:
    def test_positive_size_required(self):
        with pytest.raises(ViewError):
            Rect(0, 0, 0, 1)
        with pytest.raises(ViewError):
            Rect(0, 0, 1, -1)


class TestDataObjectProperties:
    def test_validation(self):
        with pytest.raises(ViewError):
            DataObjectProperties("o", num_tuples=-1)
        with pytest.raises(ViewError):
            DataObjectProperties("o", num_tuples=1, num_attributes=0)
        with pytest.raises(ViewError):
            DataObjectProperties("o", num_tuples=1, orientation="diagonal")

    def test_defaults(self):
        props = DataObjectProperties("o", num_tuples=10)
        assert props.orientation == "vertical"
        assert props.num_attributes == 1


class TestHierarchy:
    def test_add_and_find(self):
        root = View("root", Rect(0, 0, 20, 15))
        child = View("child", Rect(1, 1, 5, 5))
        root.add_subview(child)
        assert root.find("child") is child
        assert child.master is root

    def test_cannot_add_self(self):
        root = View("root", Rect(0, 0, 10, 10))
        with pytest.raises(ViewError):
            root.add_subview(root)

    def test_cannot_reparent(self):
        a = View("a", Rect(0, 0, 10, 10))
        b = View("b", Rect(0, 0, 10, 10))
        child = View("c", Rect(0, 0, 1, 1))
        a.add_subview(child)
        with pytest.raises(ViewError):
            b.add_subview(child)

    def test_find_missing(self):
        root = View("root", Rect(0, 0, 10, 10))
        with pytest.raises(ViewError):
            root.find("ghost")

    def test_walk_depth_first(self):
        root = View("root", Rect(0, 0, 20, 20))
        a = View("a", Rect(0, 0, 5, 5))
        b = View("b", Rect(6, 0, 5, 5))
        root.add_subview(a)
        root.add_subview(b)
        names = [v.name for v in root.walk()]
        assert names == ["root", "a", "b"]


class TestResizeAndRotate:
    def test_resize_scales_frame(self):
        view = make_column_view("v", "obj", num_tuples=100, height_cm=10.0, width_cm=2.0)
        view.resize(2.0)
        assert view.height == 20.0
        assert view.width == 4.0

    def test_resize_invalid(self):
        view = make_column_view("v", "obj", num_tuples=100)
        with pytest.raises(ViewError):
            view.resize(0.0)

    def test_rotate_swaps_dimensions_and_orientation(self):
        view = make_column_view("v", "obj", num_tuples=100, height_cm=10.0, width_cm=2.0)
        view.rotate()
        assert view.width == 10.0
        assert view.height == 2.0
        assert view.properties.orientation == "horizontal"
        view.rotate()
        assert view.properties.orientation == "vertical"

    def test_rotate_preserves_tuple_count(self):
        view = make_table_view("v", "t", num_tuples=500, num_attributes=3)
        view.rotate()
        assert view.properties.num_tuples == 500
        assert view.properties.num_attributes == 3


class TestFactories:
    def test_column_view_defaults(self):
        view = make_column_view("v", "obj", num_tuples=42)
        assert view.properties.num_attributes == 1
        assert view.height == 10.0

    def test_table_view_attributes(self):
        view = make_table_view("v", "t", num_tuples=42, num_attributes=5, width_cm=9.0)
        assert view.properties.num_attributes == 5
        assert view.width == 9.0
