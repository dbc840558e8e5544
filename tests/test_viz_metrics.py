"""Unit tests for visualization shapes/rendering and the metrics helpers."""

import pytest

from repro.core.result_stream import ResultStream
from repro.errors import MetricsError, VisualizationError
from repro.metrics.reporting import ExperimentSeries, format_comparison
from repro.touchio.views import make_column_view
from repro.viz.objects import (
    DataObjectShape,
    assign_colors,
    shape_from_view,
)
from repro.viz.render import (
    RenderConfig,
    fade_character,
    render_object,
    render_results,
    render_screen,
)


class TestShapes:
    def test_shape_validation(self):
        with pytest.raises(VisualizationError):
            DataObjectShape("x", "column", 0.0, 1.0, "blue", 10)
        with pytest.raises(VisualizationError):
            DataObjectShape("x", "blob", 1.0, 1.0, "blue", 10)

    def test_label(self):
        shape = DataObjectShape("sales", "table", 8.0, 10.0, "blue", 1_000_000, 5)
        assert "sales" in shape.label and "1,000,000" in shape.label and "5 attrs" in shape.label

    def test_shape_from_view(self):
        view = make_column_view("v", "obj", num_tuples=50, height_cm=12.0)
        shape = shape_from_view(view, "red")
        assert shape.height_cm == 12.0 and shape.name == "obj"

    def test_shape_from_bare_view_rejected(self):
        from repro.touchio.views import Rect, View

        with pytest.raises(VisualizationError):
            shape_from_view(View("bare", Rect(0, 0, 1, 1)), "red")

    def test_assign_colors_cycles(self):
        colors = assign_colors([f"o{i}" for i in range(8)])
        assert len(colors) == 8
        assert colors["o0"] == colors["o6"]  # palette has 6 entries


class TestRendering:
    def test_render_object_has_box_and_label(self):
        shape = DataObjectShape("c", "column", 2.0, 5.0, "blue", 100)
        text = render_object(shape)
        lines = text.splitlines()
        assert lines[0].startswith("+") and lines[0].endswith("+")
        assert "c (100 tuples)" in lines[-1]

    def test_render_screen_side_by_side(self):
        a = DataObjectShape("a", "column", 2.0, 5.0, "blue", 10)
        b = DataObjectShape("b", "column", 2.0, 8.0, "red", 10)
        text = render_screen([a, b])
        assert "a (10 tuples)" in text and "b (10 tuples)" in text

    def test_render_empty_screen(self):
        assert render_screen([]) == "(empty screen)"

    def test_fade_character_ramp(self):
        assert fade_character(1.0) == "█"
        assert fade_character(0.01) == "░"
        with pytest.raises(VisualizationError):
            fade_character(1.5)

    def test_render_results_shows_visible_values(self):
        shape = DataObjectShape("c", "column", 2.0, 5.0, "blue", 100)
        stream = ResultStream(fade_seconds=10.0)
        stream.emit(1.5, 10, 0.1, timestamp=0.0)
        stream.emit(9.5, 90, 0.9, timestamp=1.0)
        text = render_results(shape, stream, now=1.0)
        assert "1.50" in text and "9.50" in text

    def test_render_results_empty(self):
        shape = DataObjectShape("c", "column", 2.0, 5.0, "blue", 100)
        assert "no visible results" in render_results(shape, ResultStream(), now=0.0)

    def test_render_config_validation(self):
        with pytest.raises(VisualizationError):
            RenderConfig(chars_per_cm=0.0)
        with pytest.raises(VisualizationError):
            RenderConfig(max_width_chars=2)
        shape = DataObjectShape("c", "column", 2.0, 5.0, "blue", 100)
        with pytest.raises(VisualizationError):
            render_results(shape, ResultStream(), now=0.0, max_rows=0)


class TestExperimentSeries:
    def _series(self):
        series = ExperimentSeries("exp", "x", ["y"])
        for x, y in [(1, 10), (2, 19), (3, 33), (4, 41)]:
            series.add(x, y=y)
        return series

    def test_add_validation(self):
        series = ExperimentSeries("exp", "x", ["y"])
        with pytest.raises(MetricsError):
            series.add(1)
        with pytest.raises(MetricsError):
            series.add(1, y=1, z=2)
        with pytest.raises(MetricsError):
            ExperimentSeries("exp", "x", [])

    def test_monotonicity_checks(self):
        series = self._series()
        assert series.is_monotonic_increasing("y")
        assert not series.is_monotonic_decreasing("y")

    def test_linearity(self):
        series = self._series()
        assert series.linear_correlation("y") > 0.98

    def test_ratio(self):
        assert self._series().ratio_last_to_first("y") == pytest.approx(4.1)

    def test_unknown_column(self):
        with pytest.raises(MetricsError):
            self._series().ys("z")

    def test_to_table_format(self):
        text = self._series().to_table()
        assert "== exp ==" in text
        assert "x" in text.splitlines()[1]
        assert len(text.splitlines()) == 2 + 1 + 4  # title, header, rule, 4 rows

    def test_format_comparison(self):
        text = format_comparison("compare", {"dbtouch": {"cells": 100}, "dbms": {"cells": 5000}})
        assert "dbtouch" in text and "dbms" in text
        with pytest.raises(MetricsError):
            format_comparison("empty", {})
