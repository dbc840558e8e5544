"""Unit tests for the fading result stream."""

import pytest

from repro.core.result_stream import ResultStream
from repro.errors import VisualizationError


class TestEmission:
    def test_emit_and_collect(self):
        stream = ResultStream()
        stream.emit(1.0, rowid=10, position_fraction=0.1, timestamp=0.0)
        stream.emit(2.0, rowid=20, position_fraction=0.2, timestamp=0.5)
        assert len(stream) == 2
        assert stream.values == [1.0, 2.0]

    def test_position_validation(self):
        stream = ResultStream()
        with pytest.raises(VisualizationError):
            stream.emit(1.0, 0, position_fraction=1.5, timestamp=0.0)

    def test_timestamps_must_not_decrease(self):
        stream = ResultStream()
        stream.emit(1.0, 0, 0.0, timestamp=1.0)
        with pytest.raises(VisualizationError):
            stream.emit(2.0, 0, 0.0, timestamp=0.5)

    def test_clear(self):
        stream = ResultStream()
        stream.emit(1.0, 0, 0.0, 0.0)
        stream.clear()
        assert len(stream) == 0


class TestFading:
    def test_opacity_decays_linearly(self):
        stream = ResultStream(fade_seconds=2.0)
        result = stream.emit(1.0, 0, 0.0, timestamp=0.0)
        assert stream.opacity_at(result, 0.0) == pytest.approx(1.0)
        assert stream.opacity_at(result, 1.0) == pytest.approx(0.5)
        assert stream.opacity_at(result, 2.0) == 0.0
        assert stream.opacity_at(result, 5.0) == 0.0

    def test_future_timestamp_fully_opaque(self):
        stream = ResultStream(fade_seconds=1.0)
        result = stream.emit(1.0, 0, 0.0, timestamp=5.0)
        assert stream.opacity_at(result, 4.0) == 1.0

    def test_visible_at_excludes_faded(self):
        stream = ResultStream(fade_seconds=1.0)
        stream.emit("old", 0, 0.0, timestamp=0.0)
        stream.emit("new", 1, 0.5, timestamp=2.0)
        visible = stream.visible_at(2.5)
        assert [v.result.value for v in visible] == ["new"]

    def test_newest_results_are_boldest(self):
        """The most recently touched entry produces the boldest value — the
        behaviour Figure 2 of the paper shows."""
        stream = ResultStream(fade_seconds=3.0)
        for i in range(5):
            stream.emit(i, i, i / 10, timestamp=float(i))
        visible = stream.visible_at(4.0)
        opacities = [v.opacity for v in visible]
        assert opacities == sorted(opacities)
        assert visible[-1].result.value == 4

    def test_max_visible_bound(self):
        stream = ResultStream(fade_seconds=100.0, max_visible=3)
        for i in range(10):
            stream.emit(i, i, 0.0, timestamp=float(i))
        assert len(stream.visible_at(10.0)) == 3

    def test_validation(self):
        with pytest.raises(VisualizationError):
            ResultStream(fade_seconds=0.0)
        with pytest.raises(VisualizationError):
            ResultStream(max_visible=0)
