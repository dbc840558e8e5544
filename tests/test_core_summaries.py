"""Unit tests for interactive summaries."""

import numpy as np
import pytest

from repro.core.summaries import InteractiveSummarizer
from repro.engine.aggregate import AggregateKind
from repro.errors import ExecutionError
from repro.storage.column import Column
from repro.storage.sample import SampleHierarchy


@pytest.fixture
def column():
    return Column("c", np.arange(1000, dtype=np.float64))


class TestBasicSummaries:
    def test_window_average(self, column):
        summarizer = InteractiveSummarizer(column, k=2, aggregate="avg")
        result = summarizer.summarize_at(100)
        assert result.value == pytest.approx(100.0)  # mean of 98..102
        assert result.values_aggregated == 5
        assert result.window_start == 98 and result.window_stop == 103

    def test_k_zero_returns_single_value(self, column):
        summarizer = InteractiveSummarizer(column, k=0)
        result = summarizer.summarize_at(7)
        assert result.value == pytest.approx(7.0)
        assert result.values_aggregated == 1

    def test_window_clamped_at_edges(self, column):
        summarizer = InteractiveSummarizer(column, k=10)
        first = summarizer.summarize_at(0)
        last = summarizer.summarize_at(999)
        assert first.window_start == 0
        assert first.values_aggregated == 11
        assert last.window_stop == 1000
        assert last.values_aggregated == 11

    def test_other_aggregates(self, column):
        assert InteractiveSummarizer(column, k=2, aggregate="max").summarize_at(100).value == 102
        assert InteractiveSummarizer(column, k=2, aggregate="min").summarize_at(100).value == 98
        assert InteractiveSummarizer(column, k=2, aggregate="sum").summarize_at(100).value == 500

    def test_paper_configuration_k10(self, column):
        """The evaluation uses summaries of 10 entries with an average."""
        summarizer = InteractiveSummarizer(column, k=10, aggregate=AggregateKind.AVG)
        result = summarizer.summarize_at(500)
        assert result.values_aggregated == 21
        assert result.value == pytest.approx(500.0)

    def test_out_of_range(self, column):
        with pytest.raises(ExecutionError):
            InteractiveSummarizer(column).summarize_at(1000)

    def test_negative_k_rejected(self, column):
        with pytest.raises(ExecutionError):
            InteractiveSummarizer(column, k=-1)

    def test_non_numeric_rejected(self):
        with pytest.raises(ExecutionError):
            InteractiveSummarizer(Column("s", ["a", "b"]))

    def test_accounting(self, column):
        summarizer = InteractiveSummarizer(column, k=2)
        summarizer.summarize_at(10)
        summarizer.summarize_at(20)
        assert summarizer.touches == 2
        assert summarizer.values_read == 10


class TestSummariesOverSamples:
    def test_coarse_stride_served_from_sample_level(self, column):
        hierarchy = SampleHierarchy(column, factor=4, min_rows=8)
        summarizer = InteractiveSummarizer(column, k=4, hierarchy=hierarchy)
        result = summarizer.summarize_at(500, stride_hint=64)
        assert result.served_from_level > 0

    def test_fine_stride_uses_base(self, column):
        hierarchy = SampleHierarchy(column, factor=4, min_rows=8)
        summarizer = InteractiveSummarizer(column, k=4, hierarchy=hierarchy)
        result = summarizer.summarize_at(500, stride_hint=1)
        assert result.served_from_level == 0
