"""Metrics: experiment-series reporting for the benchmarks."""

from repro.metrics.reporting import ExperimentSeries, format_comparison

__all__ = [
    "ExperimentSeries",
    "format_comparison",
]
