"""Metrics: collectors and experiment-series reporting for the benchmarks."""

from repro.metrics.collectors import LatencyStats
from repro.metrics.reporting import ExperimentSeries, format_comparison

__all__ = [
    "ExperimentSeries",
    "LatencyStats",
    "format_comparison",
]
