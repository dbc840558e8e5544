"""``repro.obs`` — the dependency-free observability plane.

Three pieces, one story per gesture:

* :mod:`repro.obs.trace` — structured tracing.  A :class:`Tracer` opens
  per-gesture root spans; deep layers add children through the ambient
  :func:`trace_span` helper; :class:`TraceContext` carries the trace
  across scheduler threads and the sharded wire, and
  :func:`stitch_traces` reassembles distributed span trees.
* :mod:`repro.obs.registry` — the :class:`TelemetryRegistry` of
  scrape-time collectors wrapping the pre-existing stats islands, plus
  histograms, exported as one merged snapshot and as
  Prometheus text exposition.
* :mod:`repro.obs.recorder` — the :class:`FlightRecorder` ring of the
  last N completed traces with a threshold-triggered slow-gesture log.

Everything here is standard library only and strictly additive: outcome
counters and the parity contracts built on them are untouched.
"""

from repro.obs.recorder import FlightRecorder
from repro.obs.registry import TelemetryRegistry, merge_numeric, render_exposition
from repro.obs.stats import nearest_rank
from repro.obs.trace import (
    Trace,
    TraceConfig,
    TraceContext,
    Tracer,
    current_trace_context,
    stitch_traces,
    trace_span,
)

__all__ = [
    "FlightRecorder",
    "TelemetryRegistry",
    "Trace",
    "TraceConfig",
    "TraceContext",
    "Tracer",
    "current_trace_context",
    "merge_numeric",
    "nearest_rank",
    "render_exposition",
    "stitch_traces",
    "trace_span",
]
