"""The unified telemetry plane: one registry, one merged snapshot.

The system already measures itself in islands — ``SchedulerStats``,
``IndexManager.stats_snapshot()``, ``ChunkCacheStats``, per-session
``SessionMetrics`` — each reachable only by poking the owning object.
:class:`TelemetryRegistry` federates them: components register a
**collector** — a zero-argument callable returning a flat-ish mapping of
numbers, polled at scrape time — or, for a latency distribution, create a
:class:`Histogram` (the tracer's ``trace_root_seconds``).  Collectors are
the integration idiom here: the existing snapshot methods plug in
unchanged, keeping the registry free of references into every subsystem's
internals.

``snapshot()`` returns one flat ``{metric_name: value}`` dict (the shape
the ``telemetry`` wire verb ships and :func:`merge_numeric` sums across a
fleet); ``exposition()`` renders the Prometheus text format so any
standard scraper can read a worker, a front door, or a merged fleet
snapshot.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "Histogram",
    "TelemetryRegistry",
    "merge_numeric",
    "render_exposition",
]

#: Latency-shaped default buckets (seconds), sub-ms to tens of seconds.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")
_VALID_METRIC = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def sanitize_metric_name(name: str) -> str:
    """Coerce an arbitrary key into a legal Prometheus metric name."""
    cleaned = _NAME_SANITIZER.sub("_", name)
    if not cleaned or not _VALID_METRIC.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics, thread-safe)."""

    __slots__ = ("name", "help", "buckets", "_lock", "_counts", "_sum", "_count")

    def __init__(
        self, name: str, buckets: Iterable[float] | None = None, help_: str = ""
    ) -> None:
        self.name = name
        self.help = help_
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError(f"histogram {self.name!r} needs at least one bucket")
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * len(bounds)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1

    def snapshot(self) -> dict[str, Any]:
        """``{"count", "sum", "buckets": [(le, cumulative_count), ...]}``."""
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "buckets": list(zip(self.buckets, self._counts)),
            }


class TelemetryRegistry:
    """Create-or-get histograms plus scrape-time collectors."""

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._histograms: dict[str, Histogram] = {}
        self._collectors: dict[str, Callable[[], Mapping[str, Any] | None]] = {}

    def histogram(
        self, name: str, buckets: Iterable[float] | None = None, help_: str = ""
    ) -> Histogram:
        """The histogram named ``name``, created on first request."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name, buckets, help_)
            return histogram

    # ------------------------------------------------------------------ #
    # collectors
    # ------------------------------------------------------------------ #
    def register_collector(
        self, name: str, fn: Callable[[], Mapping[str, Any] | None]
    ) -> None:
        """Poll ``fn`` at scrape time; its keys are prefixed with ``name``.

        ``fn`` may return ``None`` (nothing to report right now), a flat
        mapping of numbers, or a nested mapping — nesting is flattened
        with ``_`` joins and non-numeric leaves are dropped.  Collector
        failures are swallowed at scrape time: a broken subsystem must
        not take the whole telemetry endpoint down with it.
        """
        with self._lock:
            self._collectors[name] = fn

    @property
    def collector_names(self) -> list[str]:
        """Names of every registered collector, in registration order."""
        with self._lock:
            return list(self._collectors)

    def collect(self, name: str) -> Mapping[str, Any] | None:
        """One collector's own report, un-flattened and un-prefixed.

        ``None`` when no collector has that name or it has nothing to
        report right now.  Unlike :meth:`snapshot`, a collector's failure
        propagates: the caller asked for this island by name.
        """
        with self._lock:
            fn = self._collectors.get(name)
        return fn() if fn is not None else None

    # ------------------------------------------------------------------ #
    # scraping
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, float]:
        """One flat merged ``{metric_name: value}`` view of everything.

        Histograms contribute ``<name>_count`` and ``<name>_sum`` (bucket
        detail stays in the exposition format, where the schema can say
        what the numbers mean).
        """
        with self._lock:
            histograms = list(self._histograms.values())
        merged: dict[str, float] = {}
        for histogram in histograms:
            data = histogram.snapshot()
            merged[f"{histogram.name}_count"] = float(data["count"])
            merged[f"{histogram.name}_sum"] = float(data["sum"])
        for prefix in self.collector_names:
            try:
                values = self.collect(prefix)
            except Exception:  # noqa: BLE001 - a broken island must not kill the scrape
                continue
            if values is not None:
                _flatten_into(merged, prefix, values)
        return merged

    def exposition(self) -> str:
        """The registry in Prometheus text exposition format."""
        with self._lock:
            histograms = sorted(self._histograms.values(), key=lambda h: h.name)
        lines: list[str] = []
        covered: set[str] = set()
        for histogram in histograms:
            full = f"{self.namespace}_{sanitize_metric_name(histogram.name)}"
            if histogram.help:
                lines.append(f"# HELP {full} {histogram.help}")
            data = histogram.snapshot()
            lines.append(f"# TYPE {full} histogram")
            for bound, count in data["buckets"]:  # counts are cumulative
                lines.append(f'{full}_bucket{{le="{_format_value(bound)}"}} {count}')
            lines.append(f'{full}_bucket{{le="+Inf"}} {data["count"]}')
            lines.append(f"{full}_sum {_format_value(data['sum'])}")
            lines.append(f"{full}_count {data['count']}")
            covered.add(f"{histogram.name}_count")
            covered.add(f"{histogram.name}_sum")
        collected = {
            name: value for name, value in self.snapshot().items() if name not in covered
        }
        lines.extend(_render_lines(collected, self.namespace))
        return "\n".join(lines) + "\n" if lines else ""


def _flatten_into(merged: dict[str, float], prefix: str, values: Mapping[str, Any]) -> None:
    for key, value in values.items():
        name = f"{prefix}_{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            _flatten_into(merged, name, value)
        elif isinstance(value, bool):
            merged[name] = float(value)
        elif isinstance(value, (int, float)):
            merged[name] = float(value)
        # non-numeric leaves (names, paths) are stats, not metrics: dropped


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _render_lines(values: Mapping[str, float], namespace: str) -> list[str]:
    lines = []
    for name in sorted(values):
        value = values[name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        full = f"{namespace}_{sanitize_metric_name(name)}" if namespace else (
            sanitize_metric_name(name)
        )
        lines.append(f"# TYPE {full} gauge")
        lines.append(f"{full} {_format_value(float(value))}")
    return lines


def render_exposition(values: Mapping[str, float], namespace: str = "repro") -> str:
    """Render any flat numeric mapping (e.g. a merged fleet snapshot) as
    Prometheus text, every metric typed as a gauge."""
    lines = _render_lines(values, namespace)
    return "\n".join(lines) + "\n" if lines else ""


def merge_numeric(snapshots: Iterable[Mapping[str, Any]]) -> dict[str, float]:
    """Key-wise sum of flat numeric snapshots (the fleet merge rule).

    Counters sum naturally; gauges sum too — fleet totals, not averages —
    which is the useful reading for bytes-cached / queue-depth style
    gauges.  Per-worker detail stays available unmerged.
    """
    totals: dict[str, float] = {}
    for snapshot in snapshots:
        if not isinstance(snapshot, Mapping):
            continue
        for key, value in snapshot.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            totals[key] = totals.get(key, 0.0) + float(value)
    return totals
