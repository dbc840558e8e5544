"""Structured per-gesture tracing: span trees across threads and processes.

The tracing model is deliberately small.  A **trace** is the story of one
gesture (or one script) identified by a ``trace_id``; a **span** is one
timed step of that story (``queue_wait``, ``kernel_exec``, ``chunk_fault``,
``tail_scan``, ...) linked to its parent by
id.  Three pieces make it work end to end:

* :class:`Tracer` owns the policy — on/off, a deterministic
  ``sample_rate`` knob, a span cap per trace — and opens **root spans**
  with :meth:`Tracer.begin` / :meth:`Tracer.gesture`.  Finished traces go
  to a :class:`repro.obs.recorder.FlightRecorder`.
* Deep layers (kernel, indexing, paged storage) never see the tracer.
  They call the module-level :func:`trace_span` helper, which looks up
  the ambient active trace in a :class:`contextvars.ContextVar`.  With no
  active trace it returns a shared no-op context manager — the disabled
  cost is one context-variable read per call site, which is why
  instrumentation sits at gesture/fault/scan granularity and never inside
  per-touch loops.
* :class:`TraceContext` is the propagation capsule: ``(trace_id,
  parent_id, sampled)``.  It crosses scheduler threads explicitly (the
  submitting thread captures it, the worker thunk re-activates it) and
  crosses the wire as a plain dict under the ``trace`` key of request
  envelopes and pipe messages.  Each process records its own *partial*
  trace; :func:`stitch_traces` merges partials by ``trace_id`` back into
  one distributed span tree.

Nothing here touches ``GestureOutcome.counters`` or
``SessionMetrics.counters_snapshot()`` — traces measure wall time, which
is load-dependent by nature, while the parity contracts stay bit-exact.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

__all__ = [
    "Span",
    "Trace",
    "TraceConfig",
    "TraceContext",
    "Tracer",
    "current_trace_context",
    "stitch_traces",
    "trace_span",
]

_span_counter = itertools.count(1)


def _new_span_id() -> str:
    """A process-unique span id (pid-qualified so fleets never collide)."""
    return f"{os.getpid():x}.{next(_span_counter):x}"


def _new_trace_id() -> str:
    return uuid.uuid4().hex


@dataclass(frozen=True)
class TraceConfig:
    """Policy knobs of one :class:`Tracer`.

    Attributes
    ----------
    enabled:
        Master switch.  A disabled tracer opens no spans and allocates
        nothing per gesture.
    sample_rate:
        Fraction of locally-originated traces to record, applied with a
        deterministic error-accumulator (no randomness): ``0.25`` records
        exactly every 4th root.  Remote contexts carry their own sampling
        decision and bypass this knob.
    max_spans_per_trace:
        Cap on recorded spans per trace; extra spans are counted as
        dropped instead of growing without bound.
    slow_threshold_s:
        Root spans at least this slow also land in the flight recorder's
        slow-gesture log (``None`` disables the slow log).
    flight_recorder_capacity / slow_log_capacity:
        Ring-buffer sizes of the recorder a :class:`Tracer` builds for
        itself when none is supplied.
    site:
        Label stamped on every span this tracer records (``front-door``,
        ``worker-0``, ...) so stitched fleet traces say where each span
        ran.
    """

    enabled: bool = True
    sample_rate: float = 1.0
    max_spans_per_trace: int = 512
    slow_threshold_s: float | None = None
    flight_recorder_capacity: int = 64
    slow_log_capacity: int = 32
    site: str = "local"


@dataclass(frozen=True)
class TraceContext:
    """The propagation capsule: everything a trace needs to continue
    in another thread or process."""

    trace_id: str
    parent_id: str | None = None
    sampled: bool = True

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "sampled": self.sampled,
        }

    @staticmethod
    def from_dict(data: Any) -> "TraceContext | None":
        """Rehydrate a context from the wire; tolerant by design.

        Peers that predate tracing send nothing; hostile or mangled
        ``trace`` fields must degrade to "untraced", never to an error —
        observability can't be allowed to fail a gesture.
        """
        if not isinstance(data, Mapping):
            return None
        trace_id = data.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        parent_id = data.get("parent_id")
        if not isinstance(parent_id, str):
            parent_id = None
        return TraceContext(
            trace_id=trace_id,
            parent_id=parent_id,
            sampled=bool(data.get("sampled", True)),
        )


@dataclass
class Span:
    """One timed step of a trace, linked to its parent by id."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    site: str
    start_unix_s: float
    duration_s: float
    tags: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "site": self.site,
            "start_unix_s": self.start_unix_s,
            "duration_s": self.duration_s,
            "tags": dict(self.tags),
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "Span":
        tags = data.get("tags")
        return Span(
            name=str(data.get("name", "")),
            trace_id=str(data.get("trace_id", "")),
            span_id=str(data.get("span_id", "")),
            parent_id=(
                str(data["parent_id"]) if isinstance(data.get("parent_id"), str) else None
            ),
            site=str(data.get("site", "")),
            start_unix_s=float(data.get("start_unix_s", 0.0)),
            duration_s=float(data.get("duration_s", 0.0)),
            tags=dict(tags) if isinstance(tags, Mapping) else {},
        )


@dataclass
class Trace:
    """A (possibly partial) span tree sharing one ``trace_id``."""

    trace_id: str
    spans: list[Span] = field(default_factory=list)
    site: str = "local"

    @property
    def root(self) -> Span | None:
        """The span with no recorded parent (``None`` on headless partials)."""
        ids = {span.span_id for span in self.spans}
        for span in self.spans:
            if span.parent_id is None or span.parent_id not in ids:
                return span
        return None

    @property
    def duration_s(self) -> float:
        root = self.root
        return root.duration_s if root is not None else 0.0

    def find(self, name: str) -> list[Span]:
        """Every span named ``name``, in recorded order."""
        return [span for span in self.spans if span.name == name]

    def tree(self) -> list[dict[str, Any]]:
        """The span forest as nested ``{"span", "children"}`` dicts."""
        ids = {span.span_id for span in self.spans}
        by_parent: dict[str | None, list[Span]] = {}
        for span in self.spans:
            parent = span.parent_id if span.parent_id in ids else None
            by_parent.setdefault(parent, []).append(span)

        def build(span: Span) -> dict[str, Any]:
            children = sorted(
                by_parent.get(span.span_id, []), key=lambda s: s.start_unix_s
            )
            return {"span": span, "children": [build(child) for child in children]}

        roots = sorted(by_parent.get(None, []), key=lambda s: s.start_unix_s)
        return [build(span) for span in roots]

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "site": self.site,
            "spans": [span.to_dict() for span in self.spans],
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "Trace":
        spans_data = data.get("spans")
        spans = [
            Span.from_dict(entry)
            for entry in (spans_data if isinstance(spans_data, list) else [])
            if isinstance(entry, Mapping)
        ]
        return Trace(
            trace_id=str(data.get("trace_id", "")),
            spans=spans,
            site=str(data.get("site", "local")),
        )


def stitch_traces(parts: Iterable["Trace | Mapping[str, Any]"]) -> list[Trace]:
    """Merge partial traces (one per process/lane) by ``trace_id``.

    Each site in a fleet records only the spans it executed; draining
    every flight recorder and stitching reassembles the distributed span
    tree — parent links survive because span ids are pid-qualified and
    cross the wire inside :class:`TraceContext`.  Spans are ordered by
    wall-clock start; order between hosts is as good as their clocks.
    """
    merged: dict[str, Trace] = {}
    for part in parts:
        trace = part if isinstance(part, Trace) else Trace.from_dict(part)
        if not trace.trace_id:
            continue
        into = merged.setdefault(trace.trace_id, Trace(trace.trace_id, [], "stitched"))
        into.spans.extend(trace.spans)
    for trace in merged.values():
        trace.spans.sort(key=lambda span: span.start_unix_s)
    return list(merged.values())


# --------------------------------------------------------------------- #
# the ambient active trace
# --------------------------------------------------------------------- #

_CURRENT: ContextVar["_ActiveTrace | None"] = ContextVar(
    "repro_obs_active_trace", default=None
)


class _ActiveTrace:
    """Collection state of one sampled activation.

    Owned by exactly one thread (the scheduler hands each activation to a
    single worker; cross-thread continuation goes through a fresh
    activation via :class:`TraceContext`), so span bookkeeping needs no
    lock.
    """

    __slots__ = ("tracer", "trace_id", "site", "spans", "stack", "dropped", "limit")

    def __init__(
        self, tracer: "Tracer", trace_id: str, site: str, parent_id: str | None, limit: int
    ) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.site = site
        self.spans: list[Span] = []
        # stack[-1] is the id new spans attach under; the bottom entry is
        # the remote parent (None for a locally-rooted trace)
        self.stack: list[str | None] = [parent_id]
        self.dropped = 0
        self.limit = limit

    def open_span(self, name: str, tags: dict[str, Any]) -> Span:
        span = Span(
            name=name,
            trace_id=self.trace_id,
            span_id=_new_span_id(),
            parent_id=self.stack[-1],
            site=self.site,
            start_unix_s=time.time(),
            duration_s=0.0,
            tags=tags,
        )
        self.stack.append(span.span_id)
        return span

    def close_span(self, span: Span) -> None:
        self.stack.pop()
        if len(self.spans) < self.limit:
            self.spans.append(span)
        else:
            self.dropped += 1

    def record_completed(
        self, name: str, duration_s: float, tags: dict[str, Any] | None = None
    ) -> None:
        """Record an already-finished child span (e.g. ``queue_wait``)."""
        span = Span(
            name=name,
            trace_id=self.trace_id,
            span_id=_new_span_id(),
            parent_id=self.stack[-1],
            site=self.site,
            start_unix_s=time.time() - duration_s,
            duration_s=duration_s,
            tags=tags or {},
        )
        if len(self.spans) < self.limit:
            self.spans.append(span)
        else:
            self.dropped += 1


class _NullSpanContext:
    """The shared no-op returned when no trace is active (or tracing is
    off): entering yields ``None`` and records nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


class _SpanContext:
    """Context manager for one child span of the ambient active trace."""

    __slots__ = ("_active", "_name", "_tags", "_span", "_started")

    def __init__(self, active: _ActiveTrace, name: str, tags: dict[str, Any]) -> None:
        self._active = active
        self._name = name
        self._tags = tags
        self._span: Span | None = None
        self._started = 0.0

    def __enter__(self) -> Span:
        # the span opens on __enter__, not construction, so an un-entered
        # trace_span(...) expression can never unbalance the parent stack
        self._span = self._active.open_span(self._name, self._tags)
        self._started = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.duration_s = time.perf_counter() - self._started
        if exc_type is not None:
            self._span.tags["error"] = exc_type.__name__
        self._active.close_span(self._span)
        return False


def trace_span(name: str, **tags: Any) -> "_SpanContext | _NullSpanContext":
    """Open a child span under the ambient trace (no-op when untraced).

    This is the only tracing API deep layers use; tag values must be
    JSON-encodable scalars because spans cross the wire.
    """
    active = _CURRENT.get()
    if active is None:
        return _NULL_SPAN
    return _SpanContext(active, name, tags)


def current_trace_context() -> TraceContext | None:
    """The ambient trace as a propagation capsule (``None`` if untraced).

    Capture this on the submitting side of any thread/process hop and
    hand it to :meth:`Tracer.begin` (or put it on the wire) on the other
    side; the continued spans attach under the currently-open span.
    """
    active = _CURRENT.get()
    if active is None:
        return None
    return TraceContext(trace_id=active.trace_id, parent_id=active.stack[-1], sampled=True)


class RootSpan:
    """An explicitly-managed root span: :meth:`start`, then :meth:`finish`.

    The front door drives this directly (begin on submit, finish in a
    completion callback); everyone else uses the :meth:`Tracer.gesture`
    context manager, which wraps start/finish in try/finally.
    """

    __slots__ = ("_tracer", "_active", "_span", "_started", "_token", "_finished")

    def __init__(self, tracer: "Tracer", active: _ActiveTrace, name: str, tags: dict) -> None:
        self._tracer = tracer
        self._active = active
        self._span = active.open_span(name, tags)
        self._started = time.perf_counter()
        self._token = None
        self._finished = False

    @property
    def span_id(self) -> str:
        return self._span.span_id

    @property
    def trace_id(self) -> str:
        return self._active.trace_id

    def context(self) -> TraceContext:
        """A capsule continuing this trace under the root span."""
        return TraceContext(
            trace_id=self._active.trace_id, parent_id=self._span.span_id, sampled=True
        )

    def activate(self) -> None:
        """Install this trace as the thread's ambient active trace."""
        self._token = _CURRENT.set(self._active)

    def record_child(self, name: str, duration_s: float, **tags: Any) -> None:
        self._active.record_completed(name, duration_s, tags)

    def finish(self, error: BaseException | None = None) -> Trace:
        """Close the root, deactivate, and deliver the finished trace."""
        if self._finished:  # idempotent: callbacks and finally blocks race
            return Trace(self._active.trace_id, self._active.spans, self._active.site)
        self._finished = True
        self._span.duration_s = time.perf_counter() - self._started
        if error is not None:
            self._span.tags["error"] = type(error).__name__
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self._active.close_span(self._span)
        return self._tracer._finalize(self._active)


class Tracer:
    """Opens root spans per the configured policy and records finished
    traces into a flight recorder.

    Parameters
    ----------
    config:
        The :class:`TraceConfig` policy (defaults to enabled, sample-all).
    recorder:
        Destination for finished traces.  When omitted and tracing is
        enabled, the tracer builds its own
        :class:`repro.obs.recorder.FlightRecorder` from the config's
        capacity knobs.
    registry:
        Optional :class:`repro.obs.registry.TelemetryRegistry`; when
        given, the tracer keeps a histogram of root-span durations and
        registers its own counters as a scrape-time collector.
    """

    def __init__(self, config: TraceConfig | None = None, recorder=None, registry=None):
        self.config = config if config is not None else TraceConfig()
        if recorder is None and self.config.enabled:
            from repro.obs.recorder import FlightRecorder  # local: avoids module cycle

            recorder = FlightRecorder(
                capacity=self.config.flight_recorder_capacity,
                slow_threshold_s=self.config.slow_threshold_s,
                slow_capacity=self.config.slow_log_capacity,
            )
        self.recorder = recorder
        self.registry = registry
        self._lock = threading.Lock()
        self._accumulator = 0.0
        self._started = 0
        self._finished = 0
        self._sampled_out = 0
        self._spans_dropped = 0
        self._histogram = None
        if registry is not None:
            self._histogram = registry.histogram(
                "trace_root_seconds", help_="Duration of completed root spans."
            )
            registry.register_collector("tracer", self.stats_snapshot)

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def sample(self) -> bool:
        """The deterministic sampling decision for a locally-rooted trace."""
        if not self.config.enabled:
            return False
        rate = self.config.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        with self._lock:
            self._accumulator += rate
            if self._accumulator >= 1.0:
                self._accumulator -= 1.0
                return True
            return False

    def begin(
        self,
        name: str,
        ctx: TraceContext | None = None,
        queue_wait_s: float | None = None,
        activate: bool = True,
        **tags: Any,
    ) -> RootSpan | None:
        """Open (and activate) a root span; ``None`` when not sampled.

        A remote ``ctx`` carries the fleet's sampling decision and is
        honored as-is; without one, the local ``sample_rate`` decides and
        a fresh ``trace_id`` is minted.  ``queue_wait_s`` records the
        pre-execution scheduler wait as an already-completed child span.
        ``activate=False`` skips installing the ambient context variable —
        for callers like the front door that begin a root on one thread
        and finish it from a completion callback on another (a
        ``ContextVar`` token cannot be reset across threads).
        """
        if not self.config.enabled:
            return None
        if ctx is not None:
            if not ctx.sampled:
                return None
            trace_id, parent_id = ctx.trace_id, ctx.parent_id
        else:
            if not self.sample():
                with self._lock:
                    self._sampled_out += 1
                return None
            trace_id, parent_id = _new_trace_id(), None
        with self._lock:
            self._started += 1
        active = _ActiveTrace(
            self, trace_id, self.config.site, parent_id, self.config.max_spans_per_trace
        )
        root = RootSpan(self, active, name, tags)
        if activate:
            root.activate()
        if queue_wait_s is not None and queue_wait_s > 0.0:
            root.record_child("queue_wait", queue_wait_s)
        return root

    @contextmanager
    def gesture(
        self,
        name: str,
        ctx: TraceContext | None = None,
        queue_wait_s: float | None = None,
        **tags: Any,
    ) -> Iterator[RootSpan | None]:
        """Context-manager form of :meth:`begin`; always finishes the root
        (tagging the error type on exceptions), never swallows."""
        root = self.begin(name, ctx=ctx, queue_wait_s=queue_wait_s, **tags)
        if root is None:
            yield None
            return
        try:
            yield root
        except BaseException as exc:
            root.finish(error=exc)
            raise
        else:
            root.finish()

    def _finalize(self, active: _ActiveTrace) -> Trace:
        trace = Trace(trace_id=active.trace_id, spans=active.spans, site=active.site)
        with self._lock:
            self._finished += 1
            self._spans_dropped += active.dropped
        if self._histogram is not None:
            self._histogram.observe(trace.duration_s)
        if self.recorder is not None:
            self.recorder.record(trace)
        return trace

    def stats_snapshot(self) -> dict[str, int]:
        """The tracer's own counters (a telemetry collector)."""
        with self._lock:
            return {
                "traces_started": self._started,
                "traces_finished": self._finished,
                "traces_sampled_out": self._sampled_out,
                "spans_dropped": self._spans_dropped,
            }
