"""Unit tests for the telemetry plane: tracing, registry, recorder, stats.

Covers the pieces in isolation — span trees and cross-process stitching,
deterministic sampling, the instrument/collector registry with its
Prometheus text exposition, the bounded flight recorder, and the shared
nearest-rank quantile that :mod:`repro.service` delegates to.
"""

import re
import threading

import pytest

from repro.obs import (
    FlightRecorder,
    TelemetryRegistry,
    Trace,
    TraceConfig,
    TraceContext,
    Tracer,
    current_trace_context,
    merge_numeric,
    nearest_rank,
    render_exposition,
    stitch_traces,
    trace_span,
)
from repro.obs.registry import Histogram
from repro.obs.trace import Span


class TestTraceContext:
    def test_round_trip(self):
        ctx = TraceContext(trace_id="abc", parent_id="1.2", sampled=True)
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    @pytest.mark.parametrize(
        "data",
        [None, "not-a-dict", 42, [], {}, {"trace_id": ""}, {"trace_id": 7}],
    )
    def test_malformed_degrades_to_none(self, data):
        assert TraceContext.from_dict(data) is None

    def test_mangled_fields_tolerated(self):
        ctx = TraceContext.from_dict({"trace_id": "t", "parent_id": 99, "sampled": "yes"})
        assert ctx == TraceContext(trace_id="t", parent_id=None, sampled=True)

    def test_unsampled_survives_the_wire(self):
        ctx = TraceContext.from_dict({"trace_id": "t", "sampled": False})
        assert ctx is not None and not ctx.sampled


class TestTracer:
    def test_disabled_tracer_is_inert(self):
        tracer = Tracer(TraceConfig(enabled=False))
        assert tracer.begin("gesture") is None
        assert tracer.recorder is None
        with tracer.gesture("gesture") as root:
            assert root is None
        assert current_trace_context() is None

    def test_untraced_span_helpers_are_noops(self):
        with trace_span("kernel_exec", object="c") as span:
            assert span is None
        assert current_trace_context() is None

    def test_root_and_children_form_a_tree(self):
        tracer = Tracer(TraceConfig(site="here"))
        with tracer.gesture("slide", session="s1") as root:
            with trace_span("kernel_exec", gesture="slide") as kexec:
                with trace_span("crack", column="c"):
                    pass
            with trace_span("tail_scan", rows=2):
                pass
        trace = tracer.recorder.drain()[0]
        assert trace.root.name == "slide"
        assert trace.root.tags == {"session": "s1"}
        names = {span.name for span in trace.spans}
        assert names == {"slide", "kernel_exec", "crack", "tail_scan"}
        (crack,) = trace.find("crack")
        assert crack.parent_id == kexec.span_id
        assert trace.tree()[0]["children"]
        assert all(span.site == "here" for span in trace.spans)
        assert all(span.duration_s >= 0.0 for span in trace.spans)

    def test_context_resets_after_finish(self):
        tracer = Tracer(TraceConfig())
        with tracer.gesture("tap"):
            assert current_trace_context() is not None
        assert current_trace_context() is None

    def test_exception_tags_error_and_resets_context(self):
        tracer = Tracer(TraceConfig())
        with pytest.raises(RuntimeError):
            with tracer.gesture("slide"):
                with trace_span("kernel_exec"):
                    raise RuntimeError("boom")
        assert current_trace_context() is None  # no leaked context
        trace = tracer.recorder.drain()[0]  # partial trace still drains
        assert trace.root.tags["error"] == "RuntimeError"
        (kexec,) = trace.find("kernel_exec")
        assert kexec.tags["error"] == "RuntimeError"

    def test_deterministic_sampling(self):
        tracer = Tracer(TraceConfig(sample_rate=0.25))
        sampled = 0
        for _ in range(16):
            root = tracer.begin("g")
            if root is not None:
                sampled += 1
                root.finish()
        # exactly every 4th locally-rooted trace is sampled, no randomness
        assert sampled == 4
        assert tracer.stats_snapshot()["traces_sampled_out"] == 12

    def test_zero_rate_samples_nothing(self):
        tracer = Tracer(TraceConfig(sample_rate=0.0))
        assert all(tracer.begin("g") is None for _ in range(8))

    def test_remote_context_bypasses_sampling(self):
        tracer = Tracer(TraceConfig(sample_rate=0.0))
        ctx = TraceContext(trace_id="remote", parent_id="1.1")
        root = tracer.begin("g", ctx=ctx)
        assert root is not None and root.trace_id == "remote"
        trace = root.finish()
        assert trace.root.parent_id == "1.1"

    def test_unsampled_remote_context_is_honored(self):
        tracer = Tracer(TraceConfig(sample_rate=1.0))
        assert tracer.begin("g", ctx=TraceContext("t", sampled=False)) is None

    def test_queue_wait_recorded_as_completed_child(self):
        tracer = Tracer(TraceConfig())
        root = tracer.begin("slide", queue_wait_s=0.125)
        trace = root.finish()
        (wait,) = trace.find("queue_wait")
        assert wait.duration_s == pytest.approx(0.125)
        assert wait.parent_id == trace.root.span_id

    def test_span_cap_counts_drops(self):
        tracer = Tracer(TraceConfig(max_spans_per_trace=3))
        with tracer.gesture("g"):
            for _ in range(5):
                with trace_span("chunk_fault"):
                    pass
        trace = tracer.recorder.drain()[0]
        assert len(trace.spans) == 3
        assert tracer.stats_snapshot()["spans_dropped"] == 3  # 2 faults + root

    def test_begin_without_activate_keeps_thread_clean(self):
        tracer = Tracer(TraceConfig())
        root = tracer.begin("execute", activate=False)
        assert current_trace_context() is None
        done = threading.Event()

        def finish_elsewhere():
            root.finish()
            done.set()

        threading.Thread(target=finish_elsewhere).start()
        assert done.wait(5.0)
        assert tracer.recorder.drain()[0].root.name == "execute"

    def test_registry_integration(self):
        registry = TelemetryRegistry()
        tracer = Tracer(TraceConfig(), registry=registry)
        with tracer.gesture("tap"):
            pass
        snapshot = registry.snapshot()
        assert snapshot["trace_root_seconds_count"] == 1.0
        assert snapshot["tracer_traces_finished"] == 1.0

    def test_cross_thread_continuation(self):
        tracer = Tracer(TraceConfig())
        with tracer.gesture("append") as root:
            capsule = root.context()
        with tracer.gesture("merge_tails", ctx=capsule):
            pass
        parts = tracer.recorder.drain()
        (stitched,) = stitch_traces(parts)
        (merge,) = stitched.find("merge_tails")
        assert merge.parent_id == stitched.find("append")[0].span_id


class TestStitching:
    def test_merges_partials_by_trace_id_across_wire_dicts(self):
        tracer_a = Tracer(TraceConfig(site="front-door"))
        root = tracer_a.begin("execute", activate=False)
        capsule = TraceContext.from_dict(root.context().to_dict())
        tracer_b = Tracer(TraceConfig(site="worker-0"))
        with tracer_b.gesture("slide", ctx=capsule):
            with trace_span("kernel_exec"):
                pass
        root.finish()
        parts = [t.to_dict() for t in tracer_a.recorder.drain()]
        parts += [t.to_dict() for t in tracer_b.recorder.drain()]
        (trace,) = stitch_traces(parts)
        assert trace.root.name == "execute" and trace.root.site == "front-door"
        tree = trace.tree()
        assert len(tree) == 1  # one connected tree, not a forest
        slide = trace.find("slide")[0]
        assert slide.parent_id == trace.root.span_id
        assert slide.site == "worker-0"

    def test_unrelated_traces_stay_separate(self):
        parts = [
            Trace("t1", [Span("a", "t1", "1.1", None, "x", 1.0, 0.1)]),
            Trace("t2", [Span("b", "t2", "1.2", None, "x", 2.0, 0.1)]),
            {"trace_id": "", "spans": []},  # id-less partial is skipped
        ]
        merged = {t.trace_id: t for t in stitch_traces(parts)}
        assert set(merged) == {"t1", "t2"}

    def test_trace_wire_round_trip(self):
        span = Span("slide", "t", "1.1", None, "w", 12.5, 0.25, {"rows": 10})
        trace = Trace("t", [span], site="worker-3")
        rebuilt = Trace.from_dict(trace.to_dict())
        assert rebuilt.site == "worker-3"
        assert rebuilt.spans[0].tags == {"rows": 10}
        assert rebuilt.duration_s == pytest.approx(0.25)


class TestRegistry:
    def test_histogram_create_or_get(self):
        registry = TelemetryRegistry()
        histogram = registry.histogram("latency_seconds")
        assert registry.histogram("latency_seconds") is histogram

    def test_histogram_buckets_are_cumulative(self):
        hist = Histogram("h", buckets=[0.1, 1.0])
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["buckets"] == [(0.1, 1), (1.0, 2)]  # cumulative

    def test_collectors_flatten_and_survive_failure(self):
        registry = TelemetryRegistry()
        registry.register_collector("index", lambda: {"cracks": 4, "inner": {"hits": 2}})
        registry.register_collector("broken", lambda: 1 / 0)
        registry.register_collector("silent", lambda: None)
        registry.register_collector("mixed", lambda: {"name": "alice", "ok": True})
        snapshot = registry.snapshot()
        assert snapshot["index_cracks"] == 4.0
        assert snapshot["index_inner_hits"] == 2.0
        assert snapshot["mixed_ok"] == 1.0  # bools count, strings drop
        assert "mixed_name" not in snapshot

    def test_exposition_is_well_formed(self):
        registry = TelemetryRegistry()
        registry.histogram(
            "latency_seconds", buckets=[0.1, 1.0], help_="Gesture latency."
        ).observe(0.2)
        # the space gets sanitized
        registry.register_collector("scheduler", lambda: {"queued": 2, "bytes cached": 1.5})
        text = registry.exposition()
        assert "# HELP repro_latency_seconds Gesture latency." in text
        assert "# TYPE repro_latency_seconds histogram" in text
        assert "repro_scheduler_bytes_cached 1.5" in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_scheduler_queued 2" in text
        metric_line = re.compile(
            r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
            r'|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?[0-9.eE+-]+(Inf|NaN)?)$'
        )
        for line in text.strip().splitlines():
            assert metric_line.match(line), f"malformed exposition line: {line!r}"

    def test_render_exposition_for_merged_fleets(self):
        text = render_exposition({"chunk_hits": 7, "weird key!": 1})
        assert "# TYPE repro_chunk_hits gauge" in text
        assert "repro_chunk_hits 7" in text
        assert "repro_weird_key_ 1" in text
        assert render_exposition({}) == ""

    def test_merge_numeric_sums_keywise(self):
        merged = merge_numeric(
            [{"a": 1, "b": 2.5}, {"a": 3, "c": True, "d": "drop"}, "garbage"]
        )
        # bools and strings are stats, not summable metrics: dropped
        assert merged == {"a": 4.0, "b": 2.5}


class TestFlightRecorder:
    @staticmethod
    def _trace(duration: float, trace_id: str = "t") -> Trace:
        return Trace(trace_id, [Span("g", trace_id, "1.1", None, "x", 0.0, duration)])

    def test_ring_evicts_oldest_and_counts_drops(self):
        recorder = FlightRecorder(capacity=2)
        for index in range(3):
            recorder.record(self._trace(0.1, f"t{index}"))
        assert len(recorder) == 2
        stats = recorder.stats_snapshot()
        assert stats["traces_recorded"] == 3 and stats["traces_dropped"] == 1
        assert [t.trace_id for t in recorder.drain()] == ["t1", "t2"]
        assert len(recorder) == 0

    def test_slow_log_thresholds(self):
        recorder = FlightRecorder(capacity=8, slow_threshold_s=0.5)
        recorder.record(self._trace(0.1, "fast"))
        recorder.record(self._trace(0.9, "slow"))
        assert [t.trace_id for t in recorder.slow_traces()] == ["slow"]
        assert [t.trace_id for t in recorder.drain_slow()] == ["slow"]
        assert recorder.drain_slow() == []
        assert recorder.stats_snapshot()["slow_traces_recorded"] == 1

    def test_tracer_slow_threshold_feeds_slow_log(self):
        tracer = Tracer(TraceConfig(slow_threshold_s=0.0))
        with tracer.gesture("slide"):
            pass
        assert len(tracer.recorder.slow_traces()) == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestNearestRank:
    def test_edges(self):
        assert nearest_rank([], 0.5) == 0.0
        assert nearest_rank([3.0], 0.5) == 3.0
        ordered = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert nearest_rank(ordered, 0.5) == 3.0
        assert nearest_rank(ordered, 1.0) == 5.0
        assert nearest_rank(ordered, 0.01) == 1.0

    @pytest.mark.parametrize("q", [0.0, -0.1, 1.5])
    def test_out_of_range_raises(self, q):
        with pytest.raises(ValueError):
            nearest_rank([1.0], q)
