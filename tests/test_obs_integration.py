"""Trace propagation through the serving stack, in one process.

What the unit tests can't pin down: context crossing scheduler worker
threads, the background ingestion lane continuing an append's trace, a
gesture crashing mid-trace without leaking ambient context, the parity
contract surviving with tracing enabled, and the storage counters
surfacing through the server's telemetry plane.
"""

import numpy as np
import pytest

from repro.core.actions import summary_action
from repro.core.commands import ChooseAction, GestureScript, ShowColumn, Slide, Tap
from repro.errors import ExecutionError
from repro.obs import TraceConfig, TraceContext, Tracer, current_trace_context, stitch_traces
from repro.persist.diskstore import DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.service import MultiSessionServer
from repro.core.scheduler import SchedulerConfig
from repro.storage.column import Column

NUM_ROWS = 30_000


def make_script(view: str = "v") -> GestureScript:
    return GestureScript(
        [
            ShowColumn(object_name="data", view_name=view, height_cm=10.0),
            Slide(view=view, duration=1.0, start_fraction=0.1, end_fraction=0.6),
            Slide(view=view, duration=0.8, start_fraction=0.6, end_fraction=0.2),
        ]
    )


def traced_server(**kwargs) -> MultiSessionServer:
    server = MultiSessionServer(
        scheduler=SchedulerConfig(num_workers=2),
        tracing=TraceConfig(site="server"),
        **kwargs,
    )
    server.load_shared_column("data", np.arange(NUM_ROWS, dtype=np.int64))
    return server


class TestServerTracing:
    def test_scheduled_gesture_records_queue_wait_and_kernel_spans(self):
        server = traced_server()
        try:
            sid = server.open_session()
            for envelope in server.run(sid, make_script()):
                assert envelope.command_kind  # gestures executed normally
            traces = server.drain_traces()
            slides = [t for t in traces if t.root is not None and t.root.name == "slide"]
            assert len(slides) == 2
            for trace in slides:
                assert trace.root.tags["session"] == sid
                assert trace.find("kernel_exec"), trace.spans
                assert all(span.site == "server" for span in trace.spans)
        finally:
            server.shutdown()

    def test_counters_parity_with_tracing_enabled(self):
        """The parity contract: tracing must not perturb a single counter."""
        script = make_script()
        serial = MultiSessionServer()
        serial.load_shared_column("data", np.arange(NUM_ROWS, dtype=np.int64))
        sid = serial.open_session()
        serial.run(sid, script)
        baseline = serial.counters_report()[sid]
        serial.shutdown()

        traced = traced_server()
        try:
            sid = traced.open_session()
            traced.run(sid, script)
            assert traced.counters_report()[sid] == baseline
        finally:
            traced.shutdown()

    def test_sampling_off_records_nothing(self):
        server = MultiSessionServer(
            scheduler=SchedulerConfig(num_workers=2),
            tracing=TraceConfig(sample_rate=0.0),
        )
        server.load_shared_column("data", np.arange(NUM_ROWS, dtype=np.int64))
        try:
            sid = server.open_session()
            server.run(sid, make_script())
            assert server.drain_traces() == []
            assert server.tracer.stats_snapshot()["traces_started"] == 0
        finally:
            server.shutdown()

    def test_untraced_server_accepts_trace_capsules(self):
        """A tracing-disabled server ignores incoming contexts gracefully."""
        server = MultiSessionServer(scheduler=SchedulerConfig(num_workers=2))
        server.load_shared_column("data", np.arange(NUM_ROWS, dtype=np.int64))
        try:
            sid = server.open_session()
            ctx = TraceContext(trace_id="remote", parent_id="1.1")
            envelope = server.submit(
                sid, ShowColumn(object_name="data", view_name="v"), trace=ctx
            ).result(timeout=30.0)
            assert envelope.command_kind == "show-column"
            assert server.drain_traces() == []
        finally:
            server.shutdown()

    def test_remote_capsule_continues_across_the_scheduler(self):
        server = traced_server()
        try:
            sid = server.open_session()
            ctx = TraceContext(trace_id="front", parent_id="f.1")
            server.submit(
                sid, ShowColumn(object_name="data", view_name="v"), trace=ctx
            ).result(timeout=30.0)
            (trace,) = server.drain_traces()
            assert trace.trace_id == "front"
            assert trace.root.parent_id == "f.1"  # stitches under the remote span
        finally:
            server.shutdown()

    def test_crash_mid_trace_drains_partial_and_leaks_no_context(self):
        server = traced_server()
        try:
            sid = server.open_session()
            with pytest.raises(ExecutionError):
                server.submit(
                    sid, Slide(view="no-such-view", duration=0.5)
                ).result(timeout=30.0)
            (trace,) = server.drain_traces()
            assert trace.root.name == "slide"
            assert trace.root.tags["error"] == "ExecutionError"
            # the worker thread's ambient context must be gone: the next
            # gesture mints a fresh trace instead of nesting under the wreck
            server.submit(
                sid, ShowColumn(object_name="data", view_name="v2")
            ).result(timeout=30.0)
            (after,) = server.drain_traces()
            assert after.trace_id != trace.trace_id
            assert after.root.parent_id is None
            assert current_trace_context() is None
        finally:
            server.shutdown()

    def test_background_merge_continues_the_append_trace(self):
        server = traced_server(shared_index=True)
        try:
            sid = server.open_session()
            service = server.service(sid)
            service.kernel.show_column("data", view_name="v")
            assert server.append_rows(sid, "data", values=[1, 2, 3]) == NUM_ROWS + 3
            assert server.drain(timeout=30.0)
            parts = server.drain_traces()
            stitched = {t.root.name: t for t in stitch_traces(parts) if t.root}
            append = stitched["append"]
            merges = append.find("merge_tails")
            assert merges, [s.name for s in append.spans]
            assert merges[0].tags["lane"] == "background"
            # two partials, one trace: the merge ran on the background lane
            # yet its span sits under the append root
            assert merges[0].parent_id == append.root.span_id
        finally:
            server.shutdown()

    def test_unsampled_append_keeps_background_lane_untraced(self):
        server = MultiSessionServer(
            scheduler=SchedulerConfig(num_workers=2),
            tracing=TraceConfig(sample_rate=0.0, site="server"),
            shared_index=True,
        )
        server.load_shared_column("data", np.arange(NUM_ROWS, dtype=np.int64))
        try:
            sid = server.open_session()
            service = server.service(sid)
            service.kernel.show_column("data", view_name="v")
            server.append_rows(sid, "data", values=[5, 6])
            assert server.drain(timeout=30.0)
            assert server.drain_traces() == []
        finally:
            server.shutdown()


class TestServerTelemetry:
    def test_snapshot_federates_islands(self):
        server = traced_server(shared_index=True)
        try:
            sid = server.open_session()
            server.run(sid, make_script())
            server.drain(timeout=30.0)
            snapshot = server.telemetry_snapshot()
            assert snapshot["tracer_traces_finished"] >= 3
            assert snapshot["trace_root_seconds_count"] >= 3
            assert "scheduler_completed" in snapshot
            assert "flight_recorder_traces_buffered" in snapshot
            assert any(key.startswith("index_") for key in snapshot)
            assert any(key.startswith("server_") for key in snapshot)
            text = server.exposition()
            assert "# TYPE repro_trace_root_seconds histogram" in text
            assert 'repro_trace_root_seconds_bucket{le="+Inf"}' in text
        finally:
            server.shutdown()

    def test_storage_counters_reach_the_telemetry_plane(self, tmp_path):
        catalog = StoreCatalog(DiskColumnStore(tmp_path))
        catalog.persist_column(Column("cold", np.arange(100_000, dtype=np.int64)))
        server = MultiSessionServer(
            scheduler=SchedulerConfig(num_workers=2),
            tracing=TraceConfig(),
        )
        try:
            snapshot = StoreCatalog.open_read_only(tmp_path, cache_bytes=1 << 20)
            server.load_shared_store(snapshot)
            sid = server.open_session()
            server.run(
                sid,
                GestureScript(
                    [
                        ShowColumn(object_name="cold", view_name="v", height_cm=10.0),
                        # a scan slide gathers rows through the mapping ...
                        Slide(view="v", duration=1.0, start_fraction=0.0, end_fraction=0.5),
                        # ... a tap's stride-1 summary window is a range
                        # read through the chunk layer
                        ChooseAction(view="v", action=summary_action(k=10)),
                        Tap(view="v", fraction=0.3),
                    ]
                ),
            )
            storage = server.telemetry.collect("storage")
            assert storage is not None
            assert storage["rows_gathered"] > 0
            assert storage["chunk_misses"] > 0
            assert storage["bytes_cached"] > 0
            assert storage["chunk_budget_bytes"] == 1 << 20
            telemetry = server.telemetry_snapshot()
            assert telemetry["storage_chunk_misses"] == storage["chunk_misses"]
            # the paged tier shows up inside the tap's trace too
            traces = server.drain_traces()
            faults = [s for t in traces for s in t.find("chunk_fault")]
            assert faults and all(f.duration_s >= 0.0 for f in faults)
        finally:
            server.shutdown()

    def test_storage_stats_none_without_stores(self):
        server = MultiSessionServer()
        try:
            assert server.telemetry.collect("storage") is None
            assert "storage_chunk_misses" not in server.telemetry_snapshot()
        finally:
            server.shutdown()

    def test_a_new_island_is_one_register_collector_call(self):
        server = MultiSessionServer()
        server.telemetry.register_collector("demo", lambda: {"x": 2})
        assert server.telemetry.collect("demo") == {"x": 2}
        assert "demo" in server.telemetry.collector_names
        assert server.telemetry_snapshot()["demo_x"] == 2.0
        assert "repro_demo_x 2\n" in server.exposition()

    def test_stats_methods_are_views_of_their_collectors(self):
        server = MultiSessionServer(shared_index=True)
        sid = server.open_session()
        server.load_column(sid, "data", np.arange(NUM_ROWS, dtype=np.int64))
        server.run(sid, make_script())
        assert server.index_stats() == server.index_manager.stats_snapshot()
        assert server.index_stats() == server.telemetry.collect("index")
        # nothing registered, nothing to report: the None cases
        assert server.scheduler_stats() is None
        assert server.telemetry.collect("no-such-island") is None
        assert "speculation" not in server.telemetry.collector_names

    def test_flight_recorder_property_and_slow_log(self):
        server = MultiSessionServer(
            scheduler=SchedulerConfig(num_workers=2),
            tracing=TraceConfig(slow_threshold_s=0.0),
        )
        server.load_shared_column("data", np.arange(1_000, dtype=np.int64))
        try:
            sid = server.open_session()
            server.submit(
                sid, ShowColumn(object_name="data", view_name="v")
            ).result(timeout=30.0)
            assert len(server.flight_recorder) == 1
            slow = server.drain_slow_traces()
            assert len(slow) == 1  # threshold 0: everything is "slow"
            assert server.drain_slow_traces() == []
        finally:
            server.shutdown()

    def test_tracer_instance_and_bool_configs(self):
        tracer = Tracer(TraceConfig(site="mine"))
        server = MultiSessionServer(tracing=tracer)
        assert server.tracer is tracer
        server.shutdown()
        on = MultiSessionServer(tracing=True)
        assert on.tracer.enabled
        on.shutdown()
        off = MultiSessionServer(tracing=False)
        assert not off.tracer.enabled
        off.shutdown()
