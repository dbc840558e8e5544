"""Unit tests for the concurrent gesture scheduler and its serving knobs.

Covers the scheduler's contract in isolation (FIFO per session, cross-
session parallelism, think-time pacing, admission control, lifecycle) plus
the supporting pieces: result-stream retention bounds and the thread-safe
session metrics percentiles.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.result_stream import ResultStream
from repro.core.scheduler import (
    GestureScheduler,
    InlineLane,
    SchedulerConfig,
    SchedulerStats,
)
from repro.errors import AdmissionError, ServiceError, VisualizationError
from repro.service import OutcomeEnvelope, SessionMetrics


def make_scheduler(**kwargs) -> GestureScheduler:
    defaults = dict(num_workers=2, max_pending=64, max_session_pending=32)
    defaults.update(kwargs)
    return GestureScheduler(config=SchedulerConfig(**defaults))


class TestSchedulerConfig:
    def test_validation(self):
        with pytest.raises(ServiceError):
            SchedulerConfig(num_workers=0)
        with pytest.raises(ServiceError):
            SchedulerConfig(max_pending=0)
        with pytest.raises(ServiceError):
            SchedulerConfig(max_session_pending=0)
        with pytest.raises(ServiceError):
            SchedulerConfig(submit_block_s=-1.0)


class TestSchedulerOrdering:
    def test_per_session_fifo_order_is_preserved(self):
        scheduler = make_scheduler(num_workers=4, max_pending=256)
        observed: dict[str, list[int]] = {"a": [], "b": [], "c": []}

        def work(session_id: str, index: int):
            def run():
                observed[session_id].append(index)
                return index

            return run

        for session_id in observed:
            scheduler.register_session(session_id)
        try:
            futures = []
            for index in range(25):
                for session_id in observed:
                    futures.append(scheduler.submit(session_id, work(session_id, index)))
            assert [f.result(timeout=10) for f in futures] == [
                i for i in range(25) for _ in observed
            ]
            assert scheduler.drain(timeout=10)
        finally:
            scheduler.shutdown()
        for session_id, order in observed.items():
            assert order == list(range(25)), session_id

    def test_results_and_exceptions_travel_through_futures(self):
        scheduler = make_scheduler()
        scheduler.register_session("s")
        try:
            ok = scheduler.submit("s", lambda: 41 + 1)
            boom = scheduler.submit("s", lambda: 1 / 0)
            after = scheduler.submit("s", lambda: "still running")
            assert ok.result(timeout=5) == 42
            with pytest.raises(ZeroDivisionError):
                boom.result(timeout=5)
            # a failing item does not wedge the session's queue
            assert after.result(timeout=5) == "still running"
            assert scheduler.stats.failed == 1
        finally:
            scheduler.shutdown()

    def test_sessions_execute_in_parallel_across_workers(self):
        """Two sessions must be in-flight simultaneously: session A's item
        blocks until session B's item runs, which only works if both are
        dispatched to different workers at the same time."""
        scheduler = make_scheduler(num_workers=2)
        scheduler.register_session("a")
        scheduler.register_session("b")
        a_started = threading.Event()
        b_ran = threading.Event()

        def work_a():
            a_started.set()
            assert b_ran.wait(timeout=5), "session b never ran concurrently"
            return "a"

        def work_b():
            assert a_started.wait(timeout=5)
            b_ran.set()
            return "b"

        try:
            fa = scheduler.submit("a", work_a)
            fb = scheduler.submit("b", work_b)
            assert fa.result(timeout=10) == "a"
            assert fb.result(timeout=10) == "b"
        finally:
            scheduler.shutdown()

    def test_one_session_never_runs_on_two_workers(self):
        scheduler = make_scheduler(num_workers=4)
        scheduler.register_session("s")
        active = 0
        peak = 0
        lock = threading.Lock()

        def run():
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            time.sleep(0.002)
            with lock:
                active -= 1

        try:
            futures = [scheduler.submit("s", run) for _ in range(20)]
            for future in futures:
                future.result(timeout=10)
        finally:
            scheduler.shutdown()
        assert peak == 1


class TestThinkTimePacing:
    def test_think_time_delays_execution_without_occupying_workers(self):
        scheduler = make_scheduler(num_workers=1)
        scheduler.register_session("thinker")
        scheduler.register_session("worker")
        stamps: list[tuple[str, float]] = []
        lock = threading.Lock()

        def mark(tag: str):
            def run():
                with lock:
                    stamps.append((tag, time.monotonic()))

            return run

        try:
            start = time.monotonic()
            slow = scheduler.submit("thinker", mark("thinker"), think_s=0.15)
            fast = scheduler.submit("worker", mark("worker"))
            fast.result(timeout=5)
            slow.result(timeout=5)
        finally:
            scheduler.shutdown()
        by_tag = dict(stamps)
        # the un-paced session ran while the paced one was still thinking,
        # even though there is only one worker
        assert by_tag["worker"] - start < 0.1
        assert by_tag["thinker"] - start >= 0.12

    def test_think_time_is_enforced_between_consecutive_commands(self):
        scheduler = make_scheduler(num_workers=2)
        scheduler.register_session("s")
        done: list[float] = []
        try:
            first = scheduler.submit("s", lambda: done.append(time.monotonic()))
            second = scheduler.submit(
                "s", lambda: done.append(time.monotonic()), think_s=0.1
            )
            second.result(timeout=5)
            first.result(timeout=5)
        finally:
            scheduler.shutdown()
        assert len(done) == 2
        assert done[1] - done[0] >= 0.08

    def test_delayed_session_never_waits_for_a_busy_watcher(self):
        """Regression: when the worker watching the timer heap dispatches
        other work, it must hand the watch to an idle worker — otherwise a
        parked session's deadline passes with every other worker asleep in
        an untimed wait, and the session stalls until the busy worker's
        (long) command finishes."""
        scheduler = make_scheduler(num_workers=2)
        scheduler.register_session("far")
        scheduler.register_session("near")
        start = time.monotonic()
        stamps: dict[str, float] = {}

        def near_work():
            stamps["near"] = time.monotonic() - start
            time.sleep(0.5)  # the watcher that dispatched this goes busy

        def far_work():
            stamps["far"] = time.monotonic() - start

        try:
            far = scheduler.submit("far", far_work, think_s=0.25)
            near = scheduler.submit("near", near_work, think_s=0.05)
            far.result(timeout=5)
            near.result(timeout=5)
        finally:
            scheduler.shutdown()
        assert stamps["near"] <= 0.2
        # 'far' must run at ~its 0.25s deadline via the idle worker, not at
        # ~0.55s when the busy worker frees up
        assert 0.2 <= stamps["far"] <= 0.45

    def test_negative_think_rejected(self):
        scheduler = make_scheduler()
        scheduler.register_session("s")
        try:
            with pytest.raises(ServiceError):
                scheduler.submit("s", lambda: None, think_s=-0.1)
        finally:
            scheduler.shutdown()


class TestAdmissionControl:
    def test_global_capacity_rejects_immediately(self):
        scheduler = make_scheduler(
            num_workers=1, max_pending=2, max_session_pending=32, submit_block_s=0.05
        )
        scheduler.register_session("s")
        gate = threading.Event()
        try:
            scheduler.submit("s", gate.wait)
            scheduler.submit("s", lambda: None)
            with pytest.raises(AdmissionError):
                scheduler.submit("s", lambda: None)
            assert scheduler.stats.rejected == 1
            gate.set()
            assert scheduler.drain(timeout=5)
        finally:
            gate.set()
            scheduler.shutdown()

    def test_full_session_queue_blocks_then_rejects(self):
        scheduler = make_scheduler(
            num_workers=1, max_pending=64, max_session_pending=1, submit_block_s=0.1
        )
        scheduler.register_session("s")
        gate = threading.Event()
        try:
            scheduler.submit("s", gate.wait)  # occupies the worker
            scheduler.submit("s", lambda: None)  # fills the queue (depth 1)
            started = time.monotonic()
            with pytest.raises(AdmissionError):
                scheduler.submit("s", lambda: None)
            # the submit exercised backpressure: it blocked ~submit_block_s
            assert time.monotonic() - started >= 0.08
            gate.set()
            assert scheduler.drain(timeout=5)
        finally:
            gate.set()
            scheduler.shutdown()

    def test_backpressured_submit_proceeds_once_space_frees(self):
        scheduler = make_scheduler(
            num_workers=1, max_pending=64, max_session_pending=1, submit_block_s=5.0
        )
        scheduler.register_session("s")
        gate = threading.Event()
        try:
            scheduler.submit("s", gate.wait)
            scheduler.submit("s", lambda: "queued")
            released = threading.Timer(0.05, gate.set)
            released.start()
            # blocks until the first item finishes, then lands normally
            late = scheduler.submit("s", lambda: "late")
            assert late.result(timeout=5) == "late"
            released.join()
        finally:
            gate.set()
            scheduler.shutdown()


class TestSchedulerLifecycle:
    def test_unknown_session_rejected(self):
        scheduler = make_scheduler()
        try:
            with pytest.raises(ServiceError):
                scheduler.submit("ghost", lambda: None)
            with pytest.raises(ServiceError):
                scheduler.unregister_session("ghost")
            with pytest.raises(ServiceError):
                scheduler.queue_depth("ghost")
        finally:
            scheduler.shutdown()

    def test_duplicate_registration_rejected(self):
        scheduler = make_scheduler()
        scheduler.register_session("s")
        try:
            with pytest.raises(ServiceError):
                scheduler.register_session("s")
        finally:
            scheduler.shutdown()

    def test_unregister_cancels_queued_work_but_finishes_inflight(self):
        scheduler = make_scheduler(num_workers=1)
        scheduler.register_session("s")
        gate = threading.Event()
        inflight_started = threading.Event()

        def inflight():
            inflight_started.set()
            gate.wait(timeout=5)
            return "done"

        try:
            running = scheduler.submit("s", inflight)
            queued = [scheduler.submit("s", lambda: None) for _ in range(3)]
            assert inflight_started.wait(timeout=5)
            threading.Timer(0.05, gate.set).start()
            cancelled = scheduler.unregister_session("s")
            assert cancelled == 3
            assert running.result(timeout=5) == "done"
            for future in queued:
                assert future.cancelled()
            assert "s" not in scheduler.session_ids
            assert scheduler.stats.cancelled == 3
        finally:
            gate.set()
            scheduler.shutdown()

    def test_submit_racing_a_close_is_rejected_or_cancelled_never_stranded(self):
        """Regression: while unregister_session waits out the in-flight
        item, a racing submit must either be rejected (session closing) or
        have its future cancelled by the teardown — a future that never
        resolves would hang its caller and leak pending accounting."""
        scheduler = make_scheduler(num_workers=1)
        scheduler.register_session("s")
        gate = threading.Event()
        started = threading.Event()

        def inflight():
            started.set()
            gate.wait(timeout=5)

        running = scheduler.submit("s", inflight)
        assert started.wait(timeout=5)
        closer = threading.Thread(target=scheduler.unregister_session, args=("s",))
        closer.start()
        accepted = []
        rejected = False
        deadline = time.monotonic() + 2.0
        try:
            while time.monotonic() < deadline:
                try:
                    accepted.append(scheduler.submit("s", lambda: None))
                except ServiceError:
                    rejected = True
                    break
                time.sleep(0.002)
            gate.set()
            closer.join(timeout=5)
            assert not closer.is_alive()
            assert rejected, "closing session kept accepting work"
            assert running.result(timeout=5) is None
            for future in accepted:
                assert future.cancelled(), "a racing submit was stranded"
            assert scheduler.drain(timeout=5)
            stats = scheduler.stats
            assert stats.submitted == stats.completed + stats.cancelled
        finally:
            gate.set()
            scheduler.shutdown()

    def test_queue_depth_counts_queued_and_executing(self):
        scheduler = make_scheduler(num_workers=1)
        scheduler.register_session("s")
        gate = threading.Event()
        started = threading.Event()

        def blocker():
            started.set()
            gate.wait(timeout=5)

        try:
            scheduler.submit("s", blocker)
            assert started.wait(timeout=5)
            scheduler.submit("s", lambda: None)
            assert scheduler.queue_depth("s") == 2
            assert scheduler.queue_depth() == 2
            gate.set()
            assert scheduler.drain(timeout=5)
            assert scheduler.queue_depth() == 0
        finally:
            gate.set()
            scheduler.shutdown()

    def test_shutdown_drains_then_rejects_new_work(self):
        scheduler = make_scheduler()
        scheduler.register_session("s")
        results = [scheduler.submit("s", lambda i=i: i) for i in range(10)]
        scheduler.shutdown(wait=True)
        assert [f.result(timeout=1) for f in results] == list(range(10))
        with pytest.raises(ServiceError):
            scheduler.submit("s", lambda: None)

    def test_stats_snapshot_shape(self):
        stats = SchedulerStats()
        snapshot = stats.snapshot()
        assert set(snapshot) == {
            "submitted",
            "completed",
            "failed",
            "rejected",
            "cancelled",
            "peak_pending",
        }

    def test_context_manager_shuts_down(self):
        with make_scheduler() as scheduler:
            scheduler.register_session("s")
            assert scheduler.submit("s", lambda: "ok").result(timeout=5) == "ok"
        with pytest.raises(ServiceError):
            scheduler.submit("s", lambda: None)


class TestResultStreamRetention:
    """A stream retains the newest ``max_visible`` results: a fixed ring."""

    def test_bounded_by_max_visible_by_default(self):
        stream = ResultStream()
        for i in range(100):
            stream.emit(i, i, 0.5, float(i))
        assert stream.max_visible == 50
        assert len(stream) == 50
        assert stream.total_emitted == 100
        assert stream.values == list(range(50, 100))

    def test_the_ring_drops_oldest(self):
        stream = ResultStream(max_visible=10)
        for i in range(25):
            stream.emit(i, i, 0.5, float(i))
        assert len(stream) == 10
        assert stream.total_emitted == 25
        assert stream.values == list(range(15, 25))
        assert [r.rowid for r in stream] == list(range(15, 25))
        # the newest value is untouched by the bound
        assert stream.values[-1] == 24

    def test_emit_batch_respects_retention(self):
        stream = ResultStream(max_visible=5)
        stream.emit(-1, 0, 0.5, 0.0)
        emitted = stream.emit_batch(
            list(range(12)),
            list(range(12)),
            [0.5] * 12,
            [float(i) for i in range(12)],
        )
        assert len(stream) == 5
        assert stream.total_emitted == 13
        assert stream.values == list(range(7, 12))
        # the gesture keeps its whole batch; only the stream is bounded
        assert [r.value for r in emitted] == list(range(12))

    def test_clear_resets_counters(self):
        stream = ResultStream(max_visible=3)
        for i in range(5):
            stream.emit(i, i, 0.5, float(i))
        stream.clear()
        assert len(stream) == 0
        assert stream.total_emitted == 0
        assert list(stream) == []
        stream.emit(9, 9, 0.5, 0.0)  # no timestamp is left to be behind
        assert stream.values == [9]


class TestSessionMetricsConcurrency:
    @staticmethod
    def envelope(entries: int = 1, tuples: int = 2) -> OutcomeEnvelope:
        return OutcomeEnvelope(
            command_kind="slide",
            backend="local",
            entries_returned=entries,
            tuples_examined=tuples,
            duration_s=0.5,
        )

    def test_percentiles_nearest_rank(self):
        metrics = SessionMetrics()
        for wall in [0.01, 0.02, 0.03, 0.04, 0.10]:
            metrics.observe(self.envelope(), wall)
        assert metrics.p50_command_wall_s == pytest.approx(0.03)
        assert metrics.p95_command_wall_s == pytest.approx(0.10)
        assert metrics.latency_quantile(1.0) == pytest.approx(0.10)
        assert metrics.max_command_wall_s == pytest.approx(0.10)
        with pytest.raises(ServiceError):
            metrics.latency_quantile(0.0)

    def test_empty_metrics_report_zero(self):
        metrics = SessionMetrics()
        assert metrics.p50_command_wall_s == 0.0
        assert metrics.p95_command_wall_s == 0.0
        assert metrics.throughput_cps == 0.0
        assert metrics.mean_command_wall_s == 0.0

    def test_concurrent_observation_loses_nothing(self):
        metrics = SessionMetrics()
        per_thread = 500

        def hammer():
            for _ in range(per_thread):
                metrics.observe(self.envelope(), 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.commands == 8 * per_thread
        assert metrics.entries_returned == 8 * per_thread
        assert metrics.tuples_examined == 16 * per_thread
        assert len(metrics.latencies()) == 8 * per_thread
        assert metrics.throughput_cps > 0.0

    def test_counters_snapshot_excludes_wall_clock(self):
        metrics = SessionMetrics()
        metrics.observe(self.envelope(entries=3, tuples=7), 0.5)
        assert metrics.counters_snapshot() == {
            "commands": 1,
            "entries_returned": 3,
            "tuples_examined": 7,
        }


class TestBackgroundLane:
    def test_background_work_executes_fifo(self):
        order: list[int] = []
        with GestureScheduler(SchedulerConfig(num_workers=1)) as scheduler:
            futures = [
                scheduler.submit_background(lambda i=i: order.append(i))
                for i in range(5)
            ]
            for future in futures:
                future.result(timeout=5)
        assert order == [0, 1, 2, 3, 4]

    def test_lane_is_not_a_session(self):
        with GestureScheduler(SchedulerConfig(num_workers=1)) as scheduler:
            scheduler.register_session("s1")
            scheduler.submit_background(lambda: None).result(timeout=5)
            assert scheduler.session_ids == ["s1"]

    def test_lane_occupies_at_most_one_worker(self):
        """Queued background work cannot starve session gestures."""
        gate = threading.Event()
        with GestureScheduler(SchedulerConfig(num_workers=2)) as scheduler:
            scheduler.register_session("s1")
            blockers = [
                scheduler.submit_background(lambda: gate.wait(timeout=10))
                for _ in range(4)
            ]
            gesture = scheduler.submit("s1", lambda: "served")
            assert gesture.result(timeout=5) == "served"  # lane still blocked
            gate.set()
            for blocker in blockers:
                blocker.result(timeout=5)

    def test_background_errors_delivered_via_future(self):
        with GestureScheduler(SchedulerConfig(num_workers=1)) as scheduler:
            future = scheduler.submit_background(
                lambda: (_ for _ in ()).throw(VisualizationError("boom"))
            )
            with pytest.raises(VisualizationError):
                future.result(timeout=5)

    def test_rejected_after_shutdown(self):
        scheduler = GestureScheduler(SchedulerConfig(num_workers=1))
        scheduler.shutdown(wait=True)
        with pytest.raises(ServiceError):
            scheduler.submit_background(lambda: None)


class TestInlineLane:
    """Serial mode's lane: the scheduler's submit surface, no pool behind it."""

    def test_result_comes_back_resolved(self):
        future = InlineLane().submit("s1", lambda: 42)
        assert future.done()
        assert future.result(timeout=0) == 42

    def test_work_exception_is_reraised_by_result_as_the_same_object(self):
        boom = VisualizationError("boom")

        def work():
            raise boom

        future = InlineLane().submit("s1", work)
        assert future.done()
        with pytest.raises(VisualizationError) as caught:
            future.result(timeout=0)
        assert caught.value is boom

    def test_think_time_is_slept_before_the_work(self):
        lane = InlineLane()
        started = time.monotonic()
        ran_at = lane.submit("s1", time.monotonic, think_s=0.05).result(timeout=0)
        assert ran_at - started >= 0.05

    def test_submit_background_runs_and_raises_inline(self):
        lane = InlineLane()
        assert lane.submit_background(lambda: "merged").result(timeout=0) == "merged"
        with pytest.raises(VisualizationError):
            lane.submit_background(lambda: (_ for _ in ()).throw(VisualizationError("boom")))

    def test_nothing_is_ever_queued(self):
        lane = InlineLane()
        lane.register_session("s1")
        lane.submit("s1", lambda: None)
        assert lane.queue_depth() == 0
        assert lane.queue_depth("s1") == 0
        assert lane.drain() is True
        assert lane.drain(timeout=0.0) is True
        assert lane.unregister_session("s1") == 0
        lane.shutdown(wait=True, cancel_pending=True)
        assert lane.submit("s1", lambda: "still serving").result(timeout=0) == "still serving"
