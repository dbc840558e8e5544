"""Stress tests for the concurrent multi-session serving engine.

The guarantees under test are the ones the ISSUE's north star depends on:

* serial-vs-concurrent *outcome parity* — the same multi-user workload
  produces bit-identical per-session deterministic counters in both
  serving modes;
* *no lost updates* — a ``load_column(replace=True)`` reload submitted
  mid-traffic lands at its exact position in the session's FIFO order and
  every later gesture sees the new data (stale sample hierarchies
  included);
* *no cross-session bleed* — sessions exploring same-named objects with
  different data never serve each other's values;
* *thread-safe accounting* — many client threads hammering one server
  lose no metrics and leave the scheduler's books balanced.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.actions import aggregate_action, scan_action
from repro.core.commands import ChooseAction, ShowColumn, Slide, Tap
from repro.core.kernel import KernelConfig
from repro.core.scheduler import SchedulerConfig
from repro.errors import AdmissionError
from repro.service import LocalExplorationService, MultiSessionServer
from repro.workloads.generators import make_serving_workload

ROWS = 20_000


def pinned_factory():
    """A local-service factory whose latency budget can never be violated.

    The adaptive optimizer shrinks the summary window on wall-clock budget
    violations; pinning the budget high keeps outcome counters a pure
    function of the command sequence, which is what the parity assertions
    require (see the scheduler module docstring).
    """
    return LocalExplorationService(config=KernelConfig(latency_budget_s=1e6))


def concurrent_server(**scheduler_kwargs) -> MultiSessionServer:
    defaults = dict(num_workers=4)
    defaults.update(scheduler_kwargs)
    return MultiSessionServer(
        service_factory=pinned_factory, scheduler=SchedulerConfig(**defaults)
    )


def tap_value(server: MultiSessionServer, session_id: str, view: str, fraction: float):
    """Execute a tap and return the revealed value."""
    envelope = server.execute(session_id, Tap(view=view, fraction=fraction))
    return envelope.payload.results[0].value


class TestSerialVsConcurrentParity:
    def test_mixed_workload_outcomes_match_bit_for_bit(self):
        workload = make_serving_workload(
            num_sessions=6, gestures_per_session=8, num_rows=ROWS, seed=91
        ).without_think()

        serial = MultiSessionServer(service_factory=pinned_factory)
        workload.install(serial)
        serial_envelopes = serial.replay_traces(workload.traces)

        with concurrent_server() as server:
            workload.install(server)
            concurrent_envelopes = server.replay_traces(workload.traces)

            for session_id in workload.traces:
                assert (
                    serial.metrics(session_id).counters_snapshot()
                    == server.metrics(session_id).counters_snapshot()
                ), session_id
                serial_counters = [
                    (e.entries_returned, e.tuples_examined, e.duration_s)
                    for e in serial_envelopes[session_id]
                ]
                concurrent_counters = [
                    (e.entries_returned, e.tuples_examined, e.duration_s)
                    for e in concurrent_envelopes[session_id]
                ]
                assert serial_counters == concurrent_counters, session_id

            aggregate = server.aggregate_metrics()
            assert aggregate["commands"] == float(workload.total_commands)
            stats = server.scheduler_stats()
            assert stats["submitted"] == workload.total_commands
            assert stats["completed"] == workload.total_commands
            assert stats["failed"] == 0

    def test_paced_uneven_traces_replay_alike_on_either_lane(self):
        """One ``replay_traces`` body serves both lanes: three sessions of
        unequal length, think-times on, same counters — and the inline
        lane still sleeps every think-time out."""
        workload = make_serving_workload(
            num_sessions=3, gestures_per_session=5, num_rows=ROWS, mean_think_s=0.01, seed=17
        )
        traces = {
            sid: trace[: len(trace) - cut]
            for cut, (sid, trace) in enumerate(workload.traces.items())
        }
        assert len({len(trace) for trace in traces.values()}) == 3
        think_total = sum(timed.think_s for trace in traces.values() for timed in trace)
        assert think_total > 0

        serial = MultiSessionServer(service_factory=pinned_factory)
        workload.install(serial)
        started = time.perf_counter()
        serial_envelopes = serial.replay_traces(traces)
        assert time.perf_counter() - started >= think_total

        with MultiSessionServer(service_factory=pinned_factory, scheduler=2) as server:
            workload.install(server)
            concurrent_envelopes = server.replay_traces(traces)
            assert server.counters_report() == serial.counters_report()
        for sid, trace in traces.items():
            assert len(serial_envelopes[sid]) == len(concurrent_envelopes[sid]) == len(trace)
            assert [e.command_kind for e in serial_envelopes[sid]] == [
                timed.command.kind for timed in trace
            ]

    def test_concurrent_replay_is_repeatable(self):
        workload = make_serving_workload(
            num_sessions=4, gestures_per_session=6, num_rows=ROWS, seed=5
        ).without_think()
        snapshots = []
        for _ in range(2):
            with concurrent_server() as server:
                workload.install(server)
                server.replay_traces(workload.traces)
                snapshots.append(
                    {
                        sid: server.metrics(sid).counters_snapshot()
                        for sid in workload.traces
                    }
                )
        assert snapshots[0] == snapshots[1]


class TestReplaceReloadMidTraffic:
    def test_reload_lands_in_fifo_order_and_invalidates_caches(self):
        with concurrent_server() as server:
            session_id = server.open_session("reloader")
            server.load_column(session_id, "series", np.arange(ROWS, dtype=np.int64))
            server.execute(session_id, ShowColumn(object_name="series", view_name="v"))
            server.execute(session_id, ChooseAction(view="v", action=scan_action()))

            before = tap_value(server, session_id, "v", 0.25)
            # queue gestures, then the reload, then more gestures — all async,
            # all through the session's FIFO queue
            pre = [
                server.submit(session_id, Slide(view="v", duration=0.4), think_s=0.0)
                for _ in range(3)
            ]
            reload_future = server.scheduler.submit(
                session_id,
                lambda: server.service(session_id).load_column(
                    "series", np.arange(ROWS, dtype=np.int64) * 3, replace=True
                ),
            )
            post = server.submit(session_id, Tap(view="v", fraction=0.25))
            for future in pre:
                future.result(timeout=30)
            reload_future.result(timeout=30)
            after_envelope = post.result(timeout=30)
            after = after_envelope.payload.results[0].value

            assert after == before * 3, (
                "the tap queued after the reload must see the new data "
                "(no value read from the replaced data may survive)"
            )

    def test_synchronous_replace_reload_orders_after_queued_commands(self):
        with concurrent_server() as server:
            session_id = server.open_session()
            server.load_column(session_id, "series", np.arange(ROWS, dtype=np.int64))
            server.execute(session_id, ShowColumn(object_name="series", view_name="v"))
            server.execute(session_id, ChooseAction(view="v", action=scan_action()))
            before = tap_value(server, session_id, "v", 0.5)
            futures = [
                server.submit(session_id, Slide(view="v", duration=0.3))
                for _ in range(2)
            ]
            # the synchronous wrapper also routes through the queue: when it
            # returns, every previously submitted command has executed
            server.load_column(
                session_id, "series", np.arange(ROWS, dtype=np.int64) * 5, replace=True
            )
            assert all(future.done() for future in futures)
            assert tap_value(server, session_id, "v", 0.5) == before * 5

    def test_replacing_a_shared_name_stays_session_private(self):
        with concurrent_server() as server:
            server.load_shared_column("shared", np.arange(ROWS, dtype=np.int64))
            a = server.open_session("a")
            b = server.open_session("b")
            for session_id in (a, b):
                server.execute(
                    session_id, ShowColumn(object_name="shared", view_name="v")
                )
                server.execute(
                    session_id, ChooseAction(view="v", action=scan_action())
                )
            baseline = tap_value(server, a, "v", 0.75)
            assert tap_value(server, b, "v", 0.75) == baseline

            server.load_column(a, "shared", np.arange(ROWS, dtype=np.int64) * 7, replace=True)
            assert tap_value(server, a, "v", 0.75) == baseline * 7
            # the other session keeps the shared, un-replaced data
            assert tap_value(server, b, "v", 0.75) == baseline


class TestCrossSessionIsolation:
    def test_same_named_objects_never_bleed_between_sessions(self):
        with concurrent_server() as server:
            sessions = {}
            for index in range(4):
                session_id = server.open_session(f"user-{index}")
                scale = index + 1
                server.load_column(
                    session_id, "data", np.arange(ROWS, dtype=np.int64) * scale
                )
                server.execute(
                    session_id, ShowColumn(object_name="data", view_name="v")
                )
                server.execute(session_id, ChooseAction(view="v", action=scan_action()))
                sessions[session_id] = scale

            # hammer all sessions with interleaved slides over the same
            # rowid ranges of their same-named objects
            futures = []
            for _ in range(6):
                for session_id in sessions:
                    futures.append(
                        server.submit(session_id, Slide(view="v", duration=0.4))
                    )
            for future in futures:
                future.result(timeout=60)

            # every session's values must still be its own
            baseline = None
            for session_id, scale in sessions.items():
                value = tap_value(server, session_id, "v", 0.5)
                if baseline is None:
                    baseline = value / scale
                assert value == baseline * scale, session_id


class TestThreadsHammeringOneServer:
    def test_no_lost_updates_under_many_client_threads(self):
        num_threads = 6
        commands_per_session = 12
        with concurrent_server(num_workers=4, max_pending=4096) as server:
            session_ids = []
            for index in range(num_threads):
                session_id = server.open_session(f"client-{index}")
                server.load_column(session_id, "data", np.arange(ROWS, dtype=np.int64))
                server.execute(
                    session_id, ShowColumn(object_name="data", view_name="v")
                )
                server.execute(
                    session_id,
                    ChooseAction(view="v", action=aggregate_action("sum")),
                )
                session_ids.append(session_id)

            errors: list[BaseException] = []

            def drive(session_id: str) -> None:
                try:
                    futures = [
                        server.submit(session_id, Slide(view="v", duration=0.3))
                        for _ in range(commands_per_session)
                    ]
                    for future in futures:
                        future.result(timeout=60)
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=drive, args=(session_id,))
                for session_id in session_ids
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert server.drain(timeout=30)

            for session_id in session_ids:
                # 2 setup commands + the slides, none lost, none duplicated
                assert server.metrics(session_id).commands == 2 + commands_per_session
            stats = server.scheduler_stats()
            assert stats["failed"] == 0
            assert stats["submitted"] == stats["completed"] + stats["cancelled"]
            aggregate = server.aggregate_metrics()
            assert aggregate["commands"] == float(
                num_threads * (2 + commands_per_session)
            )
            assert aggregate["p95_command_wall_s"] >= aggregate["p50_command_wall_s"]

    def test_admission_control_sheds_load_but_server_survives(self):
        with concurrent_server(
            num_workers=1, max_pending=8, max_session_pending=8, submit_block_s=0.02
        ) as server:
            session_id = server.open_session()
            server.load_column(session_id, "data", np.arange(1000))
            server.execute(session_id, ShowColumn(object_name="data", view_name="v"))
            server.execute(session_id, ChooseAction(view="v", action=scan_action()))

            rejected = 0
            accepted = []
            for _ in range(64):
                try:
                    # think-time holds items in the queue so the flood builds up
                    accepted.append(
                        server.submit(
                            session_id, Slide(view="v", duration=0.2), think_s=0.01
                        )
                    )
                except AdmissionError:
                    rejected += 1
            assert rejected > 0, "the flood should exceed max_pending"
            for future in accepted:
                future.result(timeout=60)
            assert server.scheduler_stats()["rejected"] == rejected
            # the server still serves normally after shedding
            assert tap_value(server, session_id, "v", 0.5) is not None


class TestResultBackpressure:
    def test_streams_stay_bounded_and_drops_are_accounted(self):
        with MultiSessionServer(
            service_factory=pinned_factory,
            scheduler=SchedulerConfig(num_workers=2),
        ) as server:
            session_id = server.open_session()
            server.load_column(session_id, "data", np.arange(ROWS, dtype=np.int64))
            server.execute(session_id, ShowColumn(object_name="data", view_name="v"))
            server.execute(session_id, ChooseAction(view="v", action=scan_action()))
            entries = sum(
                server.execute(session_id, Slide(view="v", duration=0.8)).entries_returned
                for _ in range(4)
            )
            stream = server.service(session_id).kernel.state_of("v").results
            # the stream is a ring of what the screen shows: every result
            # was written, and all but the newest max_visible are gone
            assert stream.total_emitted == entries > stream.max_visible
            assert len(stream) == stream.max_visible

    def test_serial_mode_reports_zero_queue_depth(self):
        server = MultiSessionServer(service_factory=pinned_factory)
        assert server.queue_depth() == 0
        assert server.scheduler_stats() is None
        assert not server.concurrent


class TestSharedBaseStorage:
    def test_sessions_share_one_buffer_not_n_copies(self):
        with concurrent_server() as server:
            values = np.arange(ROWS, dtype=np.int64)
            shared = server.load_shared_column("telemetry", values)
            ids = [server.open_session() for _ in range(4)]
            for session_id in ids:
                column = server.service(session_id).catalog.column("telemetry")
                assert column is shared
                assert np.shares_memory(column[:], values)
            assert server.shared_object_names == ["telemetry"]

    def test_sessions_opened_without_attach_see_nothing(self):
        with concurrent_server() as server:
            server.load_shared_column("telemetry", np.arange(100))
            session_id = server.open_session(attach_shared=False)
            assert "telemetry" not in server.service(session_id).catalog

    def test_private_hierarchies_over_shared_data(self):
        with concurrent_server() as server:
            server.load_shared_column("telemetry", np.arange(ROWS, dtype=np.int64))
            a = server.open_session("a")
            b = server.open_session("b")
            for session_id in (a, b):
                server.execute(
                    session_id, ShowColumn(object_name="telemetry", view_name="v")
                )
            hierarchy_a = server.service(a).kernel.state_of("v").hierarchy
            hierarchy_b = server.service(b).kernel.state_of("v").hierarchy
            assert hierarchy_a is not None
            assert hierarchy_a is not hierarchy_b

    def test_shared_name_collisions_rejected(self):
        with concurrent_server() as server:
            server.load_shared_column("x", np.arange(10))
            with pytest.raises(Exception):
                server.load_shared_table("x", {"x": np.arange(10)})


class TestReplaceOnLimitedBackends:
    def test_backend_without_replace_fails_cleanly(self):
        """A custom backend lacking ``replace=`` must surface a ServiceError,
        not a TypeError from an unexpected keyword."""
        from repro.errors import ServiceError
        from repro.service import LocalExplorationService

        class FrozenBackend(LocalExplorationService):
            backend = "frozen"

            def load_column(self, name, values):  # no replace keyword
                return super().load_column(name, values)

        server = MultiSessionServer(service_factory=FrozenBackend)
        session_id = server.open_session()
        server.load_column(session_id, "c", np.arange(10))
        with pytest.raises(ServiceError):
            server.load_column(session_id, "c", np.arange(10), replace=True)

    def test_remote_backend_replace_reload_through_server(self):
        """The server's queued replace-reload works on remote-backed sessions."""
        from repro.core.actions import aggregate_action
        from repro.core.commands import ChooseAction, ShowColumn, Tap
        from repro.remote.network import LAN
        from repro.remote import RemoteExplorationService

        with MultiSessionServer(
            service_factory=lambda: RemoteExplorationService(network_profile=LAN),
            scheduler=SchedulerConfig(num_workers=2),
        ) as server:
            session_id = server.open_session()
            server.load_column(session_id, "c", np.arange(5_000))
            server.execute(session_id, ShowColumn(object_name="c", view_name="v"))
            server.execute(
                session_id, ChooseAction(view="v", action=aggregate_action("avg"))
            )
            before = server.execute(
                session_id, Tap(view="v", fraction=0.5)
            ).payload.final_aggregate
            server.load_column(session_id, "c", np.arange(5_000) * 2, replace=True)
            after = server.execute(
                session_id, Tap(view="v", fraction=0.5)
            ).payload.final_aggregate
            assert after == before * 2
