"""E-concurrent-serving: the worker-pool engine vs the serial server.

The ROADMAP's north star is heavy traffic from many concurrent users.
This benchmark drives the *same* deterministic multi-user workload — 8
sessions of mixed slide / zoom / rotate / select-where traffic with
per-command think-time over one shared 1M-row dataset — through both
serving modes of :class:`repro.service.MultiSessionServer`:

* **serial** (the PR-1 behaviour): one thread serves everyone and must
  sleep out every user's think-time inline, so the server is idle exactly
  when users pause;
* **concurrent**: a :class:`repro.core.scheduler.GestureScheduler` worker
  pool parks thinking sessions on a timer and executes ready sessions in
  parallel, overlapping one user's pauses with other users' gestures.

Asserted: bit-identical per-session deterministic outcome counters
between the two modes and genuinely shared base storage (every session
reads the same numpy buffer; the dataset is never copied per session) —
and, as a separate ``wallclock``-marked test over the same run, >= 3x
aggregate gesture throughput at 8 sessions.  The headline numbers land in
``benchmark.extra_info``.
"""

from __future__ import annotations

import functools
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.kernel import KernelConfig
from repro.core.scheduler import SchedulerConfig
from repro.metrics.reporting import format_comparison
from repro.service import LocalExplorationService, MultiSessionServer
from repro.workloads.generators import make_serving_workload

from conftest import print_comparison

#: Concurrent sessions (the acceptance floor is 8) and worker-pool size.
SESSIONS = 8
WORKERS = 8
#: Mixed gestures per session on top of the 4 setup commands.
GESTURES = 12
#: Rows in the shared dataset (one column + one 3-attribute table).
ROWS = 1_000_000
#: Mean user think-time between gestures (uniform in [0.5, 1.5] * mean).
MEAN_THINK_S = 0.045
#: Required aggregate-throughput advantage of the worker-pool engine.
REQUIRED_SPEEDUP = 3.0


def pinned_factory() -> LocalExplorationService:
    """Local services whose adaptive latency budget can never trip.

    Budget violations shrink the summary window from *wall-clock*
    observations, which would make outcome counters load-dependent;
    pinning the budget high keeps them a pure function of the command
    sequence, as the parity assertions require.
    """
    return LocalExplorationService(config=KernelConfig(latency_budget_s=1e6))


@pytest.fixture(scope="module")
def workload():
    return make_serving_workload(
        num_sessions=SESSIONS,
        gestures_per_session=GESTURES,
        num_rows=ROWS,
        mean_think_s=MEAN_THINK_S,
        seed=131,
    )


def replay(server: MultiSessionServer, workload) -> tuple[float, dict]:
    """Install the workload, replay it, return (wall seconds, envelopes)."""
    workload.install(server)
    started = time.perf_counter()
    envelopes = server.replay_traces(workload.traces)
    return time.perf_counter() - started, envelopes


@pytest.fixture(scope="module")
def serving_run(workload):
    """Both replays, run once for the parity test and its throughput gate."""
    servers: list[MultiSessionServer] = []

    @functools.cache
    def run() -> SimpleNamespace:
        serial_server = MultiSessionServer(service_factory=pinned_factory)
        concurrent_server = MultiSessionServer(
            service_factory=pinned_factory,
            scheduler=SchedulerConfig(num_workers=WORKERS),
        )
        servers.extend([serial_server, concurrent_server])
        serial_wall, serial_envelopes = replay(serial_server, workload)
        concurrent_wall, concurrent_envelopes = replay(concurrent_server, workload)
        serial_cps = workload.total_commands / serial_wall
        concurrent_cps = workload.total_commands / concurrent_wall
        return SimpleNamespace(
            serial_server=serial_server,
            concurrent_server=concurrent_server,
            serial_wall=serial_wall,
            concurrent_wall=concurrent_wall,
            serial_envelopes=serial_envelopes,
            concurrent_envelopes=concurrent_envelopes,
            serial_cps=serial_cps,
            concurrent_cps=concurrent_cps,
            speedup=concurrent_cps / serial_cps,
        )

    yield run
    for server in servers:
        server.shutdown()


def test_concurrent_serving_three_x_throughput(benchmark, workload, serving_run):
    """Identical per-session counters whichever lane serves, over genuinely
    shared storage; the throughput ratio is reported here and gated by the
    ``_gate`` test."""
    measured = benchmark.pedantic(serving_run, rounds=1, iterations=1)
    serial_server, concurrent_server = measured.serial_server, measured.concurrent_server

    rows_report = {
        "serial": {
            "wall_s": measured.serial_wall,
            "throughput_cps": measured.serial_cps,
            "p95_ms": serial_server.aggregate_metrics()["p95_command_wall_s"] * 1e3,
        },
        "concurrent": {
            "wall_s": measured.concurrent_wall,
            "throughput_cps": measured.concurrent_cps,
            "p95_ms": concurrent_server.aggregate_metrics()["p95_command_wall_s"] * 1e3,
        },
        "SPEEDUP": {"wall_s": 0.0, "throughput_cps": measured.speedup, "p95_ms": 0.0},
    }
    trace_len = len(next(iter(workload.traces.values())))
    print_comparison(
        format_comparison(
            f"E-concurrent-serving: {SESSIONS} sessions x {trace_len} "
            f"commands, think {MEAN_THINK_S * 1e3:.0f}ms, {WORKERS} workers",
            rows_report,
        )
    )

    # the CI trajectory artifact picks these up from --benchmark-json
    benchmark.extra_info.update(
        {
            "sessions": SESSIONS,
            "workers": WORKERS,
            "commands": workload.total_commands,
            "rows": ROWS,
            "think_total_s": round(workload.total_think_s, 4),
            "serial_wall_s": round(measured.serial_wall, 4),
            "concurrent_wall_s": round(measured.concurrent_wall, 4),
            "serial_throughput_cps": round(measured.serial_cps, 2),
            "concurrent_throughput_cps": round(measured.concurrent_cps, 2),
            "speedup": round(measured.speedup, 3),
        }
    )

    # --- determinism: per-session counters identical across serving modes
    for session_id in workload.traces:
        assert (
            serial_server.metrics(session_id).counters_snapshot()
            == concurrent_server.metrics(session_id).counters_snapshot()
        ), session_id
        serial_counters = [
            (e.entries_returned, e.tuples_examined, e.duration_s)
            for e in measured.serial_envelopes[session_id]
        ]
        concurrent_counters = [
            (e.entries_returned, e.tuples_examined, e.duration_s)
            for e in measured.concurrent_envelopes[session_id]
        ]
        assert serial_counters == concurrent_counters, session_id

    # --- shared base storage: every session reads the same buffers
    shared_column = workload.shared_columns["telemetry"]
    for session_id in workload.traces:
        column = concurrent_server.service(session_id).catalog.column("telemetry")
        assert column is shared_column
        assert np.shares_memory(column[:], shared_column[:])


@pytest.mark.wallclock
def test_concurrent_serving_three_x_throughput_gate(workload, serving_run):
    """The headline: >= 3x aggregate gesture throughput at 8 sessions."""
    measured = serving_run()
    assert len(workload.traces) >= 8
    assert measured.speedup >= REQUIRED_SPEEDUP, (
        f"concurrent engine reached only {measured.speedup:.2f}x "
        f"(serial {measured.serial_cps:.1f} cmd/s vs "
        f"concurrent {measured.concurrent_cps:.1f} cmd/s)"
    )


def test_scheduler_queue_metrics_surface(benchmark, workload):
    """Queue depth, scheduler stats and latency percentiles are reported."""
    server = MultiSessionServer(
        service_factory=pinned_factory, scheduler=SchedulerConfig(num_workers=2)
    )
    nothink = workload.without_think()

    def run() -> None:
        nothink.install(server)
        server.replay_traces(nothink.traces)

    benchmark.pedantic(run, rounds=1, iterations=1)
    aggregate = server.aggregate_metrics()
    stats = server.scheduler_stats()
    assert stats["submitted"] == nothink.total_commands
    assert stats["completed"] == nothink.total_commands
    assert stats["peak_pending"] >= 1
    assert aggregate["queue_depth"] == 0.0
    assert aggregate["throughput_cps"] > 0.0
    assert aggregate["p95_command_wall_s"] >= aggregate["p50_command_wall_s"] > 0.0
    benchmark.extra_info["throughput_cps"] = round(aggregate["throughput_cps"], 2)
    server.shutdown()
