"""E-observability: the telemetry plane must be (near) free when off.

The tracing instrumentation sits on the kernel's hot path — every
gesture, kernel execution, chunk fault and cache lookup passes through a
``trace_span`` call even when no tracer is installed.  The acceptance
gate for the observability PR is that a *disabled* tracer costs at most
5% of a gesture's execution time.

Two measurements back that up:

* a **workload comparison** — the same deterministic slide workload
  replayed through an untraced server and a fully-sampled traced one,
  with bit-identical outcome counters asserted (the parity contract) and
  both throughputs exported to ``benchmark.extra_info``;
* a **microbenchmark gate** — the untraced ``trace_span`` fast path
  (one ContextVar read returning the shared null span) is timed
  directly, multiplied by the number of instrumentation points an
  average gesture actually crosses (counted from the traced run's span
  trees), and asserted to be <= 5% of the untraced per-gesture time.
  Unlike a wall-vs-wall diff, this gate is immune to machine noise: the
  no-op span cost is nanoseconds while a gesture is milliseconds.

The headline numbers land in ``benchmark.extra_info``.
"""

from __future__ import annotations

import functools
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.commands import GestureScript, ShowColumn, Slide
from repro.core.kernel import KernelConfig
from repro.metrics.reporting import format_comparison
from repro.obs import TraceConfig, trace_span
from repro.service import LocalExplorationService, MultiSessionServer

from conftest import print_comparison

#: Rows in the shared column the workload slides over.
ROWS = 500_000
#: Workload repetitions (each is one show-column + three slides).
REPEATS = 8
#: Iterations of the no-op ``trace_span`` microbenchmark.
SPAN_CALLS = 200_000
#: The acceptance gate: disabled-tracer overhead per gesture.
MAX_DISABLED_OVERHEAD = 0.05


def pinned_factory() -> LocalExplorationService:
    """A latency budget that can never trip keeps counters deterministic."""
    return LocalExplorationService(config=KernelConfig(latency_budget_s=1e6))


def build_server(tracing) -> MultiSessionServer:
    server = MultiSessionServer(service_factory=pinned_factory, tracing=tracing)
    server.load_shared_column("wave", np.arange(ROWS, dtype=np.int64))
    return server


def make_script(i: int) -> GestureScript:
    view = f"v{i}"
    return GestureScript(
        [
            ShowColumn(object_name="wave", view_name=view, height_cm=10.0),
            Slide(view=view, duration=1.0, start_fraction=0.0, end_fraction=0.7),
            Slide(view=view, duration=0.8, start_fraction=0.7, end_fraction=0.2),
            Slide(view=view, duration=0.6, start_fraction=0.2, end_fraction=0.9),
        ]
    )


def run_workload(server: MultiSessionServer) -> tuple[float, int, str]:
    """Replay the workload; return (wall seconds, commands, session id)."""
    sid = server.open_session()
    commands = 0
    started = time.perf_counter()
    for i in range(REPEATS):
        commands += len(server.run(sid, make_script(i)))
    return time.perf_counter() - started, commands, sid


def noop_span_cost_s() -> float:
    """Per-call cost of ``trace_span`` with no active trace.

    This is exactly the price every instrumentation point charges on an
    untraced server: one ContextVar read, then enter/exit of the shared
    null span.
    """
    started = time.perf_counter()
    for _ in range(SPAN_CALLS):
        with trace_span("kernel_exec"):
            pass
    return (time.perf_counter() - started) / SPAN_CALLS


def warmup(server: MultiSessionServer) -> None:
    """One throwaway session so neither timed run pays first-touch costs."""
    sid = server.open_session()
    server.run(sid, make_script(0))
    server.close_session(sid)


@pytest.fixture(scope="module")
def overhead_run():
    """Both workloads and the microbenchmark, run once for the parity test
    and its gate."""

    @functools.cache
    def run() -> SimpleNamespace:
        untraced = build_server(tracing=False)
        traced = build_server(tracing=TraceConfig(sample_rate=1.0, site="bench"))
        try:
            warmup(untraced)
            warmup(traced)
            traced.drain_traces()  # warmup spans must not skew spans_per_command
            untraced_wall, commands, untraced_sid = run_workload(untraced)
            traced_wall, traced_commands, traced_sid = run_workload(traced)
            # how many instrumentation points does an average gesture cross?
            spans_recorded = sum(len(trace.spans) for trace in traced.drain_traces())
            noop_s = noop_span_cost_s()
            spans_per_command = spans_recorded / commands
            return SimpleNamespace(
                commands=commands,
                traced_commands=traced_commands,
                untraced_wall=untraced_wall,
                traced_wall=traced_wall,
                untraced_counters=untraced.counters_report()[untraced_sid],
                traced_counters=traced.counters_report()[traced_sid],
                spans_recorded=spans_recorded,
                spans_per_command=spans_per_command,
                noop_s=noop_s,
                per_command_s=untraced_wall / commands,
                disabled_overhead=(noop_s * spans_per_command) / (untraced_wall / commands),
            )
        finally:
            untraced.shutdown()
            traced.shutdown()

    return run


def test_disabled_tracer_overhead_under_five_percent(benchmark, overhead_run):
    """Tracing perturbs no counter; the disabled-tracer overhead is reported
    here (CI reads it from ``extra_info``) and gated by the ``_gate`` test."""
    measured = benchmark.pedantic(overhead_run, rounds=1, iterations=1)
    commands = measured.commands
    assert measured.traced_commands == commands

    # the parity contract rides along: tracing perturbs no counter
    assert measured.traced_counters == measured.untraced_counters
    assert measured.spans_recorded > 0

    untraced_cps = commands / measured.untraced_wall
    traced_cps = commands / measured.traced_wall
    print_comparison(
        format_comparison(
            f"E-observability: {commands} commands over {ROWS:,} rows",
            {
                "untraced": {"wall_s": measured.untraced_wall, "throughput_cps": untraced_cps},
                "traced": {"wall_s": measured.traced_wall, "throughput_cps": traced_cps},
                "OVERHEAD": {
                    "wall_s": 0.0,
                    "throughput_cps": 0.0,
                    "disabled_frac": measured.disabled_overhead,
                    "noop_span_ns": measured.noop_s * 1e9,
                    "spans_per_cmd": measured.spans_per_command,
                },
            },
        )
    )

    # the CI trajectory artifact picks these up from --benchmark-json
    benchmark.extra_info.update(
        {
            "commands": commands,
            "rows": ROWS,
            "untraced_wall_s": round(measured.untraced_wall, 4),
            "traced_wall_s": round(measured.traced_wall, 4),
            "untraced_throughput_cps": round(untraced_cps, 2),
            "traced_throughput_cps": round(traced_cps, 2),
            "noop_span_ns": round(measured.noop_s * 1e9, 1),
            "spans_per_command": round(measured.spans_per_command, 2),
            "overhead_disabled_frac": round(measured.disabled_overhead, 5),
            "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
        }
    )


@pytest.mark.wallclock
def test_disabled_tracer_overhead_under_five_percent_gate(overhead_run):
    """The gate: a disabled tracer costs <= 5% of a gesture."""
    measured = overhead_run()
    assert measured.disabled_overhead <= MAX_DISABLED_OVERHEAD, (
        f"disabled-tracer overhead {measured.disabled_overhead:.2%} exceeds "
        f"{MAX_DISABLED_OVERHEAD:.0%} "
        f"(no-op span {measured.noop_s * 1e9:.0f}ns x "
        f"{measured.spans_per_command:.1f} spans/cmd "
        f"vs {measured.per_command_s * 1e3:.2f}ms/cmd)"
    )
