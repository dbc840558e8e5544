"""Observability end-to-end: trace a slow gesture across a sharded fleet.

The telemetry plane has three moving parts, and this walk-through drives
all of them against a live 2-shard fleet:

* **distributed tracing** — every forwarded gesture opens a front-door
  root span and ships its context to the worker, whose kernel records
  ``queue_wait`` / ``kernel_exec`` / ``chunk_fault`` / ``tail_scan``
  child spans; draining the fleet and stitching the partials yields one
  span tree per gesture, annotated with the site each span ran on,
* **the telemetry registry** — scheduler, index, chunk cache and tracer
  counters federate into one merged fleet snapshot, rendered in the
  Prometheus text exposition format any scraper can read,
* **the flight recorder** — a bounded ring of the last N completed traces
  plus a slow-gesture log, drained over the ``telemetry`` verb.

The script validates every exposition line against the Prometheus text
grammar and exits non-zero on a malformed one, so CI reuses it as the
telemetry smoke test.

Run it with::

    python examples/observability.py
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import Column, DiskColumnStore, ShowColumn, Slide, StoreCatalog, stitch_traces
from repro.obs import TraceConfig
from repro.serving import (
    ShardedClient,
    ShardedServer,
    ShardedServerConfig,
    WorkerConfig,
)

NUM_ROWS = 300_000

#: One line of the Prometheus text exposition format.
_METRIC_LINE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r'|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? '
    r"(-?[0-9.eE+-]+|\+Inf|-Inf|NaN))$"
)


def publish_snapshot(root: Path) -> None:
    """Write the dataset once; every worker maps these same files."""
    rng = np.random.default_rng(11)
    catalog = StoreCatalog(DiskColumnStore(root))
    catalog.persist_column(Column("sensor", rng.normal(size=NUM_ROWS)))
    print(f"published snapshot: {NUM_ROWS:,} rows under {root}")


def check_exposition(text: str, label: str) -> int:
    """Validate every exposition line; returns the number of bad lines."""
    bad = 0
    for line in text.strip().splitlines():
        if not _METRIC_LINE.match(line):
            print(f"MALFORMED [{label}]: {line!r}", file=sys.stderr)
            bad += 1
    lines = len(text.strip().splitlines())
    print(f"exposition [{label}]: {lines} lines, {bad} malformed")
    return bad


def render_tree(nodes, depth: int = 0) -> None:
    for node in nodes:
        span = node["span"]
        tags = {k: v for k, v in span.tags.items() if k != "session"}
        print(
            f"  {'  ' * depth}{span.name:<14} {span.duration_s * 1e3:8.3f} ms"
            f"  @{span.site}  {tags if tags else ''}"
        )
        render_tree(node["children"], depth + 1)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-obs-") as tmp:
        root = Path(tmp) / "snapshot"
        publish_snapshot(root)

        config = ShardedServerConfig(
            num_workers=2,
            worker=WorkerConfig(
                snapshot_path=str(root),
                scheduler_workers=2,
                trace_sample_rate=1.0,  # trace every gesture
                slow_trace_threshold_s=0.0005,  # everything over 0.5 ms is "slow"
                cache_bytes=1 << 20,  # a tiny cache: a slide's gathers never need it
            ),
            tracing=TraceConfig(),  # front-door tracer: stitchable roots
        )

        with ShardedServer(config) as server:
            with ShardedClient("127.0.0.1", server.port, session_id="ops") as client:
                # a cold slide: rows gathered through the mapping (storage_gathers),
                # touch-cache lookups on the way; range reads would add chunk_fault spans
                client.execute(ShowColumn(object_name="sensor", view_name="v"))
                client.execute(
                    Slide(view="v", duration=1.5, start_fraction=0.05, end_fraction=0.9)
                )

                report = client.telemetry()
                print(f"\nfleet: {report['alive_workers']} of {report['num_workers']} alive")
                metrics = report["metrics"]
                for key in sorted(metrics):
                    if key.startswith(("storage_", "tracer_", "frontdoor_")):
                        print(f"  {key} = {metrics[key]:g}")

                print("\nstitched gesture traces (front door -> worker -> kernel):")
                for trace in stitch_traces(report["traces"]):
                    print(f"- trace {trace.trace_id[:12]} ({len(trace.spans)} spans)")
                    render_tree(trace.tree())

                slow = report["slow_traces"]
                print(f"\nslow log: {len(slow)} trace(s) over the threshold")

                bad = check_exposition(report["exposition"], "fleet")
                for worker_id, detail in sorted(report["workers"].items()):
                    if "exposition" in detail:
                        bad += check_exposition(detail["exposition"], f"worker-{worker_id}")

            server.drain(timeout=30.0)

    if bad:
        print(f"\nFAILED: {bad} malformed exposition line(s)", file=sys.stderr)
        return 1
    print("\nall exposition output well-formed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
