"""Child-process host of the sharded fleet the ``fleet_wire`` workload calls.

The front door's asyncio loop must not share an interpreter lock with the
client threads that time it, so the ledger starts the whole fleet here, in
a process of its own: ``python3 -m ledger.fleet_host '<json config>'``.
The host prints one JSON line (``{"port": ...}``) once the fleet accepts
connections, serves until its stdin closes (or any line arrives), then
shuts the fleet down and exits.
"""

from __future__ import annotations

import json
import sys

import ledger  # noqa: F401 - makes src/ importable

from repro.obs.trace import TraceConfig
from repro.serving import ShardedServer, ShardedServerConfig, WorkerConfig

#: Recorder ring and frame bound of a traced fleet: one round's traces must
#: survive until the ledger drains them in a single ``telemetry`` response.
TRACED_RECORDER_CAPACITY = 8192
TRACED_MAX_FRAME_BYTES = 64 << 20


def fleet_config(snapshot_path: str, workers: int, traced: bool) -> ShardedServerConfig:
    """The fleet under test: defaults everywhere except what the workload names."""
    if not traced:
        return ShardedServerConfig(
            num_workers=workers,
            worker=WorkerConfig(snapshot_path=snapshot_path, scheduler_workers=1),
        )
    return ShardedServerConfig(
        num_workers=workers,
        worker=WorkerConfig(
            snapshot_path=snapshot_path,
            scheduler_workers=1,
            trace_sample_rate=1.0,
            flight_recorder_capacity=TRACED_RECORDER_CAPACITY,
        ),
        tracing=TraceConfig(flight_recorder_capacity=TRACED_RECORDER_CAPACITY),
        max_frame_bytes=TRACED_MAX_FRAME_BYTES,
    )


def main(argv: list[str]) -> int:
    options = json.loads(argv[0])
    config = fleet_config(
        options["snapshot_path"], int(options["workers"]), bool(options["traced"])
    )
    with ShardedServer(config) as server:
        print(json.dumps({"port": server.port}), flush=True)
        sys.stdin.readline()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
