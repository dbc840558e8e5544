"""Sharded serving end-to-end: publish, serve, explore over the wire.

The dbTouch serving story at fleet scale: base data is published *once*
as an on-disk snapshot, N worker processes attach it read-only (shared
through the page cache, never copied), and a TCP front door pins every
session to one worker by consistent hash — so each user's gestures build
their adaptive state in exactly one kernel while the fleet uses every
core on the machine.

The walk-through:

* publish a 500k-row telemetry column into a snapshot directory,
* start a :class:`repro.serving.ShardedServer` with 4 worker processes
  attached to that snapshot,
* explore it from an ordinary :class:`repro.ExplorationSession` — the
  session drives a :class:`repro.serving.ShardedClient` exactly the way
  it drives an in-process service,
* append rows to a session-private column over the same wire — an append
  is a gesture command like any other — and see the next slide read them,
* read the fleet-wide ``stats`` aggregation, then drain and shut down.

Run it with::

    python examples/sharded_serving.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import Column, DiskColumnStore, ExplorationSession, StoreCatalog, scan_action
from repro.engine.filter import Comparison, Predicate
from repro.serving import (
    ShardedClient,
    ShardedServer,
    ShardedServerConfig,
    WorkerConfig,
    shard_for_session,
)

NUM_ROWS = 500_000
NUM_WORKERS = 4


def publish_snapshot(root: Path) -> None:
    """Write the dataset once; every worker maps these same files."""
    rng = np.random.default_rng(7)
    values = np.concatenate(
        [
            rng.normal(loc=20.0, scale=4.0, size=NUM_ROWS - 2_000),
            rng.normal(loc=95.0, scale=1.5, size=2_000),  # a planted hot band
        ]
    )
    rng.shuffle(values)
    catalog = StoreCatalog(DiskColumnStore(root))
    catalog.persist_column(Column("telemetry", values))
    print(f"published snapshot: {NUM_ROWS:,} rows under {root}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="dbtouch-shard-") as tmp:
        root = Path(tmp)
        publish_snapshot(root)

        config = ShardedServerConfig(
            num_workers=NUM_WORKERS,
            worker=WorkerConfig(snapshot_path=str(root)),
        )
        with ShardedServer(config) as server:
            print(
                f"serving on {server.address[0]}:{server.port} "
                f"with {NUM_WORKERS} worker processes"
            )

            # -------------------------------------------------------- #
            # two users, pinned to their shards by consistent hash
            # -------------------------------------------------------- #
            for user in ("alice", "bob"):
                shard = shard_for_session(user, NUM_WORKERS)
                print(f"session {user!r} is pinned to worker {shard}")

            with ShardedClient("127.0.0.1", server.port, session_id="alice") as wire:
                session = ExplorationSession(service=wire)
                # live View objects stay server-side: refer to views by name
                view = "v"
                session.show_column("telemetry", view_name=view, height_cm=10.0)
                session.choose_summary(view, k=10, aggregate="avg")
                coarse = session.slide(view, duration=2.0)
                print(
                    f"\nalice's coarse slide: {coarse.entries_returned} summaries, "
                    f"{coarse.tuples_examined:,} tuples examined"
                )
                focus = session.slide(
                    view, duration=2.0, start_fraction=0.4, end_fraction=0.6
                )
                print(
                    f"alice's focused slide: {focus.entries_returned} summaries, "
                    f"{focus.tuples_examined:,} tuples examined"
                )
                summary = session.summary()
                print(
                    f"alice so far: {summary.gestures} gestures, "
                    f"{summary.entries_returned} entries returned"
                )

                # ---------------------------------------------------- #
                # live ingestion over the wire: an append is a command
                # ---------------------------------------------------- #
                rng = np.random.default_rng(11)
                session.load_column("readings", rng.uniform(0.0, 100.0, 5_000).tolist())
                session.show_column("readings", view_name="r", height_cm=10.0)
                hot = Predicate(Comparison.BETWEEN, 40.0, upper=60.0)
                session.choose_action("r", scan_action(hot))
                session.slide("r", duration=1.0)
                rows = session.append("readings", values=rng.uniform(0.0, 100.0, 500))
                after = session.slide("r", duration=1.0)
                print(
                    f"\nappended over the wire: 'readings' now has {rows:,} rows; "
                    f"the next slide returned {after.entries_returned} entries"
                )

                # ---------------------------------------------------- #
                # fleet-wide stats, aggregated across every worker
                # ---------------------------------------------------- #
                stats = wire.stats()
                print(
                    f"\nfleet: workers alive {stats['alive_workers']}, "
                    f"sessions {sorted(stats['sessions'])}"
                )
                for sid, counters in stats["sessions"].items():
                    print(f"  {sid}: {counters}")

                counters = wire.close_session()
                print(f"\nalice's final counters at close: {counters}")

                # ---------------------------------------------------- #
                # graceful drain: finish in-flight work, refuse new work
                # ---------------------------------------------------- #
                drained = wire.drain(timeout=30)
                print(f"drain completed cleanly: {drained}")
        print("fleet stopped")


if __name__ == "__main__":
    main()
