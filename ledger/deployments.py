"""The deployment shapes the workloads run in, driven from the outside.

A deployment turns generated :class:`~ledger.workloads.Inputs` into a
fresh program instance per round — a new service, session, store or fleet
every time, so a round's touch-cache history (and therefore its work) is
the same round after round.  Set-up steps are timed individually so the
harness can report ``setup_s`` and the per-layer set-up metrics from the
same clock readings.

Every kernel is pinned to ``latency_budget_s=1e6`` as the parity suites
pin it: the adaptive optimizer reads the wall clock, and the ledger's
correctness check needs outcome counters to be a function of the script.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.core.commands import GestureScript
from repro.core.kernel import KernelConfig
from repro.core.scheduler import SchedulerConfig
from repro.core.session import ExplorationSession
from repro.errors import DbTouchError
from repro.obs.trace import stitch_traces
from repro.persist.diskstore import DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.service import LocalExplorationService, MultiSessionServer
from repro.serving import ShardedClient
from repro.serving.protocol import DEFAULT_MAX_FRAME_BYTES
from repro.serving.shards import shard_for_session
from repro.storage.column import Column
from repro.storage.table import Table

from ledger import ROOT
from ledger.fleet_host import TRACED_MAX_FRAME_BYTES
from ledger.workloads import Inputs, Op, Scale

#: Seconds a fleet host may take to come up or go down before it is killed.
HOST_TIMEOUT_S = 60.0
#: ``hello`` round trips timed per traced fleet round.
HELLO_SAMPLES = 200


def program_config() -> KernelConfig:
    """The kernel configuration every measured instance runs with."""
    return KernelConfig(latency_budget_s=1e6)


@dataclass
class Round:
    """One fresh program instance, ready for its measured ops."""

    #: One callable per concurrent caller; each executes one :class:`Op`.
    callers: list[Callable[[Op], Any]]
    #: Named set-up steps in seconds; ``total_s`` is the whole set-up.
    steps: dict[str, float]
    #: End-of-round statistics, read through public ``*_stats`` surfaces.
    finish: Callable[[], dict[str, Any]] = dict
    close: Callable[[], None] = lambda: None
    #: Whether the callers run at once (one thread each) or one after another.
    concurrent: bool = False


def _service_caller(service: LocalExplorationService) -> Callable[[Op], Any]:
    def call(op: Op) -> Any:
        if op.command is not None:
            return service.execute(op.command)
        if op.cls == "select":
            return service.select_where(op.view, op.predicate)
        return service.merge_index_tails()

    return call


def _load_inputs(service: LocalExplorationService, inputs: Inputs) -> None:
    for name, values in inputs.columns.items():
        service.load_column(name, values)
    for name, data in inputs.tables.items():
        service.load_table(name, data)


def _index_stats(service: LocalExplorationService) -> dict[str, int]:
    return service.index_stats() or {}


class Deployment:
    """What the harness drives: publish once a round, then open an instance."""

    #: Bytes the last :meth:`prepare` left on disk (0 when nothing is published).
    disk_bytes = 0

    def prepare(self) -> dict[str, float]:
        """One-off set-up a round's instance is opened over; named steps in seconds."""
        return {}

    def open_round(self, traced: bool = False) -> Round:
        raise NotImplementedError

    def _publish(self, root: Path, persist: Callable[[StoreCatalog], None]) -> dict[str, float]:
        """Write a fresh snapshot under ``root`` (replacing the previous one), timed."""
        shutil.rmtree(root, ignore_errors=True)
        started = time.perf_counter()
        store = DiskColumnStore(root)
        persist(StoreCatalog(store))
        elapsed = time.perf_counter() - started
        self.disk_bytes = store.on_disk_bytes()
        return {"persist_s": elapsed, "total_s": elapsed}


class LocalDeployment(Deployment):
    """One in-memory :class:`LocalExplorationService` per script."""

    def __init__(self, inputs: Inputs, config: Callable[[], KernelConfig] = program_config):
        self.inputs = inputs
        self.config = config

    def open_round(self, traced: bool = False) -> Round:
        started = time.perf_counter()
        services = [
            LocalExplorationService(config=self.config()) for _ in self.inputs.scripts
        ]
        built = time.perf_counter()
        for service in services:
            _load_inputs(service, self.inputs)
        loaded = time.perf_counter()
        for service, script in zip(services, self.inputs.scripts):
            service.run(GestureScript(script.setup))
        done = time.perf_counter()
        return Round(
            callers=[_service_caller(service) for service in services],
            steps={"load_column_s": loaded - built, "total_s": done - started},
            finish=lambda: {"index": _index_stats(services[0])},
        )


class SessionDeployment(Deployment):
    """One :class:`ExplorationSession` facade over a private in-memory service."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        (self.script,) = inputs.scripts

    def open_round(self, traced: bool = False) -> Round:
        started = time.perf_counter()
        session = ExplorationSession(config=program_config())
        built = time.perf_counter()
        _load_inputs(session.service, self.inputs)
        loaded = time.perf_counter()
        session.run(GestureScript(self.script.setup))
        done = time.perf_counter()

        def call(op: Op) -> Any:
            if op.command is not None:
                return session.run(GestureScript([op.command]))[0]
            if op.cls == "select":
                return session.select_where(op.view, op.predicate)
            return session.service.merge_index_tails()

        return Round(
            callers=[call],
            steps={"load_column_s": loaded - built, "total_s": done - started},
            finish=lambda: {"index": _index_stats(session.service)},
        )


class SchedulerDeployment(Deployment):
    """A scheduler-mode :class:`MultiSessionServer` with one worker thread.

    The same script as :class:`LocalDeployment`, one hop further out: the
    difference in op latency is the scheduler hand-off.
    """

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        (self.script,) = inputs.scripts

    def open_round(self, traced: bool = False) -> Round:
        started = time.perf_counter()
        server = MultiSessionServer(
            service_factory=lambda: LocalExplorationService(config=program_config()),
            scheduler=SchedulerConfig(num_workers=1),
        )
        session = server.open_session("ledger")
        for name, values in self.inputs.columns.items():
            server.load_column(session, name, values)
        server.run(session, GestureScript(self.script.setup))
        done = time.perf_counter()
        return Round(
            callers=[lambda op: server.execute(session, op.command)],
            steps={"total_s": done - started},
            close=server.shutdown,
        )


class PagedDeployment(Deployment):
    """A read-only snapshot far larger than its chunk cache, in-process."""

    def __init__(self, inputs: Inputs, scale: Scale, workdir: Path):
        self.inputs = inputs
        self.scale = scale
        self.root = workdir / "snapshot"

    def prepare(self) -> dict[str, float]:
        """Publish the table the round's service opens read-only."""

        def persist(catalog: StoreCatalog) -> None:
            for name, data in self.inputs.tables.items():
                catalog.persist_table(
                    Table.from_arrays(name, data), chunk_rows=self.scale.paged_chunk_rows
                )

        return self._publish(self.root, persist)

    def open_round(self, traced: bool = False) -> Round:
        (script,) = self.inputs.scripts
        started = time.perf_counter()
        snapshot = StoreCatalog.open_read_only(
            self.root, cache_bytes=self.scale.paged_cache_bytes
        )
        service = LocalExplorationService(config=program_config())
        snapshot.attach(service.catalog)
        opened = time.perf_counter()
        service.run(GestureScript(script.setup))
        done = time.perf_counter()

        def finish() -> dict[str, Any]:
            stats = snapshot.store.cache.stats
            return {
                "index": _index_stats(service),
                "chunks": {
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "evictions": stats.evictions,
                },
            }

        def close() -> None:
            # chunk crackers spill through the store; a fresh round must
            # not find the previous round's spill files
            manager = service.kernel.index_manager
            if manager is not None:
                manager.clear()

        return Round(
            callers=[_service_caller(service)],
            steps={"open_snapshot_s": opened - started, "total_s": done - started},
            finish=finish,
            close=close,
        )


class _FleetHost:
    """The child process hosting one fleet (see :mod:`ledger.fleet_host`)."""

    def __init__(self, snapshot_path: Path, workers: int, traced: bool, log_path: Path):
        options = {"snapshot_path": str(snapshot_path), "workers": workers, "traced": traced}
        # the front door logs a cancelled connection task per client when it
        # stops; kept out of the ledger's output unless the host fails
        with open(log_path, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "ledger.fleet_host", json.dumps(options)],
                cwd=ROOT,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
            )
        line = self.process.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError(
                f"fleet host exited with code {self.process.returncode} before serving:\n"
                + log_path.read_text()
            )
        self.port = int(json.loads(line)["port"])

    def stop(self) -> None:
        """Ask the host to shut its fleet down; kill it if it does not."""
        try:
            self.process.stdin.close()
            self.process.wait(timeout=HOST_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        finally:
            self.process.stdout.close()


def _session_ids(clients: int, workers: int) -> list[str]:
    """One session id per client, spread over the shards round-robin."""
    ids: list[str] = []
    candidate = 0
    while len(ids) < clients:
        sid = f"ledger-{candidate}"
        if shard_for_session(sid, workers) == len(ids) % workers:
            ids.append(sid)
        candidate += 1
    return ids


class FleetDeployment(Deployment):
    """A sharded fleet in its own process, called over the wire."""

    def __init__(self, inputs: Inputs, scale: Scale, workdir: Path):
        self.inputs = inputs
        self.scale = scale
        self.root = workdir / "snapshot"
        self.session_ids = _session_ids(len(inputs.scripts), scale.fleet_workers)

    def prepare(self) -> dict[str, float]:
        """Publish the column every worker attaches read-only."""

        def persist(catalog: StoreCatalog) -> None:
            for name, values in self.inputs.columns.items():
                catalog.persist_column(Column(name, values))

        return self._publish(self.root, persist)

    def open_round(self, traced: bool = False) -> Round:
        started = time.perf_counter()
        log_path = self.root.parent / "fleet-host.log"
        host = _FleetHost(self.root, self.scale.fleet_workers, traced, log_path)
        clients: list[ShardedClient] = []
        try:
            serving = time.perf_counter()
            for sid, script in zip(self.session_ids, self.inputs.scripts):
                client = ShardedClient("127.0.0.1", host.port, session_id=sid, timeout_s=120)
                clients.append(client)
                for command in script.setup:
                    client.execute(command)
            done = time.perf_counter()
        except BaseException:
            self._close(host, clients)
            raise

        def finish() -> dict[str, Any]:
            frame_bytes = TRACED_MAX_FRAME_BYTES if traced else DEFAULT_MAX_FRAME_BYTES
            with ShardedClient(
                "127.0.0.1",
                host.port,
                session_id="ledger-control",
                open_on_connect=False,
                max_frame_bytes=frame_bytes,
                timeout_s=120,
            ) as control:
                fleet = control.stats()
                storage = fleet.get("storage") or {}
                stats: dict[str, Any] = {
                    "index": fleet.get("index") or {},
                    "chunks": {
                        "hits": storage.get("chunk_hits", 0),
                        "misses": storage.get("chunk_misses", 0),
                        "evictions": storage.get("chunk_evictions", 0),
                    },
                }
                if traced:
                    stats["spans"] = _span_seconds(control.telemetry()["traces"])
                    hello = []
                    for _ in range(HELLO_SAMPLES):
                        t0 = time.perf_counter()
                        control.hello()
                        hello.append(time.perf_counter() - t0)
                    stats["hello_s"] = hello
            return stats

        return Round(
            callers=[lambda op, client=client: client.execute(op.command) for client in clients],
            steps={"fleet_start_s": serving - started, "total_s": done - started},
            finish=finish,
            close=lambda: self._close(host, clients),
            concurrent=True,
        )

    @staticmethod
    def _close(host: _FleetHost, clients: list[ShardedClient]) -> None:
        for client in clients:
            try:
                client.close_session()
            except (OSError, DbTouchError):
                pass  # a broken connection: the fleet is going down either way
            client.close()
        host.stop()


def _span_seconds(partials: list[dict]) -> dict[str, list[float]]:
    """Durations of the program's own worker spans, one list per span name."""
    seconds: dict[str, list[float]] = {"queue_wait": [], "kernel_exec": []}
    for trace in stitch_traces(partials):
        for span in trace.spans:
            if span.name in seconds:
                seconds[span.name].append(span.duration_s)
    return seconds


def clean_workdir(workdir: Path) -> None:
    """Remove a run's scratch directory (snapshots, spill files)."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(workdir.parent)
    except OSError:
        pass  # other runs are still using the parent
