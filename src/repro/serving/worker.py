"""The shard worker: one process, one MultiSessionServer, one pipe.

A worker process is the unit of CPU scale-out in the sharded serving
topology.  :func:`worker_main` runs in a child process spawned by
:class:`repro.serving.shards.ShardManager` and does three things:

* **attach the published snapshot read-only** — the
  :class:`repro.persist.snapshot.StoreCatalog` opened via
  :meth:`~repro.persist.snapshot.StoreCatalog.open_read_only` maps the
  same on-disk chunk files every sibling worker maps (the ILDG "publish
  once, attach everywhere" pattern), so N workers share base data through
  the page cache instead of holding N copies;
* **host a** :class:`repro.service.MultiSessionServer` — on a thread pool
  (per-session FIFO, admission) when ``scheduler_workers >= 2``, inline
  on the pipe thread in arrival order when it is 1; a session's state
  does not grow with its length (its result streams are fixed rings of
  what the screen shows), so a long-lived session costs a worker no more
  memory than a short one;
* **serve the command pipe** — a socket pair to the front door carrying
  one line of JSON a message under its id
  (:func:`repro.serving.protocol.pipe_frame`): each request is a wire
  request, often the client's own frame, read through a
  :class:`~repro.serving.protocol.FrameDecoder` with one blocking
  ``recv`` at a time; a pooled worker queues gesture work on the
  scheduler (its pipe loop never blocks on a gesture); and each answer is
  encoded once, here, as ``{"ok": ..., "payload" | "error": ...}`` and
  written back under a send lock, tagged with the pipe message's id so
  the parent can match it out of order and the front door can relay it to
  the client without decoding it.  There are nine
  ops (``open-session``, ``close-session``, ``execute``, ``load-column``,
  ``stats``, ``telemetry``, ``drain``, ``ping``, ``stop``) and one of them,
  ``execute``, carries all session work: a script reaches a worker as its
  commands, an append as an :class:`repro.core.commands.AppendCommand`.

Every failure path answers with a typed error payload
(:func:`repro.serving.protocol.error_payload`); the worker loop itself
only exits on an explicit ``stop`` or a closed pipe, so malformed or
hostile requests can never take the process down with them.
"""

from __future__ import annotations

import socket
import threading
from concurrent.futures import Future
from dataclasses import dataclass, fields
from typing import Any, Callable

from repro.core.commands import GestureCommand
from repro.core.kernel import KernelConfig
from repro.core.scheduler import SchedulerConfig
from repro.errors import DbTouchError, MalformedFrameError, ServiceError, UnknownVerbError
from repro.obs.trace import TraceConfig
from repro.persist.snapshot import StoreCatalog
from repro.serving.protocol import (
    PIPE_MAX_BYTES,
    FrameDecoder,
    answer_body,
    decode_frame,
    error_body,
    pipe_frame,
    pipe_messages,
)
from repro.service import LocalExplorationService, MultiSessionServer


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs to build its serving stack.

    The config crosses the process boundary at spawn time, so it holds
    only picklable scalars — the snapshot is referenced by path and
    attached inside the worker, never shipped.

    Attributes
    ----------
    snapshot_path:
        Root directory of a published :class:`StoreCatalog` to attach
        read-only as shared base storage (``None`` serves without one).
    scheduler_workers / max_pending / max_session_pending:
        The worker-local :class:`repro.core.scheduler.SchedulerConfig`
        knobs; admission here is the per-shard backstop behind the front
        door's shed layer.  ``scheduler_workers == 1`` builds no pool: each
        gesture runs on the pipe thread, admitted by ``max_inflight`` alone,
        so such a worker reads neither bound and refuses one set off its
        default rather than ignore it.
    latency_budget_s:
        Pin for :attr:`repro.core.kernel.KernelConfig.latency_budget_s`.
        The default pins it effectively-infinite so outcome counters stay
        a pure function of the command sequence — the cross-process parity
        contract; pass ``None`` to keep the kernel's adaptive default.
    cache_bytes:
        Chunk-cache byte budget for the attached snapshot's store.
    trace_sample_rate:
        ``None`` (the default) serves with tracing disabled — the no-op
        spans cost nothing measurable.  A float in ``(0, 1]`` enables the
        worker's tracer at that deterministic sample rate; incoming
        ``trace`` capsules from the front door are honored either way the
        tracer is enabled.
    slow_trace_threshold_s / flight_recorder_capacity:
        The worker-local flight recorder's slow-log threshold and ring
        size (drained by the ``telemetry`` op).
    """

    snapshot_path: str | None = None
    scheduler_workers: int = 4
    max_pending: int = 4096
    max_session_pending: int = 512
    latency_budget_s: float | None = 1e6
    cache_bytes: int = 64 << 20
    trace_sample_rate: float | None = None
    slow_trace_threshold_s: float | None = None
    flight_recorder_capacity: int = 64

    def __post_init__(self) -> None:
        pool_bounds = fields(self)[2:4]  # max_pending, max_session_pending
        unread = [f.name for f in pool_bounds if getattr(self, f.name) != f.default]
        if self.scheduler_workers == 1 and unread:
            raise ServiceError(
                f"{' and '.join(unread)} bound a worker's pool, and scheduler_workers=1 "
                "builds none; bound the front door's max_inflight"
            )


def _build_server(config: WorkerConfig, worker_id: int = 0) -> MultiSessionServer:
    """Construct the worker's serving stack from its config."""

    def factory() -> LocalExplorationService:
        kernel_config = None
        if config.latency_budget_s is not None:
            kernel_config = KernelConfig(latency_budget_s=config.latency_budget_s)
        return LocalExplorationService(config=kernel_config)

    tracing = None
    if config.trace_sample_rate is not None:
        tracing = TraceConfig(
            sample_rate=config.trace_sample_rate,
            slow_threshold_s=config.slow_trace_threshold_s,
            flight_recorder_capacity=config.flight_recorder_capacity,
            site=f"worker-{worker_id}",
        )
    scheduler = None  # one pool thread would only hand each gesture over
    if config.scheduler_workers != 1:
        scheduler = SchedulerConfig(
            num_workers=config.scheduler_workers,
            max_pending=config.max_pending,
            max_session_pending=config.max_session_pending,
        )
    server = MultiSessionServer(service_factory=factory, scheduler=scheduler, tracing=tracing)
    if config.snapshot_path is not None:
        snapshot = StoreCatalog.open_read_only(
            config.snapshot_path, cache_bytes=config.cache_bytes
        )
        server.load_shared_store(snapshot)
    return server


class _WorkerRuntime:
    """The in-process state of one worker: server, pipe, send lock."""

    def __init__(self, conn: socket.socket, worker_id: int, config: WorkerConfig) -> None:
        self.conn = conn
        self.worker_id = worker_id
        self.config = config
        self.server = _build_server(config, worker_id)
        self._send_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # responses
    # ------------------------------------------------------------------ #
    def _send(self, request_id: int, body: bytes) -> None:
        # a pooled worker's completion callbacks run on scheduler threads
        # while the pipe loop may be answering an inline op: one pipe, one lock
        with self._send_lock:
            try:
                self.conn.sendall(pipe_frame(request_id, body))
            except OSError:
                pass  # parent is gone; the loop will notice EOF and exit

    def _reply(self, request_id: int, payload: dict[str, Any]) -> None:
        self._send(request_id, answer_body(payload))

    def _reply_error(self, request_id: int, exc: BaseException) -> None:
        self._send(request_id, error_body(exc))

    # ------------------------------------------------------------------ #
    # ops
    # ------------------------------------------------------------------ #
    def _op_open(self, request_id: int, session: str, payload: dict) -> None:
        self.server.open_session(session)
        self._reply(request_id, {"session": session, "worker": self.worker_id})

    def _op_close(self, request_id: int, session: str, payload: dict) -> None:
        metrics = self.server.close_session(session)
        self._reply(request_id, {"counters": metrics.counters_snapshot()})

    def _op_execute(self, request_id: int, session: str, payload: dict) -> None:
        # both decoders take anything: a malformed command is a typed
        # CommandError, a mangled trace capsule degrades to untraced
        command = GestureCommand.from_dict(payload.get("command"))
        future = self.server.submit(session, command, trace=payload.get("trace"))

        def deliver(done: Future) -> None:
            try:
                envelope = done.result()
            except BaseException as exc:  # noqa: BLE001 - typed over the pipe
                self._reply_error(request_id, exc)
            else:
                self._reply(request_id, {"envelope": envelope.to_dict()})

        future.add_done_callback(deliver)

    def _op_load_column(self, request_id: int, session: str, payload: dict) -> None:
        name = payload.get("name")
        values = payload.get("values")
        if not isinstance(name, str) or not name:
            raise MalformedFrameError("load-column needs a non-empty 'name'")
        if not isinstance(values, list):
            raise MalformedFrameError("load-column needs a 'values' list")
        column = self.server.load_column(
            session, name, values, replace=bool(payload.get("replace", False))
        )
        self._reply(request_id, {"name": name, "rows": len(column)})

    def _op_stats(self, request_id: int, session: str | None, payload: dict) -> None:
        """Reply one section per collector on the server's telemetry plane
        (each island's own mapping, ``None`` when it has nothing to report)
        around three fixed keys: ``worker``, ``sessions`` — the per-session
        parity counters — and ``shared_objects``."""
        telemetry = self.server.telemetry
        self._reply(
            request_id,
            {
                **{name: telemetry.collect(name) for name in telemetry.collector_names},
                "worker": self.worker_id,
                "sessions": self.server.counters_report(),
                "shared_objects": self.server.shared_object_names,
            },
        )

    def _op_telemetry(self, request_id: int, session: str | None, payload: dict) -> None:
        self._reply(
            request_id,
            {
                "worker": self.worker_id,
                "metrics": self.server.telemetry_snapshot(),
                "exposition": self.server.exposition(),
                "traces": [trace.to_dict() for trace in self.server.drain_traces()],
                "slow_traces": [
                    trace.to_dict() for trace in self.server.drain_slow_traces()
                ],
            },
        )

    def _op_drain(self, request_id: int, session: str | None, payload: dict) -> None:
        timeout = payload.get("timeout")
        drained = self.server.drain(timeout=None if timeout is None else float(timeout))
        self._reply(request_id, {"drained": bool(drained)})

    def _op_ping(self, request_id: int, session: str | None, payload: dict) -> None:
        self._reply(request_id, {"worker": self.worker_id})

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    #: Every pipe op beside ``stop``, named as the wire verb it serves: its
    #: handler and whether it needs a ``session``.
    _OPS: dict[str, tuple[Callable[..., None], bool]] = {
        "open-session": (_op_open, True),
        "close-session": (_op_close, True),
        "execute": (_op_execute, True),
        "load-column": (_op_load_column, True),
        "stats": (_op_stats, False),
        "telemetry": (_op_telemetry, False),
        "drain": (_op_drain, False),
        "ping": (_op_ping, False),
    }

    def handle(self, request_id: int, body: bytes) -> bool:
        """Answer one pipe request; ``False`` means exit the loop."""
        try:
            request = decode_frame(body)
            op = request.get("verb")
            session = request.get("session")
            payload = request.get("payload")
            payload = payload if isinstance(payload, dict) else {}
            payload["trace"] = request.get("trace")  # the capsule rides beside it
            if op == "stop":
                self._reply(request_id, {"stopped": True})
                return False
            if op not in self._OPS:
                raise UnknownVerbError(f"worker does not understand op {op!r}")
            handler, needs_session = self._OPS[op]
            if needs_session and (not isinstance(session, str) or not session):
                raise MalformedFrameError(f"op {op!r} needs a 'session' string")
            handler(self, request_id, session, payload)
        except BaseException as exc:  # noqa: BLE001 - the worker must survive anything
            self._reply_error(request_id, exc)
        return True

    def serve(self) -> None:
        """Answer requests until ``stop`` or EOF, one blocking ``recv`` a read."""
        decoder = FrameDecoder(max_bytes=PIPE_MAX_BYTES)
        while True:
            try:
                data = self.conn.recv(1 << 16)
            except OSError:
                return
            if not data:
                return
            for request_id, body in pipe_messages(decoder.lines(data)):
                if not self.handle(request_id, body):
                    return


def worker_main(conn: socket.socket, worker_id: int, config: WorkerConfig) -> None:
    """Entry point of a shard worker process.

    Builds the serving stack, then answers pipe requests until told to
    ``stop`` or the parent disappears (EOF on the pipe).  Setup failures
    (an unreadable snapshot, say) are reported as an error on the reserved
    id ``-1`` before exiting, so the parent can surface *why* the shard
    never came up instead of seeing a silent early EOF.
    """
    try:
        runtime = _WorkerRuntime(conn, worker_id, config)
    except BaseException as exc:  # noqa: BLE001 - surfaced to the parent
        try:
            conn.sendall(pipe_frame(-1, error_body(exc)))
        finally:
            conn.close()
        return
    # the parent waits for this to confirm the shard is serving
    runtime._reply(-1, {"worker": worker_id})
    try:
        runtime.serve()
    finally:
        try:
            runtime.server.shutdown(wait=False)
        except DbTouchError:
            pass
        conn.close()
