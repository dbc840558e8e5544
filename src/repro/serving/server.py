"""The front door: an asyncio TCP server over the shard fleet.

:class:`ShardedServer` accepts connections, decodes newline-delimited
JSON frames (:mod:`repro.serving.protocol`), validates each request
envelope, and routes session-scoped verbs to the pinned shard via
:class:`repro.serving.shards.ShardManager`.  Each connection is an
:class:`asyncio.Protocol` whose ``data_received`` decodes every frame
once and dispatches it on the spot: a session verb's frame goes to its
shard as the client's own bytes, and the worker's answer, encoded once
in the worker, comes back onto the socket under the request id without
being decoded (a ``run-script`` is sent command by command and answered
frame by frame).  Only ``stats``, ``telemetry`` and ``drain`` become
tasks, because they await a fan-out to every shard; their replies, and
``hello``'s, the front door decodes, merges and encodes itself.
Responses stream back per-connection in completion order — slow gestures
from one session never head-of-line-block another session sharing the
socket.

The front door is also the shed layer: a server-wide bound on in-flight
requests reuses the existing :class:`repro.errors.AdmissionError`
contract, so overload turns into an immediate typed refusal on the wire
(exactly like the in-process scheduler's ``max_pending``) instead of
unbounded queueing.  And it is the *armor* layer: every decode failure is
answered (or, with no usable request id, the connection dropped) at the
boundary, and the one payload field the front door consumes itself
(``drain``'s ``timeout``) is validated before it acts on it — hostile
bytes never reach a worker process, which is what the fuzz suites in
``tests/test_serving_protocol.py`` and ``tests/test_serving_sharded.py``
pin down.

The front door starts no thread of its own: it serves on the fleet's one
event-loop thread, which :class:`~repro.serving.shards.ShardManager`
starts once every worker is forked.  That loop serves the client sockets
and every worker pipe and blocks on none of them, and the admission and
drain state lives on it; the blocking :meth:`ShardedServer.drain` runs
the ``drain`` verb's own coroutine there, so blocking clients and tests
can drive the server without owning a loop.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, replace
from functools import partial
from time import monotonic
from typing import Any, Awaitable, Callable

from repro.errors import (
    AdmissionError,
    DbTouchError,
    MalformedFrameError,
    ProtocolError,
    ServiceError,
)
from repro.obs.registry import TelemetryRegistry, merge_numeric, render_exposition
from repro.obs.trace import RootSpan, TraceConfig, TraceContext, Tracer
from repro.serving.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    Request,
    Response,
    answer_error,
    answer_frame,
    bounded,
    decode_frame,
    encode_frame,
    encode_json,
    partial_frame,
    request_body,
)
from repro.serving.shards import (
    Deliver,
    ShardManager,
    all_drained,
    remaining,
    shard_for_session,
    wait_all,
)
from repro.serving.worker import WorkerConfig


@dataclass(frozen=True)
class ShardedServerConfig:
    """Tuning knobs of the front door.

    Attributes
    ----------
    host / port:
        Listen address; port ``0`` asks the OS for a free port (read the
        bound one back from :attr:`ShardedServer.port`).
    num_workers:
        Shard (worker process) count.
    worker:
        Per-worker config, shipped to every shard at spawn.
    max_frame_bytes:
        Per-frame byte bound, both directions.
    max_inflight:
        Server-wide cap on requests admitted but not yet answered — the
        front-door shed layer.  ``None`` disables shedding here (the
        per-worker scheduler admission still applies).
    tracing:
        Front-door :class:`repro.obs.trace.TraceConfig` (``None`` serves
        untraced).  When set, every ``execute`` and every ``run-script``
        opens one front-door root span and ships its context to the shard
        as the request's ``trace``, so the ``telemetry`` verb can
        stitch one distributed trace per gesture (per script).  The config's
        ``site`` is overridden to ``"front-door"``; enable the *workers'*
        tracers via :attr:`WorkerConfig.trace_sample_rate`.
    """

    host: str = "127.0.0.1"
    port: int = 0
    num_workers: int = 4
    worker: WorkerConfig = WorkerConfig()
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    max_inflight: int | None = 1024
    tracing: TraceConfig | None = None


class ShardedServer:
    """Accepts TCP clients and serves them off the worker fleet."""

    def __init__(self, config: ShardedServerConfig | None = None) -> None:
        self.config = config if config is not None else ShardedServerConfig()
        # forks the whole fleet, then starts the one loop thread this serves on
        self.shards = ShardManager(
            num_workers=self.config.num_workers, config=self.config.worker
        )
        self.telemetry = TelemetryRegistry()
        if self.config.tracing is not None:
            self.tracer = Tracer(
                replace(self.config.tracing, site="front-door"), registry=self.telemetry
            )
        else:
            self.tracer = Tracer(TraceConfig(enabled=False))
        self.telemetry.register_collector("frontdoor", self._frontdoor_metrics)
        self._loop = self.shards.loop
        self._server: asyncio.Server | None = None
        self._connections: set[_Connection] = set()
        self._tasks: set[asyncio.Task] = set()  # fan-out verbs awaiting their shards
        self._port: int | None = None
        # admission and drain state: read and written on the loop only
        self._inflight = 0
        self._draining = False
        self._idle = self._loop.create_future()  # resolves once draining and nothing is in flight

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        """The bound listen port (valid after :meth:`start`)."""
        if self._port is None:
            raise ServiceError("server is not started")
        return self._port

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` pair."""
        return (self.config.host, self.port)

    def start(self, timeout: float = 30.0) -> "ShardedServer":
        """Bind the listen socket on the fleet's event loop."""
        if self._server is not None:
            raise ServiceError("server is already started")
        listen = self._loop.create_server(
            lambda: _Connection(self), self.config.host, self.config.port
        )
        try:
            self._server = self.shards.call(listen, timeout)
        except OSError as exc:
            raise ServiceError(f"server failed to bind: {exc}") from exc
        except TimeoutError as exc:
            raise ServiceError("server failed to start in time") from exc
        self._port = self._server.sockets[0].getsockname()[1]
        return self

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting work, finish what is in flight, drain every shard.

        Returns ``True`` when every admitted request was answered and
        every shard finished its queued gestures within ``timeout``, one
        budget for both.
        """
        return self.shards.call(self._drain(timeout))["drained"]

    async def _drain(self, timeout: float | None) -> dict[str, bool]:
        """The ``drain`` verb: wait for idle, then drain every shard with
        what is left of ``timeout``."""
        started = monotonic()
        idle = self._begin_drain()
        await wait_all([idle], timeout)
        left = remaining(timeout, started)
        replies = await self.shards.gather("drain", {"timeout": left}, left)
        return {"drained": all_drained(replies) and idle.done()}

    def _begin_drain(self) -> asyncio.Future:
        """Admit nothing from now on; the future resolves once idle."""
        self._draining = True
        if self._inflight == 0 and not self._idle.done():
            self._idle.set_result(None)
        return self._idle

    def shutdown(self) -> None:
        """Close the listen socket and every client, stop every worker."""
        if not self._loop.is_closed():
            self.shards.call(self._close())
        self.shards.shutdown()

    async def _close(self) -> None:
        """Hang up on every client and cancel the fan-out verbs left waiting."""
        if self._server is not None:
            self._server.close()
        for connection in list(self._connections):
            connection.transport.close()
        await asyncio.sleep(0)  # their close callbacks
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def __enter__(self) -> "ShardedServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.shutdown()
        return False

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def _admit(self) -> None:
        if self._draining:
            raise AdmissionError("server is draining; no new work admitted")
        limit = self.config.max_inflight
        if limit is not None and self._inflight >= limit:
            raise AdmissionError(f"server is at its in-flight limit ({limit}); retry later")
        self._inflight += 1

    def _release(self) -> None:
        self._inflight -= 1
        if self._inflight == 0 and self._draining and not self._idle.done():
            self._idle.set_result(None)

    @property
    def inflight(self) -> int:
        """Requests admitted but not yet answered."""
        return self._inflight

    def _frontdoor_metrics(self) -> dict[str, int]:
        """The front door's own gauges (a telemetry collector)."""
        return {
            "inflight": self.inflight,
            "num_workers": self.shards.num_workers,
            "alive_workers": len(self.shards.alive_workers),
        }

    # ------------------------------------------------------------------ #
    # per-connection protocol
    # ------------------------------------------------------------------ #
    def _connected(self, connection: "_Connection", transport: asyncio.Transport) -> None:
        connection.transport = transport
        # a client that does not read its answers is not read either
        connection.pause_writing = transport.pause_reading
        connection.resume_writing = transport.resume_reading
        self._connections.add(connection)

    def _receive(self, connection: "_Connection", data: bytes) -> None:
        """Decode every frame ``data`` completed, then answer each in turn."""
        transport = connection.transport
        try:
            lines = connection.decoder.lines(data)
            frames = [(line, decode_frame(line)) for line in lines]
        except ProtocolError as exc:
            # undecodable stream: answer once (id 0), then hang up —
            # resynchronizing inside a corrupt byte stream is a lie
            self._post(transport, Response.failure(0, exc))
            transport.close()
            return
        for line, frame in frames:
            if not self._handle_frame(line, frame, transport):
                transport.close()
                return

    def _post(self, transport: asyncio.Transport, response: Response) -> None:
        """Write ``response`` as one whole frame, so answers written from
        many callbacks never interleave (nor go to a closed connection)."""
        try:
            frame = encode_json(response.to_dict()) + b"\n"
        except ProtocolError as exc:  # unencodable: its typed error instead
            frame = encode_frame(Response.failure(response.id, exc).to_dict())
        self._relay(transport, response.id, frame)

    def _relay(self, transport: asyncio.Transport, request_id: int, frame: bytes) -> None:
        """Write one whole frame; one too large for the wire degrades to a
        typed error."""
        try:
            bounded(frame, self.config.max_frame_bytes)
        except ProtocolError as exc:
            frame = encode_frame(Response.failure(request_id, exc).to_dict())
        if not transport.is_closing():
            transport.write(frame)

    def _handle_frame(self, line: bytes, frame: dict, transport: asyncio.Transport) -> bool:
        """Answer one decoded frame; ``False`` drops the connection."""
        try:
            request = Request.from_dict(frame)
        except DbTouchError as exc:
            # a malformed envelope may still carry a usable id to answer on
            request_id = frame.get("id")
            if not isinstance(request_id, int) or isinstance(request_id, bool) or request_id < 0:
                self._post(transport, Response.failure(0, exc))
                return False  # no id the client could match: drop the line
            self._post(transport, Response.failure(request_id, exc))
            return True
        try:
            self._handle_request(request, line, transport)
        except DbTouchError as exc:
            self._post(transport, Response.failure(request.id, exc))
        return True

    def _handle_request(self, request: Request, line: bytes, transport: asyncio.Transport) -> None:
        if request.verb == "hello":
            self._post(transport, Response.success(request.id, self._hello_payload()))
            return
        if request.verb in ("stats", "telemetry"):
            self._admit()
            self._spawn(request.id, transport, self._report(request.verb))
            return
        if request.verb == "drain":
            timeout = request.payload.get("timeout")
            # validated before the drain starts: a bad frame must not
            # leave the server refusing work (NaN fails both bounds)
            if timeout is not None and not (
                isinstance(timeout, (int, float))
                and not isinstance(timeout, bool)
                and 0 <= timeout <= threading.TIMEOUT_MAX
            ):
                raise MalformedFrameError(
                    "drain 'timeout' must be a non-negative number of seconds or null"
                )
            self._begin_drain()  # the frames behind this one are refused already
            self._spawn(request.id, transport, self._drain(timeout))
            return
        # everything else is session-scoped and runs on a shard
        if request.session is None:
            raise MalformedFrameError(f"verb {request.verb!r} needs a 'session'")
        self._admit()
        try:  # every body is made before the first is sent: a failure sends none
            if request.verb == "run-script":
                sends = self._stream_script(request, transport)
            else:
                root = None
                if request.verb == "execute":
                    root, capsule = self._begin_root(request)
                    if root is not None:  # the shard's spans go under the front door's
                        line = _finish_on_error(
                            root, lambda: encode_json(replace(request, trace=capsule).to_dict())
                        )
                # pipe ops carry the wire verbs' names: the client's frame is the request
                sends = [(line, partial(self._answer, transport, request.id, root))]
        except BaseException:
            self._release()
            raise
        shard = self.shards.worker_for_session(request.session)
        for body, deliver in sends:  # a dead shard fails each one
            shard.send(body, deliver)

    def _answer(
        self,
        transport: asyncio.Transport,
        request_id: int,
        root: RootSpan | None,
        answer: bytes | BaseException,
    ) -> None:
        """Relay a shard's answer to the connection when it lands.

        The callback fires on the event loop's own thread, where the loop
        read the shard's answer off the pipe, and writes it there and then,
        so many outstanding gestures stream back in completion order.
        """
        self._release()
        if root is not None:
            root.finish(error=_error_of(answer))
        self._relay(transport, request_id, _frame_of(request_id, answer))

    def _spawn(
        self, request_id: int, transport: asyncio.Transport, work: Awaitable[dict[str, Any]]
    ) -> None:
        """Answer a fan-out verb once ``work`` has its payload."""

        async def answer() -> None:
            try:
                payload = await work
            except DbTouchError as exc:
                self._post(transport, Response.failure(request_id, exc))
            else:
                self._post(transport, Response.success(request_id, payload))

        task = asyncio.get_running_loop().create_task(answer())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _report(self, verb: str) -> dict[str, Any]:
        """The fleet's ``stats`` or ``telemetry`` (admitted by the caller)."""
        try:
            replies = await self.shards.gather(verb)
        finally:
            self._release()
        if verb == "stats":
            return self.shards.merge_stats(replies)
        return self._telemetry_report(self.shards.merge_telemetry(replies))

    def _begin_root(self, request: Request, **tags: Any) -> tuple[RootSpan | None, dict | None]:
        """Open the front-door root span of an ``execute`` or ``run-script``.

        Returns the root (``None`` when untraced or sampled out) and the
        capsule to ship to the shard: the root's own context, so the
        worker's spans attach *under* the front-door span (continuing the
        client's trace when a capsule rode in on the request) — or the
        client's capsule untouched, because the front door never blocks
        someone else's trace.
        """
        if not self.tracer.enabled:
            return None, request.trace
        root = self.tracer.begin(
            request.verb,
            ctx=TraceContext.from_dict(request.trace),
            activate=False,
            session=request.session,
            **tags,
        )
        return root, (root.context().to_dict() if root is not None else request.trace)

    def _telemetry_report(self, fleet: dict[str, Any]) -> dict[str, Any]:
        """Fleet-wide telemetry: merged metrics, drained traces, exposition.

        ``fleet`` is :meth:`ShardManager.merge_telemetry` of the workers'
        replies.  ``metrics`` key-wise sums every worker's snapshot with the
        front door's own (:func:`repro.obs.registry.merge_numeric`), ``traces``
        concatenates every site's drained partials (stitch them client-side
        with :func:`repro.obs.trace.stitch_traces`), and ``exposition`` is
        the merged view in Prometheus text format.  Per-worker detail stays
        under ``workers``.
        """
        front_metrics = self.telemetry.snapshot()
        recorder = self.tracer.recorder
        front_traces = [t.to_dict() for t in recorder.drain()] if recorder else []
        front_slow = [t.to_dict() for t in recorder.drain_slow()] if recorder else []
        merged = merge_numeric([fleet["metrics"], front_metrics])
        return {
            "num_workers": fleet["num_workers"],
            "alive_workers": fleet["alive_workers"],
            "metrics": merged,
            "exposition": render_exposition(merged),
            "traces": fleet["traces"] + front_traces,
            "slow_traces": fleet["slow_traces"] + front_slow,
            "front_door": {
                "metrics": front_metrics,
                "exposition": self.telemetry.exposition(),
            },
            "workers": fleet["workers"],
        }

    def _stream_script(
        self, request: Request, transport: asyncio.Transport
    ) -> list[tuple[bytes, Deliver]]:
        """Answer a ``run-script``: one partial frame per completed gesture.

        A script is its commands: it is decomposed into per-command
        ``execute`` ops on the session's shard — same session, same FIFO
        queue, so gesture order (and outcome parity with issuing the
        commands one ``execute`` at a time) is preserved.  Each completed
        gesture streams back as a success frame tagged ``partial`` with
        its sequence number, spliced from the worker's answer, and the run
        closes with a ``done`` frame; the first failing gesture instead
        closes the run with that typed error, after which later results
        are dropped.  One front-door admission (already taken by the
        caller) covers the whole run.  Returns each command's pipe request
        with what gets its answer, all encoded before any is sent: a command
        JSON cannot carry fails the whole run with nothing sent.
        """
        script = request.payload.get("script")
        commands = script.get("commands") if isinstance(script, dict) else None
        if not isinstance(commands, list):
            raise MalformedFrameError(
                "run-script needs a 'script' object with a 'commands' list"
            )
        total = len(commands)
        closed = False  # every callback below runs on the loop's thread
        # one front-door root covers the whole script: every
        # per-command span on the shard attaches under it, so a script is
        # one distributed trace, not N
        root, capsule = self._begin_root(request, commands=total)
        bodies = _finish_on_error(
            root,
            lambda: [
                request_body("execute", request.session, {"command": command}, capsule)
                for command in commands
            ],
        )

        def close(frame: bytes, error: BaseException | None = None) -> None:
            nonlocal closed
            if closed:
                return
            closed = True
            if root is not None:
                root.finish(error=error)
            self._release()
            self._relay(transport, request.id, frame)

        done = encode_frame(Response.success(request.id, {"done": True, "total": total}).to_dict())
        if total == 0:
            close(done)
            return []

        def deliver(seq: int, answer: bytes | BaseException) -> None:
            error = _error_of(answer)
            if error is not None:
                close(_frame_of(request.id, answer), error=error)
                return
            if closed:
                return
            self._relay(transport, request.id, partial_frame(request.id, seq, answer))
            if seq == total - 1:
                close(done)

        return [(body, partial(deliver, seq)) for seq, body in enumerate(bodies)]

    def _hello_payload(self) -> dict[str, Any]:
        return {
            "protocol": PROTOCOL_VERSION,
            "num_workers": self.shards.num_workers,
            "alive_workers": self.shards.alive_workers,
            "max_frame_bytes": self.config.max_frame_bytes,
        }


def _finish_on_error(root: RootSpan | None, build: Callable[[], Any]) -> Any:
    """``build()``, finishing ``root`` with the error it raises (JSON decodes
    a NaN it cannot encode: a refused request must not leave its root open)."""
    try:
        return build()
    except BaseException as exc:
        if root is not None:
            root.finish(error=exc)
        raise


def _error_of(answer: bytes | BaseException) -> BaseException | None:
    """The error a shard's answer carries, if any."""
    return answer if isinstance(answer, BaseException) else answer_error(answer)


def _frame_of(request_id: int, answer: bytes | BaseException) -> bytes:
    """The wire frame of a shard's answer to ``request_id``."""
    if isinstance(answer, BaseException):
        return encode_frame(Response.failure(request_id, answer).to_dict())
    return answer_frame(request_id, answer)


class _Connection(asyncio.Protocol):
    """One client connection.  asyncio calls a protocol's callbacks by name;
    here each is the front door's handler, bound to this connection."""

    def __init__(self, server: ShardedServer) -> None:
        self.decoder = FrameDecoder(max_bytes=server.config.max_frame_bytes)
        self.transport: asyncio.Transport | None = None
        self.connection_made = partial(server._connected, self)
        self.data_received = partial(server._receive, self)
        self.connection_lost = lambda exc: server._connections.discard(self)


__all__ = ["ShardedServer", "ShardedServerConfig", "shard_for_session"]
