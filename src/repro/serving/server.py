"""The front door: an asyncio TCP server over the shard fleet.

:class:`ShardedServer` accepts connections, decodes newline-delimited
JSON frames (:mod:`repro.serving.protocol`), validates each request
envelope, and routes session-scoped verbs to the pinned shard via
:class:`repro.serving.shards.ShardManager`.  Responses stream back
per-connection in completion order — slow gestures from one session never
head-of-line-block another session sharing the socket.

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

The asyncio loop runs on a background thread — the one thread the front
door starts: it serves the client sockets and every worker pipe and
blocks on none of them — so blocking clients and tests can drive the
server without owning a loop.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import Future, wait
from dataclasses import dataclass, replace
from functools import partial
from typing import Any

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
    encode_frame,
)
from repro.serving.shards import ShardManager, all_drained, replies_of, shard_for_session
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
        on the pipe payload's ``trace`` key, so the ``telemetry`` verb can
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
        # fork the whole fleet before the asyncio loop thread exists
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
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.Server | None = None
        self._port: int | None = None
        self._started = threading.Event()
        self._start_error: BaseException | None = None
        self._lock = threading.Lock()
        self._inflight = 0
        self._draining = False
        self._idle: Future = Future()  # resolves each time nothing is in flight
        self._idle.set_result(None)

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
        """Bind the listen socket on a background event-loop thread."""
        if self._thread is not None:
            raise ServiceError("server is already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-sharded-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=timeout):
            raise ServiceError("server failed to start in time")
        if self._start_error is not None:
            raise ServiceError(f"server failed to bind: {self._start_error}")
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        for handle in self.shards.workers:  # the loop reads every pipe itself
            handle.attach(loop)

        async def bootstrap() -> None:
            try:
                self._server = await asyncio.start_server(
                    self._serve_connection, self.config.host, self.config.port
                )
                self._port = self._server.sockets[0].getsockname()[1]
            except OSError as exc:
                self._start_error = exc
            finally:
                self._started.set()

        loop.run_until_complete(bootstrap())
        if self._start_error is None:
            loop.run_forever()
        # cancel whatever the stop left behind, then close down cleanly
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
        for handle in self.shards.workers:  # stop() reads its own answer
            handle.detach()
        loop.close()

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting work, finish what is in flight, drain every shard.

        Returns ``True`` when every admitted request was answered and
        every shard finished its queued gestures within ``timeout``.
        """
        finished, _ = wait([self._begin_drain()], timeout=timeout)
        return self.shards.drain(timeout=timeout) and bool(finished)

    async def _drain(self, timeout: float | None) -> bool:
        """:meth:`drain` on the loop: it awaits what it waits for."""
        idle = asyncio.wrap_future(self._begin_drain())
        finished, _ = await asyncio.wait([idle], timeout=timeout)
        replies = await self._gather("drain", {"timeout": timeout}, timeout)
        return all_drained(replies) and bool(finished)

    def _begin_drain(self) -> Future:
        """Admit nothing from now on; the future resolves once idle."""
        with self._lock:
            self._draining = True
            return self._idle

    async def _gather(
        self, op: str, payload: dict | None = None, timeout: float | None = 30.0
    ) -> dict[str, dict[str, Any]]:
        """Fan ``op`` out to every live shard and await the replies on the
        loop, which reads them off the pipes (see :func:`replies_of`)."""
        futures = self.shards.submit_all(op, payload)
        if futures:
            await asyncio.wait([asyncio.wrap_future(f) for f in futures.values()], timeout=timeout)
        return replies_of(futures)

    def shutdown(self) -> None:
        """Close the listen socket, stop the loop, stop every worker."""
        loop = self._loop
        if loop is not None and loop.is_running():

            def stop() -> None:
                if self._server is not None:
                    self._server.close()
                loop.stop()

            loop.call_soon_threadsafe(stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.shards.shutdown()

    def __enter__(self) -> "ShardedServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.shutdown()
        return False

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def _admit(self) -> None:
        with self._lock:
            if self._draining:
                raise AdmissionError("server is draining; no new work admitted")
            limit = self.config.max_inflight
            if limit is not None and self._inflight >= limit:
                raise AdmissionError(
                    f"server is at its in-flight limit ({limit}); retry later"
                )
            if self._inflight == 0:
                self._idle = Future()
            self._inflight += 1

    def _release(self) -> None:
        with self._lock:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set_result(None)

    @property
    def inflight(self) -> int:
        """Requests admitted but not yet answered."""
        with self._lock:
            return self._inflight

    def _frontdoor_metrics(self) -> dict[str, int]:
        """The front door's own gauges (a telemetry collector)."""
        return {
            "inflight": self.inflight,
            "num_workers": self.shards.num_workers,
            "alive_workers": len(self.shards.alive_workers),
        }

    # ------------------------------------------------------------------ #
    # per-connection protocol loop
    # ------------------------------------------------------------------ #
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = FrameDecoder(max_bytes=self.config.max_frame_bytes)
        try:
            while True:
                data = await reader.read(64 * 1024)
                if not data:
                    return
                try:
                    frames = decoder.feed(data)
                except ProtocolError as exc:
                    # undecodable stream: answer once (id 0), then hang up —
                    # resynchronizing inside a corrupt byte stream is a lie
                    await self._send(writer, Response.failure(0, exc))
                    return
                for frame in frames:
                    if not await self._handle_frame(frame, writer):
                        return
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            return  # shutdown cancelled us mid-read: close quietly below
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, response: Response) -> None:
        self._post(writer, response)
        await writer.drain()

    def _post(self, writer: asyncio.StreamWriter, response: Response) -> None:
        """Write ``response`` as one whole frame, so answers written from
        many callbacks never interleave (nor go to a closed connection)."""
        if writer.is_closing():
            return
        try:
            data = encode_frame(response.to_dict(), max_bytes=self.config.max_frame_bytes)
        except ProtocolError as exc:
            # a response too large for the wire degrades to a typed error
            data = encode_frame(
                Response.failure(response.id, exc).to_dict(),
                max_bytes=self.config.max_frame_bytes,
            )
        writer.write(data)

    async def _handle_frame(self, frame: dict, writer: asyncio.StreamWriter) -> bool:
        """Answer one decoded frame; ``False`` drops the connection."""
        try:
            request = Request.from_dict(frame)
        except DbTouchError as exc:
            # a malformed envelope may still carry a usable id to answer on
            request_id = frame.get("id")
            if not isinstance(request_id, int) or isinstance(request_id, bool) or request_id < 0:
                await self._send(writer, Response.failure(0, exc))
                return False  # no id the client could match: drop the line
            await self._send(writer, Response.failure(request_id, exc))
            return True
        await self._handle_request(request, writer)
        return True

    async def _handle_request(self, request: Request, writer: asyncio.StreamWriter) -> None:
        try:
            if request.verb == "hello":
                await self._send(writer, Response.success(request.id, self._hello_payload()))
                return
            if request.verb in ("stats", "telemetry"):
                self._admit()
                try:
                    replies = await self._gather(request.verb)
                finally:
                    self._release()
                if request.verb == "stats":
                    payload = self.shards.merge_stats(replies)
                else:
                    payload = self._telemetry_report(self.shards.merge_telemetry(replies))
                await self._send(writer, Response.success(request.id, payload))
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
                drained = await self._drain(timeout)
                await self._send(writer, Response.success(request.id, {"drained": drained}))
                return
            # everything else is session-scoped and runs on a shard
            if request.session is None:
                raise MalformedFrameError(f"verb {request.verb!r} needs a 'session'")
            self._admit()
            if request.verb == "run-script":
                try:
                    self._stream_script(request, writer)
                except BaseException:
                    self._release()
                    raise
                return
            root, payload = None, request.payload
            if request.verb == "execute":
                root, capsule = self._begin_root(request)
                if capsule is not None:
                    payload = {**payload, "trace": capsule}
            try:
                # pipe ops carry the wire verbs' names: forward one-to-one
                future = self.shards.submit(request.verb, request.session, payload)
            except BaseException as exc:
                if root is not None:
                    root.finish(error=exc)
                self._release()
                raise
            self._stream_back(future, request.id, writer, root=root)
        except DbTouchError as exc:
            await self._send(writer, Response.failure(request.id, exc))

    def _begin_root(self, request: Request, **tags: Any) -> tuple[RootSpan | None, dict | None]:
        """Open the front-door root span of an ``execute`` or ``run-script``.

        Returns the root (``None`` when untraced or sampled out) and the
        capsule to ship to the shard: the root's own context, so the
        worker's spans attach *under* the front-door span (continuing the
        client's trace when a capsule rode in on the request) — or the
        client's capsule untouched, because the front door never blocks
        someone else's trace.
        """
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

    def _stream_back(
        self,
        future: Future,
        request_id: int,
        writer: asyncio.StreamWriter,
        root: RootSpan | None = None,
    ) -> None:
        """Forward a shard future's outcome to the connection when it lands.

        The callback fires on the event loop's own thread, where the loop
        read the shard's reply off the pipe, and writes the answer there
        and then, so many outstanding gestures stream back in completion
        order without blocking the connection's read loop.
        """

        def deliver(done: Future) -> None:
            self._release()
            try:
                payload = done.result()
            except Exception as exc:  # noqa: BLE001 - typed onto the wire
                if root is not None:
                    root.finish(error=exc)
                response = Response.failure(request_id, exc)
            else:
                if root is not None:
                    root.finish()
                response = Response.success(request_id, payload)
            self._post(writer, response)

        future.add_done_callback(deliver)

    def _stream_script(self, request: Request, writer: asyncio.StreamWriter) -> None:
        """Answer a ``run-script``: one partial frame per completed gesture.

        A script is its commands: it is decomposed into per-command
        ``execute`` ops on the session's shard — same session, same FIFO
        queue, so gesture order (and outcome parity with issuing the
        commands one ``execute`` at a time) is preserved.  Each completed
        gesture streams back as a success frame tagged ``partial`` with
        its sequence number, and the run closes with a ``done`` frame; the
        first failing gesture instead closes the run with that typed
        error, after which later results are dropped.  One front-door
        admission (already taken by the caller) covers the whole run.
        """
        script = request.payload.get("script")
        commands = script.get("commands") if isinstance(script, dict) else None
        if not isinstance(commands, list):
            raise MalformedFrameError(
                "run-script needs a 'script' object with a 'commands' list"
            )
        total = len(commands)
        closed = False  # every callback below runs on the loop's thread
        post = partial(self._post, writer)
        # one front-door root covers the whole script: every
        # per-command span on the shard attaches under it, so a script is
        # one distributed trace, not N
        root, capsule = self._begin_root(request, commands=total)

        def close(response: Response, error: BaseException | None = None) -> None:
            nonlocal closed
            if closed:
                return
            closed = True
            if root is not None:
                root.finish(error=error)
            self._release()
            post(response)

        if total == 0:
            close(Response.success(request.id, {"done": True, "total": 0}))
            return

        def deliver(seq: int, done: Future) -> None:
            try:
                payload = done.result()
            except Exception as exc:  # noqa: BLE001 - typed onto the wire
                close(Response.failure(request.id, exc), error=exc)
                return
            if closed:
                return
            frame = {"partial": True, "seq": seq, "envelope": payload.get("envelope")}
            post(Response.success(request.id, frame))
            if seq == total - 1:
                close(Response.success(request.id, {"done": True, "total": total}))

        for seq, command in enumerate(commands):  # a dead shard fails each future
            payload: dict[str, Any] = {"command": command}
            if capsule is not None:
                payload["trace"] = capsule
            future = self.shards.submit("execute", request.session, payload)
            future.add_done_callback(partial(deliver, seq))

    def _hello_payload(self) -> dict[str, Any]:
        return {
            "protocol": PROTOCOL_VERSION,
            "num_workers": self.shards.num_workers,
            "alive_workers": self.shards.alive_workers,
            "max_frame_bytes": self.config.max_frame_bytes,
        }


__all__ = ["ShardedServer", "ShardedServerConfig", "shard_for_session"]
