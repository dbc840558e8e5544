"""Shard topology: session-pinned worker processes behind command pipes.

:func:`shard_for_session` is the whole placement policy — a stable hash
of the session id modulo the worker count — which gives the serving tier
its central invariant: *every gesture of one session executes in one
process*.  Session affinity is what keeps the adaptive state a session's
gestures build (sample read-ahead, result streams, indexes) in one
kernel, so per-session outcome counters stay bit-identical to a serial
replay no matter how many shards serve the fleet.

:class:`ShardManager` owns the fleet: it forks every worker process
while it has started no thread (fork safety — forking a multi-threaded
parent is how deadlocks are born), then starts the fleet's one event-loop
thread, ``repro-sharded-server``, which the front door serves its clients
on too.  A worker's pipe is a non-blocking socket pair carrying one line
of JSON a message under its id (:mod:`repro.serving.protocol`), and that
loop is its only reader and writer for its whole life, from the ready
handshake to ``stop``: it reads the pipe through a
:class:`~repro.serving.protocol.FrameDecoder` with one ``recv`` per
readiness and writes what the socket takes.  Any other thread reaches a
pipe by handing work to the loop — :meth:`WorkerHandle.submit` and the
blocking fleet-wide calls do — and waits on a future.  An answer reaches
whoever asked as its body, undecoded, so the front door can relay it; a
:class:`_Reply` decodes it for the callers that read it.  A fan-out
(:meth:`ShardManager.gather`) waits one budget for every shard at once.
A worker death is detected as pipe EOF and converted into
:class:`repro.errors.WorkerCrashedError` on every pending and future
request routed to that shard — sessions pinned to a dead shard fail
loudly and immediately while the surviving shards keep serving, which is
the blast-radius story of sharding in the first place.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing as mp
import socket
import threading
from concurrent.futures import Future
from time import monotonic
from typing import Any, Awaitable, Callable, Iterable

from repro.errors import DbTouchError, ServiceError, WorkerCrashedError
from repro.obs.registry import merge_numeric
from repro.serving.protocol import (
    PIPE_MAX_BYTES,
    FrameDecoder,
    answer_payload,
    pipe_frame,
    pipe_messages,
    request_body,
)
from repro.serving.worker import WorkerConfig, worker_main

#: How long ShardManager waits for the workers' ready handshakes.
DEFAULT_READY_TIMEOUT_S = 30.0


def shard_for_session(session_id: str, num_workers: int) -> int:
    """Pin one session to one worker: stable hash, independent of Python's
    per-process ``hash()`` randomization (clients and servers must agree).
    """
    if num_workers <= 0:
        raise ServiceError("num_workers must be positive")
    digest = hashlib.sha256(session_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_workers


def replies_of(futures: dict[str, Future]) -> dict[str, dict[str, Any]]:
    """Each shard's reply payload by worker id; a shard that failed, died
    or has not answered yet reads ``{"error": ...}`` as data, never raised
    (a half-dead fleet can still describe itself)."""
    replies: dict[str, dict[str, Any]] = {}
    for worker_id, future in futures.items():
        if not future.done():
            replies[worker_id] = {"error": f"worker {worker_id} did not answer in time"}
        elif future.exception() is not None:
            replies[worker_id] = {"error": str(future.exception())}
        else:
            replies[worker_id] = future.result()
    return replies


def all_drained(replies: dict[str, dict[str, Any]]) -> bool:
    """Whether every shard's ``drain`` reply says it finished."""
    return all(bool(report.get("drained")) for report in replies.values())


async def wait_all(futures: Iterable[Future], timeout: float | None) -> None:
    """Wait on the loop, at most ``timeout`` s in all, for every future not
    yet done (``concurrent.futures`` or the loop's own); the one wait a
    fan-out or a drain makes."""
    pending = [asyncio.wrap_future(future) for future in futures if not future.done()]
    for copy in pending:  # its outcome is read off the future it copies
        copy.add_done_callback(lambda done: done.cancelled() or done.exception())
    if pending:
        await asyncio.wait(pending, timeout=timeout)


def remaining(timeout: float | None, since: float) -> float | None:
    """What is left of a ``timeout`` budget spent from ``since`` on
    (a :func:`time.monotonic` reading); ``None`` is no bound."""
    return None if timeout is None else max(0.0, timeout - (monotonic() - since))


#: What gets a worker's answer: its body, or the shard's crash error.
Deliver = Callable[[bytes | BaseException], None]


class _Reply(Future):
    """A worker's decoded answer, delivered on the loop's thread."""

    def deliver(self, answer: bytes | BaseException) -> None:
        """Resolve with the answer's payload, or its typed error."""
        if self.done():
            return  # cancelled by whoever stopped waiting
        try:
            if isinstance(answer, BaseException):
                raise answer
            self.set_result(answer_payload(answer))
        except DbTouchError as exc:
            self.set_exception(exc)


class WorkerHandle:
    """Parent-side handle of one worker process: pipe, pending answers, liveness.

    Everything but :meth:`submit`, :attr:`alive` and :meth:`wait_ready`
    runs on the loop's thread, so the handle's state needs no lock.
    """

    def __init__(self, worker_id: int, config: WorkerConfig, ctx: mp.context.BaseContext):
        self.worker_id = worker_id
        self._conn, child_conn = socket.socketpair()
        self._conn.setblocking(False)  # read when readable, written as it takes
        self._fd = self._conn.fileno()
        self._in = FrameDecoder(max_bytes=PIPE_MAX_BYTES)
        self._out = bytearray()  # framed requests the pipe has not taken yet
        self._loop: asyncio.AbstractEventLoop | None = None  # the pipe's one user
        self._writing = False  # the loop waits for room to write
        self._ready = _Reply()
        self._pending: dict[int, Deliver] = {-1: self._ready.deliver}  # by message id
        self._next_id = 0
        self.process = ctx.Process(
            target=worker_main,
            args=(child_conn, worker_id, config),
            name=f"repro-shard-{worker_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()  # the child's end lives in the child now
        self._alive = True

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def serve_on(self, loop: asyncio.AbstractEventLoop) -> None:
        """Give the pipe to ``loop`` for good (before the loop runs)."""
        self._loop = loop
        loop.add_reader(self._fd, self.read_ready)

    def wait_ready(self, timeout: float | None = DEFAULT_READY_TIMEOUT_S) -> None:
        """Block until the worker's ready handshake (or typed setup error)."""
        self._ready.result(timeout=timeout)

    @property
    def alive(self) -> bool:
        """Whether this shard is still accepting requests."""
        return self._alive

    def close(self) -> None:
        """Fail what still waits and close the pipe (on the loop's thread,
        once the worker has exited)."""
        self._on_crash()
        self._conn.close()

    # ------------------------------------------------------------------ #
    # request/response plumbing
    # ------------------------------------------------------------------ #
    def submit(self, op: str, session: str | None = None, payload: dict | None = None) -> Future:
        """Queue one op for the worker, from any thread; the future resolves
        (on the loop's thread) with its payload."""
        future = _Reply()
        body = request_body(op, session, payload)
        try:
            self._loop.call_soon_threadsafe(self.send, body, future.deliver)
        except RuntimeError:  # the loop is closed: the fleet has stopped
            future.deliver(self._down())
        return future

    def send(self, body: bytes, deliver: Deliver) -> None:
        """Queue one request body (JSON in the wire's request form) for the
        worker, on the loop's thread; ``deliver`` gets the answer's body,
        or the crash error."""
        if not self._alive:
            deliver(self._down())
            return
        ident = self._next_id
        self._next_id += 1
        self._pending[ident] = deliver
        self._out += pipe_frame(ident, body)
        self.flush()

    def flush(self) -> None:
        """Write as much of the queued requests as the pipe takes now.

        Never blocks: a worker busy writing replies reads no request, and
        the loop that would drain those replies must not wait on it.  What
        is left waits for room with ``add_writer``.
        """
        try:
            while self._out:
                del self._out[: self._conn.send(self._out)]
        except BlockingIOError:
            pass
        except OSError:
            self._out.clear()
            self._on_crash()  # the worker is gone: fail what waits on it
            return
        waiting = bool(self._out)
        if waiting != self._writing:
            if waiting:
                self._loop.add_writer(self._fd, self.flush)
            else:
                self._loop.remove_writer(self._fd)
            self._writing = waiting

    def read_ready(self) -> None:
        """Read the pipe once and deliver every answer it completed; at EOF
        the worker is gone: fail what waits, stop reading."""
        try:
            data = self._conn.recv(1 << 16)
        except BlockingIOError:
            return
        except OSError:
            data = b""  # reset under us: as good as EOF
        if not data:
            self._on_crash()
            return
        for ident, body in pipe_messages(self._in.lines(data)):
            deliver = self._pending.pop(ident, None)
            if deliver is not None:  # else a late answer to an abandoned request
                deliver(body)

    # ------------------------------------------------------------------ #
    # crash handling
    # ------------------------------------------------------------------ #
    def _down(self) -> WorkerCrashedError:
        return WorkerCrashedError(
            f"worker {self.worker_id} is down; sessions pinned to this shard are lost"
        )

    def _on_crash(self) -> None:
        """Pipe EOF: leave the loop, fail everything pending with a typed
        crash error."""
        if self._alive:  # unregistered once: a closed fd's number may be reused
            self._alive = False
            self._loop.remove_reader(self._fd)
            self._loop.remove_writer(self._fd)
        pending, self._pending = self._pending, {}
        exitcode = self.process.exitcode
        detail = f" (exit code {exitcode})" if exitcode not in (None, 0) else ""
        for ident, deliver in pending.items():
            what = "exited before serving" if ident < 0 else "died mid-request"  # -1: ready
            deliver(
                WorkerCrashedError(
                    f"worker {self.worker_id} {what}{detail}; "
                    "sessions pinned to this shard are lost"
                )
            )


class ShardManager:
    """The worker fleet: spawn, route, aggregate, drain, stop.

    Parameters
    ----------
    num_workers:
        Shard count; sessions hash across exactly this many processes.
    config:
        Per-worker :class:`repro.serving.worker.WorkerConfig` (every shard
        gets the same one — workers are deliberately interchangeable
        modulo the sessions hashed onto them).
    ready_timeout_s:
        One budget for every worker's ready handshake.

    Workers start with the platform's default ``multiprocessing`` method
    (fork on Linux), all of them before the manager starts its one thread:
    the event loop (:attr:`loop`) that serves every pipe.  The blocking
    fleet-wide calls run their coroutine there; call them from any thread
    but the loop's own.
    """

    def __init__(
        self,
        num_workers: int = 4,
        config: WorkerConfig | None = None,
        ready_timeout_s: float = DEFAULT_READY_TIMEOUT_S,
    ) -> None:
        if num_workers <= 0:
            raise ServiceError("num_workers must be positive")
        self.config = config if config is not None else WorkerConfig()
        ctx = mp.get_context()
        # fork every process first; the loop comes after, so no child inherits it
        self.workers = [WorkerHandle(i, self.config, ctx) for i in range(num_workers)]
        self.loop = asyncio.new_event_loop()
        for handle in self.workers:
            handle.serve_on(self.loop)
        self._thread = threading.Thread(
            target=self.loop.run_forever, name="repro-sharded-server", daemon=True
        )
        self._thread.start()
        try:
            started = monotonic()
            for handle in self.workers:
                handle.wait_ready(timeout=remaining(ready_timeout_s, started))
        except BaseException:
            self.shutdown()
            raise

    @property
    def num_workers(self) -> int:
        """How many shards this manager runs."""
        return len(self.workers)

    def worker_for_session(self, session_id: str) -> WorkerHandle:
        """The shard one session is pinned to (alive or not — the caller
        gets the typed crash error from the handle, not a routing error).
        """
        return self.workers[shard_for_session(session_id, len(self.workers))]

    @property
    def alive_workers(self) -> list[int]:
        """Ids of the shards still serving."""
        return [handle.worker_id for handle in self.workers if handle.alive]

    def call(self, work: Awaitable[Any], timeout: float | None = None) -> Any:
        """Run the coroutine ``work`` on the fleet's loop and block for its
        result (from any thread but the loop's)."""
        try:
            future = asyncio.run_coroutine_threadsafe(work, self.loop)
        except RuntimeError as exc:  # the loop is closed
            work.close()
            raise ServiceError("the fleet is shut down") from exc
        return future.result(timeout)

    # ------------------------------------------------------------------ #
    # fleet-wide operations
    # ------------------------------------------------------------------ #
    def submit_all(self, op: str, payload: dict | None = None) -> dict[str, Future]:
        """Send ``op`` to every live shard at once; futures by worker id."""
        return {
            str(handle.worker_id): handle.submit(op, payload=payload)
            for handle in self.workers
            if handle.alive
        }

    async def gather(
        self, op: str, payload: dict | None = None, timeout: float | None = 30.0
    ) -> dict[str, dict[str, Any]]:
        """Fan ``op`` out to every live shard and await the replies on the
        loop, ``timeout`` s for all of them (see :func:`replies_of`)."""
        futures = self.submit_all(op, payload)
        await wait_all(futures.values(), timeout)
        return replies_of(futures)

    def stats(self, timeout: float | None = 30.0) -> dict[str, Any]:
        """Aggregate every live shard's stats.

        Fixed keys — ``num_workers``, ``alive_workers``, ``sessions`` (the
        union of every shard's per-session parity counters) and
        ``workers`` (each shard's own reply) — plus one section per stat
        island: whatever mapping-valued sections the workers report are
        key-wise summed with :func:`repro.obs.registry.merge_numeric`, so
        an island a worker registers shows up here under its collector
        name with no change to this file.  ``index`` and ``storage`` are
        always present, ``None`` when no shard reports them.
        """
        return self.merge_stats(self.call(self.gather("stats", timeout=timeout)))

    def merge_stats(self, replies: dict[str, dict[str, Any]]) -> dict[str, Any]:
        """The fleet's :meth:`stats` from every shard's ``stats`` reply."""
        sessions: dict[str, dict[str, int]] = {}
        sections: dict[str, list[dict[str, Any]]] = {}
        for report in replies.values():
            for name, section in report.items():
                if not isinstance(section, dict):
                    continue
                if name == "sessions":
                    sessions.update(section)
                else:
                    sections.setdefault(name, []).append(section)
        return {
            # defaults first, fixed keys last: a section can replace the
            # former, never the latter
            "index": None,
            "storage": None,
            **{name: merge_numeric(parts) for name, parts in sections.items()},
            "num_workers": len(self.workers),
            "alive_workers": self.alive_workers,
            "sessions": {sid: sessions[sid] for sid in sorted(sessions)},
            "workers": replies,
        }

    def telemetry(self, timeout: float | None = 30.0) -> dict[str, Any]:
        """Drain and merge every live shard's telemetry plane.

        Returns the fleet-wide merged metric snapshot (key-wise sums via
        :func:`repro.obs.registry.merge_numeric`), every shard's drained
        traces and slow traces as wire dicts, and the per-worker detail
        (including each worker's own Prometheus exposition text).  Like
        :meth:`stats`, a dead shard is reported as data, never raised.
        """
        return self.merge_telemetry(self.call(self.gather("telemetry", timeout=timeout)))

    def merge_telemetry(self, replies: dict[str, dict[str, Any]]) -> dict[str, Any]:
        """The fleet's :meth:`telemetry` from every shard's reply."""
        drained: dict[str, list[dict[str, Any]]] = {"traces": [], "slow_traces": []}
        for report in replies.values():
            for key, into in drained.items():
                parts = report.get(key)
                if isinstance(parts, list):
                    into.extend(part for part in parts if isinstance(part, dict))
        return {
            "num_workers": len(self.workers),
            "alive_workers": self.alive_workers,
            "metrics": merge_numeric(report.get("metrics") for report in replies.values()),
            **drained,
            "workers": replies,
        }

    def drain(self, timeout: float | None = None) -> bool:
        """Finish every in-flight gesture on every live shard."""
        return all_drained(self.call(self.gather("drain", {"timeout": timeout}, timeout)))

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop every worker process, then the loop (idempotent).

        Every live worker is asked to ``stop`` (one ``timeout`` for all of
        them) and joined; one that will not exit is terminated.  The loop
        then closes every pipe, failing what still waits on one.
        """
        if self.loop.is_closed():
            return
        self.call(self.gather("stop", timeout=timeout))
        for handle in self.workers:
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=timeout)
        for handle in self.workers:
            self.loop.call_soon_threadsafe(handle.close)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join()
        self.loop.close()
