"""Shard topology: session-pinned worker processes behind command pipes.

:func:`shard_for_session` is the whole placement policy — a stable hash
of the session id modulo the worker count — which gives the serving tier
its central invariant: *every gesture of one session executes in one
process*.  Session affinity is what keeps the adaptive state a session's
gestures build (sample read-ahead, result streams, indexes) in one
kernel, so per-session outcome counters stay bit-identical to a serial
replay no matter how many shards serve the fleet.

:class:`ShardManager` owns the fleet: it spawns every worker process
and starts no thread (fork safety — forking a multi-threaded parent is
how deadlocks are born).  A worker's pipe is a non-blocking socket pair
carrying one line of JSON a message under its id
(:mod:`repro.serving.protocol`).  It has one reader and one writer: the
event loop it is attached to (the front door's), which reads it through
a :class:`~repro.serving.protocol.FrameDecoder` with one ``recv`` per
readiness and writes what the socket takes, or, while no loop is
attached, whoever waits for a reply (a :class:`_Reply`).  An answer
reaches whoever asked as its body, undecoded, so the front door can
relay it; a :class:`_Reply` decodes it for the callers that read it.  A
worker death is detected as pipe EOF and converted into
:class:`repro.errors.WorkerCrashedError` on every pending and future
request routed to that shard — sessions pinned to a dead shard fail
loudly and immediately while the surviving shards keep serving, which is
the blast-radius story of sharding in the first place.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing as mp
import select
import socket
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable

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

#: How long ShardManager waits for each worker's ready handshake.
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


#: What gets a worker's answer: its body, or the shard's crash error.
Deliver = Callable[[bytes | BaseException], None]


class _Reply(Future):
    """A worker's decoded answer.  While no event loop serves the pipe,
    waiting on it writes the queued requests and reads the replies itself
    (the ready handshake, ``stop``, a fan-out before start)."""

    def __init__(self, handle: "WorkerHandle") -> None:
        super().__init__()
        self._handle = handle

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

    def result(self, timeout: float | None = None) -> Any:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.done() and self._handle._loop is None:
            left = 1.0 if deadline is None else deadline - time.monotonic()
            if left <= 0:
                break
            self._handle.flush()
            self._handle.read_ready(min(left, 0.05))  # then look for a loop again
        return super().result(None if deadline is None else max(0.0, deadline - time.monotonic()))


class WorkerHandle:
    """Parent-side handle of one worker process: pipe, pending answers, liveness."""

    def __init__(self, worker_id: int, config: WorkerConfig, ctx: mp.context.BaseContext):
        self.worker_id = worker_id
        self._conn, child_conn = socket.socketpair()
        self._conn.setblocking(False)  # read when readable, written as it takes
        self._in = FrameDecoder(max_bytes=PIPE_MAX_BYTES)
        self._out = bytearray()  # framed requests the pipe has not taken yet
        self._lock = threading.Lock()
        self._read_lock = threading.Lock()  # one buffer, one reader
        self._loop: asyncio.AbstractEventLoop | None = None  # serving the pipe,
        self._loop_thread: int | None = None  # on this thread
        self._writing = False  # the loop waits for room to write
        self._ready = _Reply(self)
        self._pending: dict[int, Deliver] = {-1: self._ready.deliver}  # by message id
        self._next_id = 0
        self._alive = False
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
    def wait_ready(self, timeout: float = DEFAULT_READY_TIMEOUT_S) -> None:
        """Block until the worker's ready handshake (or typed setup error)."""
        self._ready.result(timeout=timeout)

    @property
    def alive(self) -> bool:
        """Whether this shard is still accepting requests."""
        with self._lock:
            return self._alive

    def attach(self, loop: asyncio.AbstractEventLoop) -> None:
        """Let ``loop`` serve the pipe from now on (call on the loop's thread)."""
        self._loop, self._loop_thread = loop, threading.get_ident()
        loop.add_reader(self._conn.fileno(), self.read_ready)
        self.flush()

    def detach(self) -> None:
        """Take the pipe back from its loop (on the loop's thread)."""
        loop, self._loop, self._loop_thread = self._loop, None, None
        if loop is not None:
            loop.remove_reader(self._conn.fileno())
            loop.remove_writer(self._conn.fileno())
        self._writing = False

    # ------------------------------------------------------------------ #
    # request/response plumbing
    # ------------------------------------------------------------------ #
    def submit(self, op: str, session: str | None = None, payload: dict | None = None) -> Future:
        """Queue one op for the worker; the future resolves with its payload."""
        future = _Reply(self)
        self.send(request_body(op, session, payload), future.deliver)
        return future

    def send(self, body: bytes, deliver: Deliver) -> None:
        """Queue one request body (JSON in the wire's request form) for the
        worker; ``deliver`` gets the answer's body, or the crash error."""
        with self._lock:
            alive = self._alive
            if alive:
                ident = self._next_id
                self._next_id += 1
                self._pending[ident] = deliver
                self._out += pipe_frame(ident, body)
        if not alive:
            deliver(
                WorkerCrashedError(
                    f"worker {self.worker_id} is down; sessions pinned to this shard are lost"
                )
            )
            return
        loop = self._loop
        if loop is None or self._loop_thread == threading.get_ident():
            self.flush()
        else:
            try:
                loop.call_soon_threadsafe(self.flush)
            except RuntimeError:
                pass  # the loop just closed: the reply's own wait writes it

    def flush(self) -> None:
        """Write as much of the queued requests as the pipe takes now.

        Never blocks: a worker busy writing replies reads no request, and
        the loop that would drain those replies must not wait on it.  On
        the loop's thread, what is left waits for room with ``add_writer``.
        """
        broken = False
        with self._lock:
            try:
                while self._out:
                    del self._out[: self._conn.send(self._out)]
            except BlockingIOError:
                pass
            except OSError:
                broken = True
                self._out.clear()
            waiting = bool(self._out)
        loop = self._loop
        if loop is not None and self._loop_thread == threading.get_ident():
            if waiting and not self._writing:
                loop.add_writer(self._conn.fileno(), self.flush)
            elif not waiting and self._writing:
                loop.remove_writer(self._conn.fileno())
            self._writing = waiting
        if broken:
            self._on_crash()  # the worker is gone: fail what waits on it

    def read_ready(self, wait: float = 0.0) -> None:
        """Read the pipe once (waiting up to ``wait`` s for it) and deliver
        every answer it completed; at EOF the worker is gone: fail what
        waits, stop reading."""
        with self._read_lock:
            try:
                if wait and not select.select([self._conn], [], [], wait)[0]:
                    return
                data = self._conn.recv(1 << 16)
            except BlockingIOError:
                return
            except (OSError, ValueError):
                data = b""  # closed under us: as good as EOF
            answers = pipe_messages(self._in.lines(data)) if data else None
        if answers is None:
            # fail what waits first: once detached, no reply's own wait may
            # find a pending reply and read the EOF off the loop's thread
            self._on_crash()
            self.detach()
            return
        with self._lock:
            delivers = [(self._pending.pop(ident, None), body) for ident, body in answers]
        for deliver, body in delivers:
            if deliver is not None:  # else a late answer to an abandoned request
                deliver(body)

    # ------------------------------------------------------------------ #
    # crash handling
    # ------------------------------------------------------------------ #
    def _on_crash(self) -> None:
        """Pipe EOF: fail everything pending with a typed crash error."""
        with self._lock:
            self._alive = False
            pending = self._pending
            self._pending = {}
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

    def stop(self, timeout: float = 5.0) -> None:
        """Ask the worker to exit; escalate to terminate if it will not."""
        if self.alive:
            try:
                self.submit("stop").result(timeout=timeout)
            except Exception:  # noqa: BLE001 - stopping must not raise
                pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=timeout)
        self._on_crash()  # nothing answers from here on: fail what still waits
        self._conn.close()


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

    Workers start with the platform's default ``multiprocessing`` method
    (fork on Linux).  The manager starts no thread, so a front door that
    builds it before its event-loop thread forks safely by construction.
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
        # fork every process first, then read each one's handshake
        self.workers = [WorkerHandle(i, self.config, ctx) for i in range(num_workers)]
        try:
            for handle in self.workers:
                handle.wait_ready(timeout=ready_timeout_s)
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

    def _fan_out(
        self, op: str, payload: dict | None = None, timeout: float | None = 30.0
    ) -> dict[str, dict[str, Any]]:
        """:meth:`submit_all`, then wait for each reply (see :func:`replies_of`)."""
        futures = self.submit_all(op, payload)
        for future in futures.values():
            try:
                future.result(timeout=timeout)
            except Exception:  # noqa: BLE001 - reported as data below
                pass
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
        return self.merge_stats(self._fan_out("stats", timeout=timeout))

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
        return self.merge_telemetry(self._fan_out("telemetry", timeout=timeout))

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
        return all_drained(self._fan_out("drain", {"timeout": timeout}, timeout))

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop every worker process (idempotent)."""
        for handle in self.workers:
            handle.stop(timeout=timeout)
