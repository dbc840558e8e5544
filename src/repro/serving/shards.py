"""Shard topology: session-pinned worker processes behind command pipes.

:func:`shard_for_session` is the whole placement policy — a stable hash
of the session id modulo the worker count — which gives the serving tier
its central invariant: *every gesture of one session executes in one
process*.  Session affinity is what keeps the adaptive state a session's
gestures build (sample read-ahead, result streams, indexes) in one
kernel, so per-session outcome counters stay bit-identical to a serial
replay no matter how many shards serve the fleet.

:class:`ShardManager` owns the fleet: it spawns every worker process
*before* starting any thread (fork safety — forking a multi-threaded
parent is how deadlocks are born), then runs one reader thread per pipe
to match responses to pending futures.  A worker death is detected as
pipe EOF and converted into :class:`repro.errors.WorkerCrashedError` on
every pending and future request routed to that shard — sessions pinned
to a dead shard fail loudly and immediately while the surviving shards
keep serving, which is the blast-radius story of sharding in the first
place.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import threading
from concurrent.futures import Future
from typing import Any

from repro.errors import ServiceError, WorkerCrashedError
from repro.obs.registry import merge_numeric
from repro.serving.protocol import exception_from_payload
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


class WorkerHandle:
    """Parent-side handle of one worker process: pipe, futures, liveness."""

    def __init__(self, worker_id: int, config: WorkerConfig, ctx: mp.context.BaseContext):
        self.worker_id = worker_id
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self._conn = parent_conn
        self._lock = threading.Lock()
        self._pending: dict[int, Future] = {}
        self._next_id = 0
        self._alive = False
        self._ready: Future = Future()
        self.process = ctx.Process(
            target=worker_main,
            args=(child_conn, worker_id, config),
            name=f"repro-shard-{worker_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()  # the child's end lives in the child now
        self._alive = True
        self._reader: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start_reader(self) -> None:
        """Start the response-reader thread (after ALL workers are forked)."""
        self._reader = threading.Thread(
            target=self._read_loop, name=f"repro-shard-{self.worker_id}-reader", daemon=True
        )
        self._reader.start()

    def wait_ready(self, timeout: float = DEFAULT_READY_TIMEOUT_S) -> None:
        """Block until the worker's ready handshake (or typed setup error)."""
        self._ready.result(timeout=timeout)

    @property
    def alive(self) -> bool:
        """Whether this shard is still accepting requests."""
        with self._lock:
            return self._alive

    # ------------------------------------------------------------------ #
    # request/response plumbing
    # ------------------------------------------------------------------ #
    def submit(self, op: str, session: str | None = None, payload: dict | None = None) -> Future:
        """Send one op to the worker; the future resolves with its payload."""
        future: Future = Future()
        with self._lock:
            if not self._alive:
                future.set_exception(
                    WorkerCrashedError(
                        f"worker {self.worker_id} is down; sessions pinned to this "
                        "shard are lost"
                    )
                )
                return future
            request_id = self._next_id
            self._next_id += 1
            self._pending[request_id] = future
            message: dict[str, Any] = {"id": request_id, "op": op}
            if session is not None:
                message["session"] = session
            if payload:
                message["payload"] = payload
            try:
                self._conn.send(message)
            except (OSError, ValueError, BrokenPipeError):
                del self._pending[request_id]
                self._alive = False
                future.set_exception(
                    WorkerCrashedError(f"worker {self.worker_id} pipe is closed")
                )
        return future

    def request(
        self,
        op: str,
        session: str | None = None,
        payload: dict | None = None,
        timeout: float | None = None,
    ) -> dict:
        """Synchronous :meth:`submit` (raises the typed error on failure)."""
        return self.submit(op, session=session, payload=payload).result(timeout=timeout)

    def _read_loop(self) -> None:
        while True:
            try:
                message = self._conn.recv()
            except (EOFError, OSError):
                self._on_crash()
                return
            self._dispatch(message)

    def _dispatch(self, message: Any) -> None:
        if not isinstance(message, dict):
            return  # a worker never sends these; ignore rather than die
        request_id = message.get("id")
        if request_id == -1:  # ready handshake (or setup failure)
            if not self._ready.done():
                if message.get("ok"):
                    self._ready.set_result(message.get("payload", {}))
                else:
                    self._ready.set_exception(exception_from_payload(message.get("error")))
            return
        with self._lock:
            future = self._pending.pop(request_id, None)
        if future is None:
            return  # late response for an abandoned request
        if message.get("ok"):
            future.set_result(message.get("payload", {}))
        else:
            future.set_exception(exception_from_payload(message.get("error")))

    # ------------------------------------------------------------------ #
    # crash handling
    # ------------------------------------------------------------------ #
    def _on_crash(self) -> None:
        """Pipe EOF: fail everything pending with a typed crash error."""
        with self._lock:
            self._alive = False
            pending = list(self._pending.values())
            self._pending.clear()
        exitcode = self.process.exitcode
        detail = f" (exit code {exitcode})" if exitcode not in (None, 0) else ""
        for future in pending:
            if not future.done():
                future.set_exception(
                    WorkerCrashedError(
                        f"worker {self.worker_id} died mid-request{detail}; "
                        "sessions pinned to this shard are lost"
                    )
                )
        if not self._ready.done():
            self._ready.set_exception(
                WorkerCrashedError(f"worker {self.worker_id} exited before serving{detail}")
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
        with self._lock:
            self._alive = False
        try:
            self._conn.close()
        except OSError:
            pass


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
    (fork on Linux).  All processes are spawned before any reader thread
    starts, so forking is safe here by construction.
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
        # phase 1: fork/spawn every process while this process is still
        # effectively single-threaded...
        self.workers = [WorkerHandle(i, self.config, ctx) for i in range(num_workers)]
        # ...phase 2: only then start reader threads and wait for handshakes
        for handle in self.workers:
            handle.start_reader()
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

    def submit(
        self, op: str, session: str, payload: dict | None = None
    ) -> Future:
        """Route one session-scoped op to its shard."""
        return self.worker_for_session(session).submit(op, session=session, payload=payload)

    @property
    def alive_workers(self) -> list[int]:
        """Ids of the shards still serving."""
        return [handle.worker_id for handle in self.workers if handle.alive]

    # ------------------------------------------------------------------ #
    # fleet-wide operations
    # ------------------------------------------------------------------ #
    def _fan_out(
        self, op: str, payload: dict | None = None, timeout: float | None = 30.0
    ) -> dict[str, dict[str, Any]]:
        """Send ``op`` to every live shard at once; replies by worker id.

        A shard that fails or dies mid-request answers ``{"error": ...}``
        as data, never raised — a half-dead fleet can still describe
        itself, and no gather below needs its own error handling.
        """
        futures = [
            (handle.worker_id, handle.submit(op, payload=payload))
            for handle in self.workers
            if handle.alive
        ]
        replies: dict[str, dict[str, Any]] = {}
        for worker_id, future in futures:
            try:
                replies[str(worker_id)] = future.result(timeout=timeout)
            except Exception as exc:  # noqa: BLE001 - reported as data
                replies[str(worker_id)] = {"error": str(exc)}
        return replies

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
        replies = self._fan_out("stats", timeout=timeout)
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
        replies = self._fan_out("telemetry", timeout=timeout)
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
        replies = self._fan_out("drain", {"timeout": timeout}, timeout)
        return all(bool(report.get("drained")) for report in replies.values())

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop every worker process (idempotent)."""
        for handle in self.workers:
            handle.stop(timeout=timeout)

    def __enter__(self) -> "ShardManager":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.shutdown()
        return False
