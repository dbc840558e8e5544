"""Concurrent gesture scheduling: many sessions, one worker pool.

The dbTouch vision is a kernel that keeps up with a *continuous stream of
touches* from many users at once.  :class:`GestureScheduler` is the engine
room for that: a fixed pool of worker threads executes work items (gesture
commands, data loads) submitted for many sessions *in parallel across
sessions* while preserving three guarantees that make concurrent serving
safe for the dbTouch kernel:

**Per-session FIFO.**  Work submitted for one session executes in
submission order, one item at a time.  A session is dispatched to at most
one worker at any moment (session affinity), so per-session kernel state —
sample hierarchies, slide-stride tracking, result streams —
is only ever touched by a single thread at a time and needs no internal
locking.

**Deterministic outcomes.**  Because each session's command sequence is
serial and its kernel state private, the per-session
:class:`repro.core.kernel.GestureOutcome` counters (entries returned,
tuples examined, cache and prefetch hits) are bit-identical to a serial
replay of the same commands, regardless of worker count or interleaving.
(The one caveat is the adaptive latency budget: wall-clock budget
violations can shrink the summary window.  Parity-sensitive runs pin
``KernelConfig.latency_budget_s`` high so the budget is never violated;
see the README's "Serving many users" section.)

**Bounded queues.**  Admission control rejects new work outright with
:class:`repro.errors.AdmissionError` once the global pending count reaches
``max_pending`` (load shedding), and a full per-session queue blocks the
submitting producer for up to ``submit_block_s`` before rejecting
(backpressure).  What a session holds needs no such bound: each view's
:class:`repro.core.result_stream.ResultStream` is a fixed ring of the
results its screen can show, so an unserviced display cannot grow either.

Think-time pacing: every work item carries a ``think_s`` delay — the gap a
user leaves between receiving one result and issuing the next gesture.
The scheduler enforces it *without occupying a worker*: a session whose
next command is still in its think window parks on a timer heap and other
sessions' work runs in the meantime.  This is precisely what a serial
server cannot do (it must wait each user's pause out inline), and it is
where the multi-session throughput win comes from.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, fields
from typing import Any, Callable

from repro.errors import AdmissionError, ServiceError

#: Reserved lane for host-side maintenance work (sample materialization,
#: snapshot writes).  It behaves like a session — FIFO, at most one worker
#: at a time — so with two or more workers, background items can never
#: occupy more than one worker and gesture traffic keeps flowing.
BACKGROUND_LANE = "__background__"


@dataclass
class SchedulerConfig:
    """Tunable behaviour of a :class:`GestureScheduler`.

    Attributes
    ----------
    num_workers:
        Worker threads executing session work in parallel.
    max_pending:
        Global admission bound: once this many items are queued or
        executing across all sessions, further submits are rejected
        immediately with :class:`repro.errors.AdmissionError`.
    max_session_pending:
        Per-session queue bound.  A submit against a full session queue
        blocks (backpressure on the producer) until space frees up or
        ``submit_block_s`` elapses, then raises ``AdmissionError``.
    submit_block_s:
        How long a backpressured submit may block before being rejected.
    """

    num_workers: int = 4
    max_pending: int = 4096
    max_session_pending: int = 512
    submit_block_s: float = 5.0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ServiceError("scheduler needs at least one worker")
        if self.max_pending < 1:
            raise ServiceError("max_pending must be at least 1")
        if self.max_session_pending < 1:
            raise ServiceError("max_session_pending must be at least 1")
        if self.submit_block_s < 0:
            raise ServiceError("submit_block_s cannot be negative")


@dataclass
class SchedulerStats:
    """Counters describing everything a scheduler has done so far.

    Mutated only under the scheduler lock; read without it (single-word
    int reads are atomic in CPython), so snapshots are cheap.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    cancelled: int = 0
    peak_pending: int = 0

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy of the counters."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class _WorkItem:
    """One queued unit of session work."""

    work: Callable[[], Any]
    future: Future
    think_s: float = 0.0


class GestureScheduler:
    """Execute per-session work FIFO on a shared pool of worker threads.

    The scheduler is deliberately generic: it runs thunks, not commands,
    so the serving layer (:class:`repro.service.MultiSessionServer`) can
    route *anything* that must respect a session's command order through
    it — gesture commands and mid-traffic data reloads alike.

    Parameters
    ----------
    config:
        Pool size and queue bounds; defaults to :class:`SchedulerConfig`.
    """

    def __init__(self, config: SchedulerConfig | None = None) -> None:
        self.config = config if config is not None else SchedulerConfig()
        self.stats = SchedulerStats()
        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        self._space_available = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._queues: dict[str, deque[_WorkItem]] = {}
        self._ready: deque[str] = deque()
        self._delayed: list[tuple[float, int, str]] = []
        self._delay_seq = itertools.count()
        #: sessions currently sitting in ``_ready`` or ``_delayed``
        self._scheduled: set[str] = set()
        #: sessions currently running on a worker
        self._executing: set[str] = set()
        #: sessions being torn down (submit rejects while a close waits
        #: out the in-flight item, so no future can be stranded)
        self._closing: set[str] = set()
        self._pending_total = 0
        self._stop = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"gesture-worker-{i}", daemon=True
            )
            for i in range(self.config.num_workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------ #
    # session registry
    # ------------------------------------------------------------------ #
    def register_session(self, session_id: str) -> None:
        """Create the FIFO queue for a new session."""
        if session_id == BACKGROUND_LANE:
            raise ServiceError(
                f"session id {BACKGROUND_LANE!r} is reserved for the background lane"
            )
        with self._lock:
            if self._stop:
                raise ServiceError("scheduler is shut down")
            if session_id in self._queues:
                raise ServiceError(f"session {session_id!r} is already registered")
            self._queues[session_id] = deque()

    def unregister_session(self, session_id: str) -> int:
        """Remove a session: cancel its queued work, wait out in-flight work.

        Returns how many queued (not yet started) items were cancelled.
        The in-flight item, if any, completes normally — its future
        resolves — before the session disappears.  Submissions racing the
        teardown are rejected (``ServiceError``) from the moment this is
        called, so no accepted future can be silently dropped.
        """
        if session_id == BACKGROUND_LANE:
            raise ServiceError("the background lane cannot be unregistered")
        with self._lock:
            queue = self._queues.get(session_id)
            if queue is None or session_id in self._closing:
                raise ServiceError(f"session {session_id!r} is not registered")
            self._closing.add(session_id)
            try:
                cancelled = self._cancel_queue(queue)
                self._scheduled.discard(session_id)
                while session_id in self._executing:
                    self._space_available.wait()
                # nothing can have been enqueued while we waited (submit
                # rejects closing sessions); drain defensively anyway
                cancelled += self._cancel_queue(queue)
                del self._queues[session_id]
            finally:
                self._closing.discard(session_id)
            self._space_available.notify_all()
            if self._pending_total == 0:
                self._idle.notify_all()
            return cancelled

    def _cancel_queue(self, queue: deque[_WorkItem]) -> int:
        """Cancel every queued item (lock held); returns how many."""
        cancelled = 0
        while queue:
            item = queue.popleft()
            if item.future.cancel():
                cancelled += 1
            self._pending_total -= 1
        self.stats.cancelled += cancelled
        return cancelled

    @property
    def session_ids(self) -> list[str]:
        """Identifiers of every registered session (the lane excluded)."""
        with self._lock:
            return sorted(sid for sid in self._queues if sid != BACKGROUND_LANE)

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(
        self, session_id: str, work: Callable[[], Any], think_s: float = 0.0
    ) -> Future:
        """Queue one unit of work for a session and return its future.

        ``think_s`` is enforced as a minimum gap between the completion of
        the session's previous item and the start of this one (for the
        session's first item: from submission).  Raises
        :class:`repro.errors.AdmissionError` when the global queue is full
        or the per-session queue stays full beyond ``submit_block_s``.
        """
        if think_s < 0:
            raise ServiceError("think_s cannot be negative")
        deadline: float | None = None
        with self._lock:
            while True:
                if self._stop:
                    raise ServiceError("scheduler is shut down")
                queue = self._queues.get(session_id)
                if queue is None or session_id in self._closing:
                    raise ServiceError(f"session {session_id!r} is not registered")
                if self._pending_total >= self.config.max_pending:
                    self.stats.rejected += 1
                    raise AdmissionError(
                        f"scheduler is at capacity ({self.config.max_pending} pending items)"
                    )
                if len(queue) < self.config.max_session_pending:
                    break
                now = time.monotonic()
                if deadline is None:
                    deadline = now + self.config.submit_block_s
                if now >= deadline:
                    self.stats.rejected += 1
                    raise AdmissionError(
                        f"session {session_id!r} queue stayed full for "
                        f"{self.config.submit_block_s:.3f}s ({len(queue)} items)"
                    )
                self._space_available.wait(timeout=deadline - now)
            item = _WorkItem(work=work, future=Future(), think_s=think_s)
            queue.append(item)
            self._pending_total += 1
            self.stats.submitted += 1
            self.stats.peak_pending = max(self.stats.peak_pending, self._pending_total)
            if (
                session_id not in self._executing
                and session_id not in self._scheduled
            ):
                # idle session: its new head becomes runnable after think_s
                self._schedule_session(session_id, item.think_s)
            return item.future

    def submit_background(self, work: Callable[[], Any]) -> Future:
        """Queue maintenance work on the scheduler's background lane.

        The lane (:data:`BACKGROUND_LANE`) is registered lazily on first
        use and shares the pool under the ordinary session rules: strictly
        FIFO, dispatched to at most one worker at a time, subject to the
        same admission bounds.  Session affinity is what keeps gesture
        traffic unblocked — however much materialization work is queued,
        it can monopolize only a single worker while every other worker
        stays available for gestures.
        """
        with self._lock:
            if self._stop:
                raise ServiceError("scheduler is shut down")
            if BACKGROUND_LANE not in self._queues:
                self._queues[BACKGROUND_LANE] = deque()
        return self.submit(BACKGROUND_LANE, work)

    def _schedule_session(self, session_id: str, delay_s: float) -> None:
        """Mark a session runnable now or after ``delay_s`` (lock held)."""
        self._scheduled.add(session_id)
        if delay_s > 0:
            heapq.heappush(
                self._delayed,
                (time.monotonic() + delay_s, next(self._delay_seq), session_id),
            )
            # a sleeping worker may need to shorten its timed wait
            self._work_available.notify()
        else:
            self._ready.append(session_id)
            self._work_available.notify()

    # ------------------------------------------------------------------ #
    # worker loop
    # ------------------------------------------------------------------ #
    def _next_item(self) -> tuple[str, _WorkItem] | None:
        """Block until a session head is runnable; ``None`` means exit (lock held)."""
        while True:
            now = time.monotonic()
            while self._delayed and self._delayed[0][0] <= now:
                _, _, session_id = heapq.heappop(self._delayed)
                if session_id in self._scheduled:
                    self._ready.append(session_id)
            while self._ready:
                session_id = self._ready.popleft()
                if session_id not in self._scheduled:
                    continue  # stale entry (session unregistered or re-queued)
                self._scheduled.discard(session_id)
                queue = self._queues.get(session_id)
                if not queue or session_id in self._executing:
                    continue
                item = queue.popleft()
                self._executing.add(session_id)
                if self._delayed:
                    # this worker may have been the one watching the timer
                    # heap (timed wait); hand the watch to another idle
                    # worker so a parked session's deadline is never missed
                    # while workers sleep in untimed waits
                    self._work_available.notify()
                return session_id, item
            if self._stop and self._pending_total == 0:
                return None
            timeout = None
            if self._delayed:
                timeout = max(0.0, self._delayed[0][0] - now)
            self._work_available.wait(timeout=timeout)

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                dispatched = self._next_item()
            if dispatched is None:
                return
            session_id, item = dispatched
            executed = item.future.set_running_or_notify_cancel()
            failed = False
            if executed:
                try:
                    result = item.work()
                except BaseException as exc:  # noqa: BLE001 - delivered to the caller
                    item.future.set_exception(exc)
                    failed = True
                else:
                    item.future.set_result(result)
            with self._lock:
                self._executing.discard(session_id)
                self._pending_total -= 1
                if executed:
                    self.stats.completed += 1
                    if failed:
                        self.stats.failed += 1
                else:
                    # cancelled between dispatch and execution
                    self.stats.cancelled += 1
                queue = self._queues.get(session_id)
                if queue:
                    self._schedule_session(session_id, queue[0].think_s)
                self._space_available.notify_all()
                if self._pending_total == 0:
                    self._idle.notify_all()
                    if self._stop:
                        # wake workers parked in _next_item so they can exit
                        self._work_available.notify_all()

    # ------------------------------------------------------------------ #
    # introspection and lifecycle
    # ------------------------------------------------------------------ #
    def queue_depth(self, session_id: str | None = None) -> int:
        """Items queued or executing — for one session, or in total."""
        with self._lock:
            if session_id is None:
                return self._pending_total
            queue = self._queues.get(session_id)
            if queue is None:
                raise ServiceError(f"session {session_id!r} is not registered")
            return len(queue) + (1 if session_id in self._executing else 0)

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until every queued item (including delayed ones) finished.

        Returns ``False`` if ``timeout`` elapsed with work still pending.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._pending_total > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(timeout=remaining)
            return True

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop accepting work and (optionally) wait for the pool to exit.

        With ``cancel_pending``, queued-but-unstarted items are cancelled;
        otherwise the workers drain every queue (respecting think delays)
        before exiting.
        """
        with self._lock:
            self._stop = True
            if cancel_pending:
                for queue in self._queues.values():
                    self._cancel_queue(queue)
                self._scheduled.clear()
                if self._pending_total == 0:
                    self._idle.notify_all()
            self._space_available.notify_all()
            self._work_available.notify_all()
        if wait:
            for worker in self._workers:
                worker.join()

    def __enter__(self) -> "GestureScheduler":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.shutdown(wait=True, cancel_pending=exc_type is not None)
        return False


class InlineLane:
    """The scheduler's submit surface with no pool behind it (serial mode).

    :class:`repro.service.MultiSessionServer` routes everything through
    ``self._lane`` — a :class:`GestureScheduler` or this — so serving code
    never asks which mode it is in; what differs is only *where* work
    runs.  Here it runs on the caller's thread, at once: there are no
    queues, so a think-time must be slept out inline (the one thread
    serves everyone), session registration has nothing to create, and
    there is never anything to drain.
    """

    def register_session(self, session_id: str) -> None:
        """No queue to create."""

    def unregister_session(self, session_id: str) -> int:
        """No queue to cancel; returns 0 like an idle session would."""
        return 0

    def submit(
        self, session_id: str, work: Callable[[], Any], think_s: float = 0.0
    ) -> Future:
        """Sleep out ``think_s``, run ``work`` now; the future is already
        resolved (``result()`` re-raises the very exception ``work`` raised)."""
        if think_s > 0:
            time.sleep(think_s)
        future: Future = Future()
        try:
            future.set_result(work())
        except Exception as exc:  # noqa: BLE001 - delivered to the caller
            future.set_exception(exc)
        return future

    def submit_background(self, work: Callable[[], Any]) -> Future:
        """Run maintenance work now; a failure raises here, not later."""
        future: Future = Future()
        future.set_result(work())
        return future

    def queue_depth(self, session_id: str | None = None) -> int:
        """Nothing is ever queued."""
        return 0

    def drain(self, timeout: float | None = None) -> bool:
        """Always drained."""
        return True

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """No pool to stop."""
