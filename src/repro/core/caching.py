"""Caching of touched data areas.

Users routinely go back and forth over the same region of a data object.
dbTouch caches the values (or summary windows) produced for recently
touched rowid ranges so a revisit is served without re-reading base data.
The cache is granularity-aware: entries remember the stride they were read
at, and a revisit at the same or coarser granularity is a hit.

Cache-key scheme
----------------
The kernel namespaces entries by a ``(object, read-descriptor)`` tuple so
that logically different reads of the same object never collide, and the
object component stays exactly recoverable (object names may themselves
contain ``":"``):

``(object, "<action-kind>")``
    scans, running aggregates and select-where plans over one object;
``(object, "<action-kind>:a<attribute-index>")``
    table reads that depend on which attribute the finger is over;
``(object, "summary:k<effective-k>")``
    interactive summaries, keyed by the *effective* half-window so values
    computed before the adaptive optimizer shrank ``k`` are never served
    for the new window size.

Within a namespace, entries are keyed by (rowid bucket, stride bucket):
rowids are grouped into buckets of ``bucket_rows`` and strides into powers
of two, so a revisit of a nearby rowid at a similar granularity hits.
:meth:`TouchCache.invalidate` matches on the object segment of the
namespace, so mutating an object's data drops every entry derived from it
regardless of action kind or summary window.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Callable, Hashable, Sequence

import numpy as np

from repro.errors import DbTouchError


class MemoryBudget:
    """One byte budget shared by several caches, across threads.

    The out-of-core tier introduces a second cache next to the kernel's
    :class:`TouchCache`: the chunk cache of
    :class:`repro.persist.diskstore.DiskColumnStore`.  On a memory-bounded
    host the two must not size themselves independently, so both can be
    handed the same ``MemoryBudget``: every insertion *charges* bytes
    against the shared capacity, every eviction *releases* them, and when a
    charge would overflow the budget the other participants are asked to
    reclaim (evict) bytes first, the charging cache last.

    Participants register a ``reclaim(nbytes) -> freed_bytes`` callback
    that evicts from their own storage and returns how many bytes it
    actually freed; the budget adjusts its accounting itself, so a reclaim
    callback must not call :meth:`charge` or :meth:`release`.  A charge
    larger than what reclaiming can free is still admitted (the budget is
    a pressure mechanism, not a hard allocator): the overflow shows in
    :attr:`used_bytes` until the oversized entry is evicted.

    **Concurrency.**  A budget is shared by many sessions' caches while a
    :class:`repro.core.scheduler.GestureScheduler` executes those sessions
    on parallel workers, so all accounting happens under an internal lock.
    Two rules keep the cross-cache call graph deadlock-free: the budget
    never holds its lock while invoking a reclaim callback, and a cache
    must never call :meth:`charge`/:meth:`release` while holding its own
    lock (both built-in caches follow this).

    **Lifecycle.**  Bound-method reclaimers are held via ``weakref``, so a
    per-session cache that dies with its session is pruned automatically —
    its charged bytes vanish with it (the memory really was freed by the
    collector).  :meth:`unregister` does the same deterministically.

    **Determinism caveat.**  A budget shared *across sessions* makes each
    session's touch-cache contents depend on when its peers trigger
    reclaims, so hit/miss-derived outcome counters become load-dependent —
    like the adaptive latency budget, this intentionally trades replay
    determinism for a resource bound.  Parity-sensitive runs give each
    session its own budget (or none); sharing one budget between a single
    kernel and its disk store keeps counters deterministic.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise DbTouchError("memory budget capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self._lock = threading.RLock()
        self._used: OrderedDict[str, int] = OrderedDict()
        #: name -> zero-arg resolver returning the live callback or None
        self._reclaimers: dict[str, Callable[[], Callable[[int], int] | None]] = {}

    @property
    def used_bytes(self) -> int:
        """Bytes currently charged across all (live) participants."""
        with self._lock:
            self._prune_dead_locked()
            return sum(self._used.values())

    @property
    def participants(self) -> list[str]:
        """Registered participant names, in registration order."""
        with self._lock:
            self._prune_dead_locked()
            return list(self._used)

    def used_by(self, name: str) -> int:
        """Bytes currently charged by one participant."""
        with self._lock:
            if name not in self._used:
                raise DbTouchError(f"no budget participant named {name!r}")
            return self._used[name]

    def register(self, name: str, reclaim: Callable[[int], int]) -> None:
        """Add a participant with its eviction callback.

        Bound methods are referenced weakly (the participant may die with
        its session); other callables are held strongly.
        """
        resolver: Callable[[], Callable[[int], int] | None]
        try:
            resolver = weakref.WeakMethod(reclaim)
        except TypeError:

            def resolver(hold=reclaim):
                return hold
        with self._lock:
            # prune first: a dead participant's id()-derived name may be
            # reused by the allocator for its successor cache
            self._prune_dead_locked()
            if name in self._used:
                raise DbTouchError(f"budget participant {name!r} already registered")
            self._used[name] = 0
            self._reclaimers[name] = resolver

    def unregister(self, name: str) -> None:
        """Remove a participant, dropping whatever it still had charged."""
        with self._lock:
            if name not in self._used:
                raise DbTouchError(f"no budget participant named {name!r}")
            del self._used[name]
            del self._reclaimers[name]

    def _prune_dead_locked(self) -> None:
        """Drop participants whose weakly-held reclaimer has died."""
        for name in [n for n, resolve in self._reclaimers.items() if resolve() is None]:
            del self._used[name]
            del self._reclaimers[name]

    def charge(self, name: str, nbytes: int) -> None:
        """Account ``nbytes`` to ``name``, reclaiming from others if needed."""
        if nbytes < 0:
            raise DbTouchError("cannot charge a negative byte count")
        with self._lock:
            if name not in self._used:
                raise DbTouchError(f"no budget participant named {name!r}")
            self._prune_dead_locked()
            self._used[name] += nbytes
            overflow = sum(self._used.values()) - self.capacity_bytes
            if overflow <= 0:
                return
            # other participants shed bytes first, the charging cache last,
            # so a cache absorbing a new working set wins memory from peers
            order = [p for p in self._used if p != name] + [name]
        for participant in order:
            if overflow <= 0:
                break
            with self._lock:
                resolver = self._reclaimers.get(participant)
                reclaim = resolver() if resolver is not None else None
                if reclaim is None:
                    if resolver is not None:  # died mid-flight: prune it
                        self._prune_dead_locked()
                    continue
            # invoked WITHOUT the budget lock: the callback takes its own
            # cache lock, and no cache calls back into charge()/release()
            # while holding one — see the class docstring's two rules
            freed = int(reclaim(overflow))
            with self._lock:
                freed = min(freed, self._used.get(participant, 0))
                if participant in self._used:
                    self._used[participant] -= freed
            overflow -= freed

    def release(self, name: str, nbytes: int) -> None:
        """Return ``nbytes`` previously charged by ``name``."""
        with self._lock:
            if name not in self._used:
                raise DbTouchError(f"no budget participant named {name!r}")
            self._used[name] = max(0, self._used[name] - max(0, nbytes))


@dataclass
class CacheStats:
    """Hit/miss accounting for a touch cache."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups performed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class _PendingValue:
    """Placeholder of an entry a gesture replay inserted but has not read yet."""

    __slots__ = ("key", "value")

    def __init__(self, key: Hashable) -> None:
        self.key = key
        self.value: Any = None


@dataclass
class GestureReplay:
    """What :meth:`TouchCache.replay_gesture` did, by event position.

    ``written`` are the events that inserted an entry (reads that missed,
    proposals whose key was absent) and so need a value; ``hits`` are the
    reads served from the cache.  Both ascend.
    """

    written: list[int] = field(default_factory=list)
    hits: list[int] = field(default_factory=list)
    _pending: list[_PendingValue] = field(default_factory=list)
    _hit_values: list[Any] = field(default_factory=list)


class TouchCache:
    """LRU cache keyed by (object, rowid bucket, stride bucket).

    Rowids are grouped into buckets of ``bucket_rows`` so that neighbouring
    touches share entries, and strides are bucketed by powers of two so a
    revisit at a similar granularity still hits.
    """

    def __init__(
        self,
        capacity: int = 4096,
        bucket_rows: int = 64,
        budget: MemoryBudget | None = None,
        entry_cost_bytes: int = 256,
    ):
        if capacity <= 0:
            raise DbTouchError("cache capacity must be positive")
        if bucket_rows <= 0:
            raise DbTouchError("bucket_rows must be positive")
        if entry_cost_bytes <= 0:
            raise DbTouchError("entry_cost_bytes must be positive")
        self.capacity = capacity
        self.bucket_rows = bucket_rows
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        #: optional shared budget (see :class:`MemoryBudget`): each entry is
        #: accounted at the flat ``entry_cost_bytes`` estimate, so the touch
        #: cache and the out-of-core chunk cache can split one allowance.
        #: Inserts stay owner-thread-only (the scheduler's session affinity),
        #: but a shared budget may call :meth:`_reclaim_bytes` from another
        #: session's worker, so entry mutations happen under ``_lock`` and
        #: budget calls are made only while the lock is NOT held (the
        #: deadlock-freedom rule documented on :class:`MemoryBudget`).
        self.entry_cost_bytes = entry_cost_bytes
        self._lock = threading.RLock()
        self._budget = budget
        self._budget_key = f"touch-cache-{id(self):x}"
        if budget is not None:
            budget.register(self._budget_key, self._reclaim_bytes)

    # ------------------------------------------------------------------ #
    # key construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _stride_bucket(stride: int) -> int:
        return 1 << (max(1, int(stride)).bit_length() - 1)

    @staticmethod
    def stride_buckets(strides: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_stride_bucket`: power-of-two bucket per stride
        (``tests`` lock its agreement with the scalar rule)."""
        s = np.maximum(1, np.asarray(strides, dtype=np.int64))
        exponents = np.floor(np.log2(s.astype(np.float64))).astype(np.int64)
        return np.left_shift(np.int64(1), exponents)

    def _key(self, object_name: str, rowid: int, stride: int) -> Hashable:
        return (object_name, rowid // self.bucket_rows, self._stride_bucket(stride))

    def _bucket_lists(self, rowids, strides) -> tuple[list[int], list[int]]:
        """Rowid and stride buckets of many references, as Python ints."""
        buckets = np.asarray(rowids, dtype=np.int64) // self.bucket_rows
        return buckets.tolist(), self.stride_buckets(strides).tolist()

    # ------------------------------------------------------------------ #
    # shared-budget accounting
    # ------------------------------------------------------------------ #
    def _settle(self, entry_delta: int) -> None:
        """Charge/release an entry-count change against the shared budget.

        Never called while ``_lock`` is held (the deadlock-freedom rule on
        :class:`MemoryBudget`).  Writers pre-charge their prospective new
        entries *before* inserting and settle the correction afterwards:
        a cross-session reclaim that evicts a just-inserted entry must
        find its bytes already on the books, or the clamped release makes
        usage drift upward forever.
        """
        if self._budget is None or entry_delta == 0:
            return
        nbytes = abs(entry_delta) * self.entry_cost_bytes
        if entry_delta > 0:
            self._budget.charge(self._budget_key, nbytes)
        else:
            self._budget.release(self._budget_key, nbytes)

    def _reclaim_bytes(self, nbytes: int) -> int:
        """Budget eviction hook: drop LRU entries until ``nbytes`` are freed.

        Called by the shared :class:`MemoryBudget` when another participant
        (e.g. the out-of-core chunk cache) needs room — possibly from a
        different session's worker thread; the budget adjusts its own
        accounting from the return value.
        """
        freed = 0
        with self._lock:
            while freed < nbytes and self._entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                freed += self.entry_cost_bytes
        return freed

    def _evict_to_capacity_locked(self) -> None:
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------ #
    # cache protocol
    # ------------------------------------------------------------------ #
    def get(self, object_name: str, rowid: int, stride: int = 1) -> Any | None:
        """Look up a cached value; returns ``None`` on a miss."""
        key = self._key(object_name, rowid, stride)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
            return None

    def contains(self, object_name: str, rowid: int, stride: int = 1) -> bool:
        """Whether a value is cached, without affecting hit/miss statistics."""
        with self._lock:
            return self._key(object_name, rowid, stride) in self._entries

    def presence_probe(self, object_name: str, stride: int = 1) -> Callable[[int], bool]:
        """A ``rowid -> cached?`` test with the key's constant parts built once.

        Equivalent to ``contains(object_name, rowid, stride)`` per call
        (no statistics, no LRU refresh); made for the per-touch prefetch
        loop, which probes a run of proposals under one namespace and one
        stride.  One dict lookup is atomic, so no lock is taken.
        """
        entries, bucket_rows = self._entries, self.bucket_rows
        sbucket = self._stride_bucket(stride)
        return lambda rowid: (object_name, rowid // bucket_rows, sbucket) in entries

    def put(self, object_name: str, rowid: int, value: Any, stride: int = 1) -> None:
        """Insert (or refresh) a cached value, evicting LRU entries if full."""
        key = self._key(object_name, rowid, stride)
        with self._lock:
            prospective = 0 if key in self._entries else 1
        self._settle(prospective)  # charge BEFORE inserting
        with self._lock:
            before = len(self._entries)
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            self.stats.insertions += 1
            self._evict_to_capacity_locked()
            delta = len(self._entries) - before
        self._settle(delta - prospective)

    def replay_gesture(
        self,
        object_name: str,
        rowids: Sequence[int] | np.ndarray,
        strides: Sequence[int] | np.ndarray,
        is_read: Sequence[bool],
    ) -> GestureReplay:
        """Walk one gesture's time-ordered cache events against the live LRU.

        Event ``i`` is a :meth:`get` when ``is_read[i]`` and otherwise a
        prefetch proposal — a :meth:`contains` probe followed, when the
        key is absent, by a :meth:`put`.  Every event does exactly what
        the per-touch loop's call would do to the recency order, the
        statistics, the capacity evictions and the shared budget; only
        the *values* of the inserted entries are not known yet, so an
        insert leaves a placeholder.  The caller reads the values of
        ``replay.written`` in two batches and hands them to
        :meth:`settle_replay`, which it must call even when a read fails.

        One dict lookup per event, never a pass over the entries: the cost
        is O(events of this gesture) whatever the cache holds.
        """
        buckets, sbuckets = self._bucket_lists(rowids, strides)
        replay = GestureReplay()
        written, hits, hit_values = replay.written, replay.hits, replay._hit_values
        pending = replay._pending
        entries, capacity, stats = self._entries, self.capacity, self.stats
        budgeted = self._budget is not None
        unreleased = 0  # capacity evictions whose bytes are still charged
        lock = self._lock
        lock.acquire()
        try:
            for event, key in enumerate(zip(repeat(object_name), buckets, sbuckets)):
                if key in entries:
                    if is_read[event]:
                        entries.move_to_end(key)
                        hits.append(event)
                        hit_values.append(entries[key])
                    continue
                if budgeted:
                    # put() charges before inserting and releases an evicted
                    # entry's bytes after; budget calls need the lock dropped
                    lock.release()
                    try:
                        self._settle(-unreleased)
                        unreleased = 0
                        self._settle(1)
                    finally:
                        lock.acquire()
                placeholder = _PendingValue(key)
                entries[key] = placeholder
                written.append(event)
                pending.append(placeholder)
                if len(entries) > capacity:
                    entries.popitem(last=False)
                    stats.evictions += 1
                    unreleased += 1
            reads = sum(is_read)
            stats.hits += len(hits)
            stats.misses += reads - len(hits)
            stats.insertions += len(written)
        finally:
            lock.release()
        self._settle(-unreleased)
        return replay

    def settle_replay(self, replay: GestureReplay, values: Sequence[Any] | None) -> list[Any]:
        """Give the entries :meth:`replay_gesture` inserted their values.

        ``values[i]`` belongs to event ``replay.written[i]``.  A
        placeholder evicted later in the same gesture is simply gone (and
        a re-insertion of its key has a placeholder of its own).  Returns
        the value each of ``replay.hits`` was served.  ``values=None``
        abandons the replay: placeholders still cached are dropped, so a
        failed read can never leave one behind to be served as data.
        """
        dropped = 0
        with self._lock:
            entries = self._entries
            if values is None:
                for placeholder in replay._pending:
                    if entries.get(placeholder.key) is placeholder:
                        del entries[placeholder.key]
                        dropped += 1
            else:
                for placeholder, value in zip(replay._pending, values):
                    placeholder.value = value
                    if entries.get(placeholder.key) is placeholder:
                        entries[placeholder.key] = value
        self._settle(-dropped)
        return [
            served.value if type(served) is _PendingValue else served
            for served in replay._hit_values
        ]

    def invalidate(self, object_name: str) -> int:
        """Drop every entry belonging to ``object_name`` (data changed).

        Kernel namespaces are ``(object_name, read_descriptor)`` tuples,
        so matching is on the object component exactly — an object whose
        name merely shares a prefix (or that embeds ``":"``) is never
        conflated.  Bare namespaces equal to ``object_name`` are matched
        as well.
        """
        with self._lock:
            doomed = [
                k
                for k in self._entries
                if (
                    (isinstance(k[0], tuple) and k[0] and k[0][0] == object_name)
                    or k[0] == object_name
                )
            ]
            for key in doomed:
                del self._entries[key]
        self._settle(-len(doomed))
        return len(doomed)

    def clear(self) -> None:
        """Empty the cache and reset statistics."""
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            self.stats = CacheStats()
        self._settle(-removed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class HashTableCache:
    """Cache of join hash tables keyed by (object pair, sample level).

    The paper notes that hash tables built while joining one sample copy can
    be reused when future queries request data at a similar granularity.
    """

    def __init__(self, capacity: int = 16):
        if capacity <= 0:
            raise DbTouchError("hash-table cache capacity must be positive")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def get(self, left_object: str, right_object: str, level: int = 0) -> Any | None:
        """Return the cached hash-table pair for a join, or ``None``."""
        key = (left_object, right_object, level)
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return self._entries[key]
        self.stats.misses += 1
        return None

    def put(self, left_object: str, right_object: str, tables: Any, level: int = 0) -> None:
        """Cache the hash-table pair built while joining two objects."""
        key = (left_object, right_object, level)
        self._entries[key] = tables
        self._entries.move_to_end(key)
        self.stats.insertions += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate_participant(self, name: str) -> int:
        """Drop every cached hash-table pair one participant took part in.

        Called when a participant's underlying data mutates (a reload):
        its hash tables index values that no longer exist, so reusing them
        would serve stale join matches.
        """
        doomed = [key for key in self._entries if name in key[:2]]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def __len__(self) -> int:
        return len(self._entries)
