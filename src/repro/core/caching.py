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
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Callable, Hashable, Sequence

import numpy as np

from repro.errors import DbTouchError


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

    def __init__(self, capacity: int = 4096, bucket_rows: int = 64):
        if capacity <= 0:
            raise DbTouchError("cache capacity must be positive")
        if bucket_rows <= 0:
            raise DbTouchError("bucket_rows must be positive")
        self.capacity = capacity
        self.bucket_rows = bucket_rows
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        #: inserts stay owner-thread-only (the scheduler's session
        #: affinity); lookups and mutations still take ``_lock``, so a
        #: caller on another thread never sees a half-done update
        self._lock = threading.RLock()

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

    def presence_probe(self, object_name: str, stride: int = 1) -> Callable[[int], bool]:
        """A ``rowid -> cached?`` test with the key's constant parts built once.

        A probe touches neither statistics nor LRU order; made for the
        per-touch prefetch loop, which probes a run of proposals under one
        namespace and one stride.  One dict lookup is atomic, so no lock is
        taken.
        """
        entries, bucket_rows = self._entries, self.bucket_rows
        sbucket = self._stride_bucket(stride)
        return lambda rowid: (object_name, rowid // bucket_rows, sbucket) in entries

    def put(self, object_name: str, rowid: int, value: Any, stride: int = 1) -> None:
        """Insert (or refresh) a cached value, evicting LRU entries if full."""
        key = self._key(object_name, rowid, stride)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            self.stats.insertions += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

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
        statistics and the capacity evictions; only the *values* of the
        inserted entries are not known yet, so an insert leaves a
        placeholder.  The caller reads the values of
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
        with self._lock:
            for event, key in enumerate(zip(repeat(object_name), buckets, sbuckets)):
                if key in entries:
                    if is_read[event]:
                        entries.move_to_end(key)
                        hits.append(event)
                        hit_values.append(entries[key])
                    continue
                placeholder = _PendingValue(key)
                entries[key] = placeholder
                written.append(event)
                pending.append(placeholder)
                if len(entries) > capacity:
                    entries.popitem(last=False)
                    stats.evictions += 1
            reads = sum(is_read)
            stats.hits += len(hits)
            stats.misses += reads - len(hits)
            stats.insertions += len(written)
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
        with self._lock:
            entries = self._entries
            if values is None:
                for placeholder in replay._pending:
                    if entries.get(placeholder.key) is placeholder:
                        del entries[placeholder.key]
            else:
                for placeholder, value in zip(replay._pending, values):
                    placeholder.value = value
                    if entries.get(placeholder.key) is placeholder:
                        entries[placeholder.key] = value
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
        return len(doomed)

    def clear(self) -> None:
        """Empty the cache and reset statistics."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

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
