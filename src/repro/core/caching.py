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

Direct-mapped slots
-------------------
A key is one ``int64`` packing the namespace id (handed out per cache in
first-use order, never from the per-process salted ``hash()``), the rowid
bucket and the stride exponent, and it has one slot of ``capacity``.
After any event on a slot the slot holds that event's key, so an event
finds its key exactly when the previous event on its slot had it: a whole
gesture's hits are one stable sort by slot and one shifted compare
(:meth:`TouchCache.plan`).  Set-associativity trades a little hit rate for
this cheaper lookup (Hill & Smith, IEEE TC 1989).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

import numpy as np

from repro.errors import DbTouchError

#: key layout, low bits first: stride exponent, rowid bucket, namespace id;
#: the sign bit stays clear, so no key equals the empty marker -1
_STRIDE_BITS, _BUCKET_BITS = 6, 37
_NAMESPACE_SHIFT = _STRIDE_BITS + _BUCKET_BITS
_EMPTY = -1
#: strides are clamped here, where a float64 still holds them exactly
_STRIDE_CAP = 1 << 52
#: odd multiplier (2**64 over the golden ratio): the top 32 bits of
#: ``key * _MIX`` depend on every key bit, and Lemire's
#: ``(h * capacity) >> 32`` maps them onto any capacity
_MIX = 0x9E3779B97F4A7C15


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


class TouchCache:
    """Direct-mapped cache keyed by (namespace, rowid bucket, stride bucket).

    Rowids are grouped into buckets of ``bucket_rows`` so that neighbouring
    touches share entries, and strides are bucketed by powers of two so a
    revisit at a similar granularity still hits.  Keys (``-1`` when empty)
    and values are two arrays of ``capacity`` slots; a put into a slot
    another key holds evicts that key.
    """

    def __init__(self, capacity: int = 4096, bucket_rows: int = 64):
        if not 0 < capacity < 1 << 32:
            raise DbTouchError("cache capacity must be positive (and below 2**32)")
        if bucket_rows <= 0:
            raise DbTouchError("bucket_rows must be positive")
        self.capacity = capacity
        self.bucket_rows = bucket_rows
        self.stats = CacheStats()
        self._keys = np.full(capacity, _EMPTY, dtype=np.int64)
        #: allocated by the first write (see :meth:`_values_for_write`)
        self._values: np.ndarray | None = None
        self._namespaces: dict[Hashable, int] = {}
        #: inserts stay owner-thread-only (the scheduler's session
        #: affinity); lookups and mutations still take ``_lock``, so a
        #: caller on another thread never sees a half-done update
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # keys and slots
    # ------------------------------------------------------------------ #
    @staticmethod
    def _stride_exponent(stride: int) -> int:
        """A stride's power-of-two bucket, as its exponent (no column is
        ``_STRIDE_CAP`` rows long, so longer strides share the top one)."""
        return min(max(1, int(stride)), _STRIDE_CAP).bit_length() - 1

    @staticmethod
    def _stride_exponents(strides: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_stride_exponent`: the float64 exponent field."""
        s = np.minimum(np.maximum(strides, 1), _STRIDE_CAP).astype(np.float64)
        return (s.view(np.int64) >> 52) - 1023

    def _key_high(self, namespace: Hashable) -> int:
        """The namespace's bits of a key; ids go out in first-use order."""
        ns_id = self._namespaces.get(namespace)
        if ns_id is None:
            with self._lock:  # two threads must never hand out one id twice
                ns_id = self._namespaces.setdefault(namespace, len(self._namespaces))
            if ns_id >> (63 - _NAMESPACE_SHIFT):
                raise DbTouchError("the touch cache ran out of namespace ids")
        return ns_id << _NAMESPACE_SHIFT

    def _key(self, namespace: Hashable, rowid: int, stride: int) -> int:
        bucket = int(rowid) // self.bucket_rows
        if bucket >> _BUCKET_BITS:  # never wrap into another key
            raise DbTouchError(f"rowid {rowid} does not fit the touch cache's keys")
        return self._key_high(namespace) | bucket << _STRIDE_BITS | self._stride_exponent(stride)

    def _keys_of(self, namespace: Hashable, rowids, strides) -> np.ndarray:
        """Vectorized :meth:`_key` over one namespace."""
        buckets = np.asarray(rowids, dtype=np.int64) // self.bucket_rows
        if (buckets >> _BUCKET_BITS).any():
            raise DbTouchError("a rowid does not fit the touch cache's keys")
        exponents = self._stride_exponents(strides)
        return (buckets << _STRIDE_BITS) | exponents | self._key_high(namespace)

    def _values_for_write(self) -> np.ndarray:
        """The value slots, allocated on first use (4,096 ``None`` take
        ~13 µs to fill, as much as the rest of a session's set-up)."""
        if self._values is None:
            self._values = np.empty(self.capacity, dtype=object)
        return self._values

    def _slot(self, key: int) -> int:
        return (((key * _MIX) % (1 << 64)) >> 32) * self.capacity >> 32

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_slot` (``uint64`` products wrap mod 2**64),
        as ``uint16`` when the capacity allows: numpy sorts those by radix."""
        mixed = (keys.view(np.uint64) * np.uint64(_MIX)) >> np.uint64(32)
        slots = (mixed * np.uint64(self.capacity)) >> np.uint64(32)
        return slots.astype(np.uint16 if self.capacity <= 1 << 16 else np.int64)

    # ------------------------------------------------------------------ #
    # cache protocol: the per-touch loop's calls, then a whole gesture's
    # ------------------------------------------------------------------ #
    def get(self, object_name: Hashable, rowid: int, stride: int = 1) -> Any | None:
        """Look up a cached value; returns ``None`` on a miss."""
        key = self._key(object_name, rowid, stride)
        slot = self._slot(key)
        with self._lock:
            if self._keys[slot] == key:
                self.stats.hits += 1
                return self._values[slot]
            self.stats.misses += 1
            return None

    def presence_probe(self, object_name: Hashable, stride: int = 1) -> Callable[[int], bool]:
        """A ``rowid -> cached?`` test touching no statistics, for the
        per-touch prefetch loop's proposals under one namespace and stride.
        One array read is atomic, so no lock is taken."""
        keys, key, slot = self._keys, self._key, self._slot

        def probe(rowid: int) -> bool:
            wanted = key(object_name, rowid, stride)
            return bool(keys[slot(wanted)] == wanted)

        return probe

    def put(self, object_name: Hashable, rowid: int, value: Any, stride: int = 1) -> None:
        """Insert (or refresh) a cached value, evicting its slot's other key."""
        key = self._key(object_name, rowid, stride)
        slot = self._slot(key)
        with self._lock:
            held = int(self._keys[slot])
            self.stats.insertions += 1
            self.stats.evictions += held not in (key, _EMPTY)
            self._keys[slot] = key
            self._values_for_write()[slot] = value

    def plan(self, object_name: Hashable, rowids, strides, is_read):
        """Settle a gesture's time-ordered cache events against the slots.

        Event ``i`` is a :meth:`get` (and, on a miss, a :meth:`put`) when
        ``is_read[i]``, otherwise a prefetch proposal: a
        :meth:`presence_probe` and, when the key is absent, a :meth:`put`.
        Sorted stably by slot, each event sits behind the previous event on
        its slot, whose key the slot then holds: it finds its key when the
        two are equal (a slot's first event compares with the stored key),
        and a hit is served by the last write of its run — or, when the
        gesture has not written its slot yet, by the stored value.  Array
        passes only: O(events log events), whatever the capacity.

        Returns ``(written, num_hits, settle)``: ``written`` masks the
        events that write their slot (missed reads, absent proposals) and
        need a value.  ``settle(values)`` takes an event-indexed array
        holding those values, fills in every hit's value and commits the
        slots and statistics; until it is called nothing has changed, so a
        failed read commits nothing.
        """
        keys = self._keys_of(object_name, rowids, strides)
        slots = self._slots(keys)
        order = slots.argsort(kind="stable")
        slots, keys = slots[order], keys[order]
        events = int(keys.size)
        first = np.ones(events, dtype=bool)
        np.not_equal(slots[1:], slots[:-1], out=first[1:])
        previous = np.empty(events, dtype=np.int64)
        previous[1:] = keys[:-1]
        with self._lock:
            np.copyto(previous, self._keys[slots], where=first)
        write = keys != previous
        hits = (~write & np.asarray(is_read, dtype=bool)[order]).nonzero()[0]
        # each event's run starts at the last write on its slot, or at the
        # slot's first event when the gesture has not written it yet
        sources = np.maximum.accumulate(np.arange(events) * (write | first))[hits]
        by_write = write[sources]
        writes = write.nonzero()[0]
        last = np.ones(writes.size, dtype=bool)  # each written slot's last write
        np.not_equal(slots[writes[1:]], slots[writes[:-1]], out=last[:-1])
        last = writes[last]
        num_hits, num_writes = int(hits.size), int(writes.size)
        misses = int(np.count_nonzero(is_read)) - num_hits
        evictions = num_writes - int(np.count_nonzero(previous[writes] == _EMPTY))
        written = np.empty(events, dtype=bool)
        written[order] = write

        def settle(values: np.ndarray) -> None:
            values[order[hits[by_write]]] = values[order[sources[by_write]]]
            with self._lock:
                slot_values = self._values_for_write()
                stored = hits[~by_write]
                values[order[stored]] = slot_values[slots[stored]]
                self._keys[slots[last]] = keys[last]
                slot_values[slots[last]] = values[order[last]]
                stats = self.stats
                stats.hits += num_hits
                stats.misses += misses
                stats.insertions += num_writes
                stats.evictions += evictions

        return written, num_hits, settle

    def invalidate(self, object_name: str) -> int:
        """Drop every entry belonging to ``object_name`` (data changed).

        Kernel namespaces are ``(object_name, read_descriptor)`` tuples,
        so matching is on the object component exactly — an object whose
        name merely shares a prefix (or that embeds ``":"``) is never
        conflated.  Bare namespaces equal to ``object_name`` are matched
        as well.  One masked pass over the slot keys.
        """
        with self._lock:
            doomed_ids = [
                ns_id
                for namespace, ns_id in self._namespaces.items()
                if namespace == object_name
                or (type(namespace) is tuple and namespace[:1] == (object_name,))
            ]
            doomed = np.isin(self._keys >> _NAMESPACE_SHIFT, doomed_ids)
            self._keys[doomed] = _EMPTY
            if self._values is not None:
                self._values[doomed] = None
            return int(np.count_nonzero(doomed))

    def clear(self) -> None:
        """Empty the cache and reset statistics."""
        with self._lock:
            self._keys.fill(_EMPTY)
            self._values = None
            self._namespaces.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return int(np.count_nonzero(self._keys != _EMPTY))


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
