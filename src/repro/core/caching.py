"""Caching of join hash tables.

The paper notes that hash tables built while joining one sample copy can
be reused when later queries ask for data at a similar granularity;
:class:`HashTableCache` keeps them, keyed by the joined pair and the sample
level, and :class:`CacheStats` counts its traffic.  Touched values are not
cached: every touch reads its own row, because a read here is one numpy
gather, cheaper than the bookkeeping that would avoid it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from repro.errors import DbTouchError


@dataclass
class CacheStats:
    """Hit/miss accounting for a cache."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0


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
