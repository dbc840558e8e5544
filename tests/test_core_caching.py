"""Unit tests for the join hash-table cache."""

import pytest

from repro.core.caching import HashTableCache
from repro.errors import DbTouchError


class TestHashTableCache:
    def test_put_and_get(self):
        cache = HashTableCache()
        tables = ({"k": [1]}, {"k": [2]})
        cache.put("left", "right", tables, level=1)
        assert cache.get("left", "right", level=1) == tables
        assert cache.get("left", "right", level=0) is None

    def test_eviction(self):
        cache = HashTableCache(capacity=1)
        cache.put("a", "b", "x")
        cache.put("c", "d", "y")
        assert cache.get("a", "b") is None
        assert cache.get("c", "d") == "y"

    def test_invalid_capacity(self):
        with pytest.raises(DbTouchError):
            HashTableCache(capacity=0)

    def test_len(self):
        cache = HashTableCache()
        cache.put("a", "b", "x")
        assert len(cache) == 1
