"""Unit tests for the touched-range cache and the hash-table cache."""

import pytest

from repro.core.caching import HashTableCache, TouchCache
from repro.errors import DbTouchError


class TestTouchCache:
    def test_miss_then_hit(self):
        cache = TouchCache()
        assert cache.get("obj", 100) is None
        cache.put("obj", 100, "value")
        assert cache.get("obj", 100) == "value"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_nearby_rowids_share_bucket(self):
        cache = TouchCache(bucket_rows=64)
        cache.put("obj", 100, "value")
        assert cache.get("obj", 101) == "value"
        assert cache.get("obj", 127) == "value"
        assert cache.get("obj", 128) is None  # next bucket

    def test_similar_strides_share_bucket(self):
        cache = TouchCache()
        cache.put("obj", 10, "v", stride=16)
        assert cache.get("obj", 10, stride=17) == "v"
        assert cache.get("obj", 10, stride=31) == "v"
        assert cache.get("obj", 10, stride=32) is None

    def test_objects_are_isolated(self):
        cache = TouchCache()
        cache.put("a", 0, 1)
        assert cache.get("b", 0) is None

    def test_contains_does_not_affect_stats(self):
        cache = TouchCache()
        cache.put("a", 0, 1)
        probe = cache.presence_probe("a")
        assert probe(0)
        assert not probe(10_000)
        assert cache.stats.lookups == 0

    def test_lru_eviction(self):
        cache = TouchCache(capacity=2, bucket_rows=1)
        cache.put("o", 0, "a")
        cache.put("o", 1, "b")
        cache.get("o", 0)  # refresh entry 0
        cache.put("o", 2, "c")  # evicts entry 1
        assert cache.get("o", 0) == "a"
        assert cache.get("o", 1) is None
        assert cache.stats.evictions == 1

    def test_invalidate_object(self):
        cache = TouchCache(bucket_rows=1)
        cache.put("a", 0, 1)
        cache.put("a", 5, 2)
        cache.put("b", 0, 3)
        dropped = cache.invalidate("a")
        assert dropped == 2
        assert cache.get("b", 0) == 3

    def test_clear(self):
        cache = TouchCache()
        cache.put("a", 0, 1)
        cache.get("a", 0)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_put_same_key_updates(self):
        cache = TouchCache(bucket_rows=1)
        cache.put("a", 0, "old")
        cache.put("a", 0, "new")
        assert cache.get("a", 0) == "new"
        assert len(cache) == 1

    def test_invalid_parameters(self):
        with pytest.raises(DbTouchError):
            TouchCache(capacity=0)
        with pytest.raises(DbTouchError):
            TouchCache(bucket_rows=0)

    def test_hit_rate_empty(self):
        assert TouchCache().stats.hit_rate == 0.0


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
