"""Unit tests for the touched-range cache and the hash-table cache."""

import sys
import threading

import numpy as np
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
        # direct-mapped: a put into a slot another key holds evicts that
        # key and nothing else, whatever was read more recently
        cache = TouchCache(capacity=2, bucket_rows=1)
        slot = {r: cache._slot(cache._key("o", r, 1)) for r in range(16)}
        a = 0
        b = next(r for r in range(1, 16) if slot[r] == slot[a])
        c = next(r for r in range(1, 16) if slot[r] != slot[a])
        cache.put("o", a, "a")
        cache.put("o", c, "c")
        assert cache.get("o", a) == "a"  # a read does not protect the slot
        cache.put("o", b, "b")  # evicts a, its slot's only key
        assert cache.get("o", a) is None
        assert cache.get("o", b) == "b"
        assert cache.get("o", c) == "c"
        assert cache.stats.evictions == 1
        assert sorted(cache._keys.tolist()) == sorted(
            [cache._key("o", b, 1), cache._key("o", c, 1)]
        )

    def test_invalidate_object(self):
        cache = TouchCache(bucket_rows=1)
        keys = [("a", 0), ("a", 5), ("b", 0)]
        assert len({cache._slot(cache._key(ns, r, 1)) for ns, r in keys}) == len(keys)
        cache.put("a", 0, 1)
        cache.put("a", 5, 2)
        cache.put("b", 0, 3)
        dropped = cache.invalidate("a")
        assert dropped == 2
        assert cache.get("b", 0) == 3
        assert len(cache) == 1

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
            TouchCache(capacity=1 << 32)
        with pytest.raises(DbTouchError):
            TouchCache(bucket_rows=0)

    def test_hit_rate_empty(self):
        assert TouchCache().stats.hit_rate == 0.0

    def test_rowid_beyond_the_key_packing_raises(self):
        # a rowid bucket that does not fit its 37 bits must never wrap into
        # another key: every entry point refuses it
        cache = TouchCache(bucket_rows=1)
        huge = 1 << 37
        with pytest.raises(DbTouchError):
            cache.get("a", huge)
        with pytest.raises(DbTouchError):
            cache.put("a", huge, 1)
        with pytest.raises(DbTouchError):
            cache.presence_probe("a")(huge)
        with pytest.raises(DbTouchError):
            cache.get("a", -1)
        rowids = np.array([0, huge], dtype=np.int64)
        with pytest.raises(DbTouchError):
            cache.plan("a", rowids, np.ones(2, dtype=np.int64), np.ones(2, dtype=bool))
        assert cache.stats.lookups == 0 and len(cache) == 0
        cache.put("a", huge - 1, 1)
        assert cache.get("a", huge - 1) == 1

    def test_namespace_ids_follow_first_use(self):
        # never hash(): two caches that see the same namespaces in the same
        # order pack the same keys, in any process
        first, second = TouchCache(), TouchCache()
        for cache in (first, second):
            cache.get(("x", "scan"), 10)
            cache.put(("y", "summary:k4"), 10, 1.0)
        assert first._key(("y", "summary:k4"), 10, 1) == second._key(("y", "summary:k4"), 10, 1)
        assert first._namespaces == {("x", "scan"): 0, ("y", "summary:k4"): 1}

    def test_concurrent_first_uses_get_distinct_namespace_ids(self):
        cache = TouchCache()

        def first_uses(worker):
            for descriptor in range(200):
                cache.get((f"o{worker}", f"d{descriptor}"), 0)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_uses, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(cache._namespaces.values()) == list(range(8 * 200))

    def test_slot_depends_on_every_key_bit(self):
        # the namespace bits sit above the rowid bucket: a slot hash that
        # dropped them would put one bucket of two namespaces in one slot
        cache = TouchCache(capacity=4096, bucket_rows=1)
        namespaces = [("o", f"d{i}") for i in range(64)]
        slots = {cache._slot(cache._key(ns, 7, 1)) for ns in namespaces}
        assert len(slots) > 56
        keys = np.array(
            [cache._key(ns, r, s) for ns in namespaces for r, s in ((7, 1), (9_000, 40))]
        )
        assert cache._slots(keys).tolist() == [cache._slot(int(k)) for k in keys]
        # past 2**16 slots the vectorized slots are int64, not uint16
        wide = TouchCache(capacity=(1 << 17) + 3, bucket_rows=1)
        assert wide._slots(keys).dtype == np.int64
        assert wide._slots(keys).tolist() == [wide._slot(int(k)) for k in keys]


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
