"""Unit and parity tests for the vectorized batch slide machinery."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.batch import dedupe_slide_batch
from repro.core.caching import TouchCache
from repro.core.kernel import KernelConfig
from repro.core.prefetch import GesturePrefetcher
from repro.core.result_stream import ResultStream
from repro.core.session import ExplorationSession
from repro.core.summaries import InteractiveSummarizer
from repro.core.touch_mapping import TouchMapper
from repro.engine.aggregate import make_aggregate
from repro.engine.filter import Comparison, Predicate
from repro.errors import VisualizationError
from repro.storage.column import Column
from repro.storage.sample import SampleHierarchy
from repro.touchio.device import DeviceProfile
from repro.touchio.synthesizer import GestureSynthesizer, SlideSegment
from repro.touchio.views import make_column_view, make_table_view


@pytest.fixture
def profile() -> DeviceProfile:
    return DeviceProfile(
        name="batch-device",
        screen_width_cm=20.0,
        screen_height_cm=15.0,
        sampling_rate_hz=60.0,
        finger_width_cm=0.08,
    )


# --------------------------------------------------------------------- #
# mapping
# --------------------------------------------------------------------- #
class TestMapBatch:
    def _stream(self, view, profile, segments=None):
        synthesizer = GestureSynthesizer(profile)
        if segments is None:
            return synthesizer.slide(view, duration=1.0)
        return synthesizer.slide_path(view, segments)

    def test_matches_per_touch_mapping_on_column(self, profile):
        view = make_column_view("v", "c", num_tuples=123_457, height_cm=10.0, width_cm=2.0)
        stream = self._stream(view, profile)
        mapper = TouchMapper()
        batch = mapper.map_batch(view, stream)
        for i, event in enumerate(stream.events):
            mapped = mapper.map_touch(view, event.primary.x, event.primary.y)
            assert batch.rowids[i] == mapped.rowid
            assert batch.fractions[i] == mapped.fraction
            assert batch.timestamps[i] == event.timestamp

    def test_matches_per_touch_mapping_on_table(self, profile):
        view = make_table_view(
            "t", "tbl", num_tuples=997, num_attributes=4, height_cm=10.0, width_cm=8.0
        )
        stream = self._stream(view, profile)
        mapper = TouchMapper()
        batch = mapper.map_batch(view, stream)
        for i, event in enumerate(stream.events):
            mapped = mapper.map_touch(view, event.primary.x, event.primary.y)
            assert batch.rowids[i] == mapped.rowid

    def test_granularity_snapping(self, profile):
        view = make_column_view("v", "c", num_tuples=10_000, height_cm=10.0, width_cm=2.0)
        stream = self._stream(view, profile)
        mapper = TouchMapper(granularity=16)
        batch = mapper.map_batch(view, stream)
        assert np.all(batch.rowids % 16 == 0)
        for i, event in enumerate(stream.events):
            assert batch.rowids[i] == mapper.map_touch(view, event.primary.x, event.primary.y).rowid


class TestDedupeSlideBatch:
    def test_drops_runs_and_carries_stride(self):
        rowids = np.array([5, 5, 9, 9, 9, 13, 20], dtype=np.int64)
        keep, strides = dedupe_slide_batch(rowids, last_rowid=None, current_stride=3)
        assert rowids[keep].tolist() == [5, 9, 13, 20]
        # no previous rowid: the first touch keeps the carried stride
        assert strides.tolist() == [3, 4, 4, 7]

    def test_dedups_against_previous_gesture(self):
        rowids = np.array([7, 7, 11], dtype=np.int64)
        keep, strides = dedupe_slide_batch(rowids, last_rowid=7, current_stride=2)
        assert rowids[keep].tolist() == [11]
        assert strides.tolist() == [4]

    def test_empty_after_dedup(self):
        rowids = np.array([4, 4, 4], dtype=np.int64)
        keep, strides = dedupe_slide_batch(rowids, last_rowid=4, current_stride=2)
        assert rowids[keep].size == 0 and strides.size == 0


# --------------------------------------------------------------------- #
# storage / summaries / aggregates
# --------------------------------------------------------------------- #
class TestSampleReadBatch:
    def test_matches_read_at(self):
        rng = np.random.default_rng(7)
        column = Column("c", rng.integers(0, 1000, size=65_536, dtype=np.int64))
        hierarchy = SampleHierarchy(column, factor=4)
        rowids = rng.integers(0, len(column), size=500)
        strides = rng.integers(1, 600, size=500)
        values, levels = hierarchy.read_batch(rowids, strides)
        for i in range(rowids.size):
            value, lvl = hierarchy.read_at(int(rowids[i]), int(strides[i]))
            assert values[i] == value
            assert levels[i] == lvl.level

    def test_rejects_out_of_range(self):
        column = Column("c", np.arange(100, dtype=np.int64))
        hierarchy = SampleHierarchy(column, factor=4, min_rows=8)
        from repro.errors import SampleError

        with pytest.raises(SampleError):
            hierarchy.read_batch(np.array([5, 100]), np.array([1, 1]))


class TestSummarizeBatch:
    @pytest.mark.parametrize("aggregate", ["avg", "sum", "count", "min", "max", "std"])
    def test_matches_summarize_at(self, aggregate):
        rng = np.random.default_rng(11)
        column = Column("c", rng.integers(0, 10_000, size=50_000, dtype=np.int64))
        hierarchy = SampleHierarchy(column, factor=4)
        summarizer = InteractiveSummarizer(column, k=10, aggregate=aggregate, hierarchy=hierarchy)
        rowids = rng.integers(0, len(column), size=200)
        strides = rng.integers(1, 400, size=200)
        values, counts, levels = summarizer.summarize_batch(rowids, strides)
        reference = InteractiveSummarizer(column, k=10, aggregate=aggregate, hierarchy=hierarchy)
        for i in range(rowids.size):
            expected = reference.summarize_at(int(rowids[i]), int(strides[i]))
            assert counts[i] == expected.values_aggregated
            assert levels[i] == expected.served_from_level
            assert values[i] == pytest.approx(expected.value, rel=1e-12, abs=1e-9)

    def test_window_std_survives_large_offsets(self):
        rng = np.random.default_rng(13)
        column = Column("c", 1e8 + rng.normal(0.0, 1.0, size=2000))
        batched = InteractiveSummarizer(column, k=100, aggregate="std")
        reference = InteractiveSummarizer(column, k=100, aggregate="std")
        values, _, _ = batched.summarize_batch(
            np.array([300, 1000, 1700]), np.ones(3, dtype=np.int64)
        )
        for i, rowid in enumerate((300, 1000, 1700)):
            assert values[i] == pytest.approx(reference.summarize_at(rowid).value, abs=1e-6)

    def test_counters_track_batch(self):
        column = Column("c", np.arange(1000, dtype=np.int64))
        summarizer = InteractiveSummarizer(column, k=5)
        _, counts, _ = summarizer.summarize_batch(np.array([0, 500, 999]), np.array([1, 1, 1]))
        assert summarizer.touches == 3
        assert summarizer.values_read == int(counts.sum())
        # edge windows clamp
        assert counts.tolist() == [6, 11, 6]


class TestAggregateOnBatch:
    @pytest.mark.parametrize("kind", ["count", "sum", "avg", "min", "max", "std"])
    def test_running_values_match_on_touch(self, kind):
        rng = np.random.default_rng(3)
        values = rng.normal(50.0, 20.0, size=300)
        batched = make_aggregate(kind)
        sequential = make_aggregate(kind)
        running_batch = batched.on_batch(values)
        running_seq = [sequential.on_touch(i, v) for i, v in enumerate(values)]
        assert running_batch == pytest.approx(running_seq, rel=1e-9, abs=1e-9)
        assert batched.current() == pytest.approx(sequential.current(), rel=1e-9)
        assert batched.count == sequential.count

    @pytest.mark.parametrize("kind", ["count", "sum", "avg", "min", "max"])
    def test_exact_for_integer_inputs(self, kind):
        values = np.arange(1, 1001, dtype=np.float64)
        batched = make_aggregate(kind)
        sequential = make_aggregate(kind)
        running_batch = batched.on_batch(values)
        running_seq = [sequential.on_touch(i, v) for i, v in enumerate(values)]
        assert running_batch.tolist() == running_seq
        assert batched.current() == sequential.current()

    def test_resumes_from_existing_state(self):
        agg = make_aggregate("avg")
        agg.on_touch(0, 10.0)
        running = agg.on_batch(np.array([20.0, 30.0]))
        assert running.tolist() == [15.0, 20.0]
        assert agg.count == 3

    @pytest.mark.parametrize("kind", ["sum", "avg"])
    def test_batch_fold_is_bit_identical_across_gestures(self, kind):
        # the scan must associate additions exactly like the sequential
        # fold even when resuming from prior state: ((sum + a1) + a2) ...
        rng = np.random.default_rng(17)
        first = rng.uniform(1e9, 1e10, size=50)
        second = rng.uniform(0.1, 1.0, size=50)
        batched = make_aggregate(kind)
        sequential = make_aggregate(kind)
        for chunk in (first, second):
            running_batch = batched.on_batch(chunk)
            running_seq = [sequential.on_touch(i, v) for i, v in enumerate(chunk)]
            assert running_batch.tolist() == running_seq
        assert batched.current() == sequential.current()

    def test_std_survives_large_offsets(self):
        # naive E[x^2] - mean^2 cancels catastrophically here; the shifted
        # cumulative moments must stay on top of the Welford reference
        rng = np.random.default_rng(9)
        values = 1e8 + rng.normal(0.0, 1.0, size=400)
        batched = make_aggregate("std")
        sequential = make_aggregate("std")
        running_batch = batched.on_batch(values)
        running_seq = [sequential.on_touch(i, v) for i, v in enumerate(values)]
        assert running_batch == pytest.approx(running_seq, abs=1e-6)
        assert batched.current() == pytest.approx(sequential.current(), abs=1e-6)
        # resume across batches with the shift anchored to prior state
        resumed = make_aggregate("std")
        resumed.on_batch(values[:100])
        resumed.on_batch(values[100:])
        assert resumed.current() == pytest.approx(sequential.current(), abs=1e-6)


# --------------------------------------------------------------------- #
# cache, prefetch, results
# --------------------------------------------------------------------- #
class TestCacheBulkOps:
    def test_stride_buckets_match_scalar_rule(self):
        strides = np.array([1, 2, 3, 4, 7, 8, 1023, 1024], dtype=np.int64)
        exponents = TouchCache._stride_exponents(strides)
        expected = [TouchCache._stride_exponent(int(s)) for s in strides]
        assert exponents.tolist() == expected

    def test_presence_probe_round_trip(self):
        # the probe must agree with the slot state for tuple namespaces
        # whose object names embed ":" — and leave the statistics and the
        # slots alone
        cache = TouchCache(capacity=256, bucket_rows=16)
        namespaces = [
            ("sales:2024", "scan"),
            ("sales", "2024:scan"),
            ("sales:2024", "summary:k10"),
            "sales:2024",
        ]
        rng = np.random.default_rng(5)
        for namespace in namespaces:
            rowids = rng.integers(0, 5_000, size=20)
            strides = rng.integers(1, 600, size=20)
            for rowid, stride in zip(rowids.tolist(), strides.tolist()):
                cache.put(namespace, rowid, float(rowid), stride)
        keys_before, values_before = cache._keys.copy(), cache._values.copy()
        lookups_before = cache.stats.lookups
        probe_rowids = rng.integers(0, 5_000, size=300)
        present = absent = 0
        for namespace in namespaces:
            for stride in (1, 3, 40, 511, 512):
                probe = cache.presence_probe(namespace, stride)
                for rowid in probe_rowids.tolist():
                    key = cache._key(namespace, rowid, stride)
                    expected = bool(cache._keys[cache._slot(key)] == key)
                    assert probe(rowid) is expected
                    present += expected
                    absent += not expected
        assert present > 0 and absent > 0
        assert np.array_equal(cache._keys, keys_before)
        assert cache._values.tolist() == values_before.tolist()
        assert cache.stats.lookups == lookups_before

    def test_stride_bucket_matches_doubling_loop(self):
        def doubling_loop(stride):
            stride = max(1, int(stride))
            bucket = 1
            while bucket * 2 <= stride:
                bucket *= 2
            return bucket

        strides = list(range(-2, 4_100))
        for exponent in range(12, 53):
            strides += [2**exponent - 1, 2**exponent, 2**exponent + 1]
        assert [1 << TouchCache._stride_exponent(s) for s in strides] == [
            doubling_loop(s) for s in strides
        ]
        exponents = TouchCache._stride_exponents(np.array(strides, dtype=np.int64))
        assert [1 << e for e in exponents.tolist()] == [doubling_loop(s) for s in strides]
        # past 2**52 rows (no column is that long) every stride shares one bucket
        huge = [2**52, 2**53 - 1, 2**53 + 1, 2**62, 2**63 - 1]
        assert [TouchCache._stride_exponent(s) for s in huge] == [52] * len(huge)
        assert TouchCache._stride_exponents(np.array(huge)).tolist() == [52] * len(huge)

    def test_bulk_ops_match_loop_semantics(self):
        # a put loop past capacity leaves each slot its last key and value,
        # and evicts exactly when a put lands on a slot another key holds
        cache = TouchCache(capacity=8, bucket_rows=4)
        rowids = list(range(0, 48, 4))  # 12 distinct buckets > capacity
        model = {}  # slot -> (key, value)
        evictions = 0
        for rowid in rowids:
            cache.put("o", rowid, float(rowid), 1)
            key = cache._key("o", rowid, 1)
            slot = cache._slot(key)
            evictions += slot in model and model[slot][0] != key
            model[slot] = (key, float(rowid))
        assert len(cache) == len(model) <= 8
        assert cache.stats.evictions == evictions == len(rowids) - len(model)
        assert {slot: (int(cache._keys[slot]), cache._values[slot]) for slot in model} == model
        assert sorted(cache._keys[cache._keys >= 0].tolist()) == sorted(
            key for key, _ in model.values()
        )


class TestGestureReplay:
    """``plan`` and its ``settle`` ≡ the per-touch call sequence."""

    @staticmethod
    def _events(seed, count=400):
        rng = np.random.default_rng(seed)
        rowids = rng.integers(0, 40 * 16, size=count)  # 40 buckets, revisits
        strides = rng.choice([1, 2, 5, 64], size=count)
        is_read = rng.random(count) < 0.4
        return rowids, strides, is_read

    @staticmethod
    def _loop(cache, rowids, strides, is_read):
        """What the kernel's per-touch loop does, event by event."""
        served = []
        for event, (rowid, stride, read) in enumerate(
            zip(rowids.tolist(), strides.tolist(), is_read.tolist())
        ):
            if read:
                value = cache.get("ns", rowid, stride)
                if value is None:
                    value = float(event)
                    cache.put("ns", rowid, value, stride)
                served.append(value)
            elif not cache.presence_probe("ns", stride)(rowid):
                cache.put("ns", rowid, float(event), stride)
        return served

    @staticmethod
    def _make(capacity):
        cache = TouchCache(capacity=capacity, bucket_rows=16)
        for rowid in range(0, 96, 16):  # some pre-gesture entries
            cache.put("ns", rowid, -1.0 - rowid, 1)
        return cache

    @pytest.mark.parametrize("capacity", [1, 12, 64])
    def test_matches_get_contains_put_loop(self, capacity):
        rowids, strides, is_read = self._events(capacity)
        loop_cache = self._make(capacity)
        loop_served = self._loop(loop_cache, rowids, strides, is_read)

        cache = self._make(capacity)
        written, num_hits, settle = cache.plan("ns", rowids, strides, is_read)
        values = np.full(rowids.size, np.nan)
        values[written] = np.flatnonzero(written)  # a write's value: its event
        settle(values)

        assert values[is_read].tolist() == loop_served
        assert num_hits == loop_cache.stats.hits  # _make only puts
        assert np.array_equal(cache._keys, loop_cache._keys)
        assert cache._values.tolist() == loop_cache._values.tolist()
        assert cache.stats == loop_cache.stats
        assert cache.stats.evictions > 0

    def test_abandoned_plan_commits_nothing(self):
        cache = self._make(8)
        rowids, strides, is_read = self._events(3, count=50)
        keys, values, stats = cache._keys.copy(), cache._values.copy(), replace(cache.stats)
        written, _, _ = cache.plan("ns", rowids, strides, is_read)
        assert written.any()  # the batch reads fail: settle is never called
        assert np.array_equal(cache._keys, keys)
        assert cache._values.tolist() == values.tolist()
        assert cache.stats == stats

    def test_failed_batch_read_leaves_slots_and_stats_unchanged(self, profile):
        session = ExplorationSession(profile=profile, config=KernelConfig())
        session.load_column("c", np.arange(50_000, dtype=np.int64))
        view = session.show_column("c", height_cm=10.0)
        session.choose_scan(view)
        session.slide(view, duration=0.5)
        column = session.kernel.state_of(view.name).column
        cache = session.kernel.cache
        keys, values, stats = cache._keys.copy(), cache._values.copy(), replace(cache.stats)
        assert len(cache) > 0

        def broken_read(rowids):
            raise OSError("chunk file vanished")

        column.read_batch = broken_read
        with pytest.raises(OSError):
            session.slide(view, duration=0.5, start_fraction=1.0, end_fraction=0.0)
        assert np.array_equal(cache._keys, keys)
        assert cache._values.tolist() == values.tolist()
        assert cache.stats == stats


class TestProposeBatch:
    def test_matches_sequential_observe_propose(self):
        rng = np.random.default_rng(5)
        timestamps = np.cumsum(rng.uniform(0.01, 0.05, size=120))
        steps = rng.integers(-300, 600, size=120)
        rowids = np.clip(np.cumsum(steps) + 50_000, 0, 99_999)
        strides = np.maximum(1, np.abs(np.diff(np.concatenate([[50_000], rowids]))))
        num_tuples = 100_000

        sequential = GesturePrefetcher()
        expected = []
        for touch, (t, r, s) in enumerate(zip(timestamps, rowids, strides)):
            sequential.observe(float(t), int(r))
            for proposal in sequential.propose(num_tuples, stride=int(s)):
                expected.append((proposal, touch))  # nearest first

        batched = GesturePrefetcher()
        rows, src = batched.propose_batch(timestamps, rowids, strides, num_tuples)
        assert list(zip(rows.tolist(), src.tolist())) == expected
        assert batched.prefetches_issued == sequential.prefetches_issued
        assert batched.num_observations == sequential.num_observations
        assert batched._times.tolist() == sequential._times.tolist()
        assert batched._rowids.tolist() == sequential._rowids.tolist()

    def test_continues_across_gestures(self):
        sequential = GesturePrefetcher()
        batched = GesturePrefetcher()
        for prefetcher in (sequential, batched):
            prefetcher.observe(0.0, 100)
            prefetcher.observe(0.1, 200)
        sequential.observe(0.2, 300)
        expected = sequential.propose(10_000, stride=100)
        rows, _ = batched.propose_batch(
            np.array([0.2]), np.array([300]), np.array([100]), 10_000
        )
        assert rows.tolist() == expected


class TestEmitBatch:
    def test_matches_sequential_emit(self):
        batch_stream = ResultStream(fade_seconds=1.0)
        loop_stream = ResultStream(fade_seconds=1.0)
        values = [1, 2, 3]
        rowids = [10, 20, 30]
        fractions = [0.1, 0.5, 0.9]
        times = [0.0, 0.5, 1.0]
        emitted = batch_stream.emit_batch(values, rowids, fractions, times)
        for v, r, f, t in zip(values, rowids, fractions, times):
            loop_stream.emit(v, r, f, t)
        assert list(emitted) == list(loop_stream)
        assert list(batch_stream) == list(loop_stream)

    def test_validates_before_mutating(self):
        stream = ResultStream()
        stream.emit(1, 0, 0.5, 5.0)
        with pytest.raises(VisualizationError):
            stream.emit_batch([2], [1], [0.5], [4.0])  # goes back in time
        with pytest.raises(VisualizationError):
            stream.emit_batch([2, 3], [1, 2], [0.5, 1.5], [6.0, 7.0])
        assert len(stream) == 1


# --------------------------------------------------------------------- #
# end-to-end parity of the batch slide path
# --------------------------------------------------------------------- #
CONFIG_MATRIX = [
    dict(enable_cache=False, enable_prefetch=False, enable_samples=False),
    dict(enable_cache=True, enable_prefetch=False, enable_samples=False),
    dict(enable_cache=True, enable_prefetch=True, enable_samples=False),
    dict(enable_cache=True, enable_prefetch=True, enable_samples=True),
    dict(enable_cache=False, enable_prefetch=True, enable_samples=True),
]


def _deterministic_fields(outcome):
    return dict(
        rowids=outcome.rowids_touched.tolist(),
        tuples=outcome.tuples_examined,
        entries=outcome.entries_returned,
        cache_hits=outcome.cache_hits,
        cache_misses=outcome.cache_misses,
        prefetch_hits=outcome.prefetch_hits,
        levels=outcome.served_level_counts,
        final=outcome.final_aggregate,
        values=[r.value for r in outcome.results],
        duration=outcome.duration_s,
        latencies=len(outcome.per_touch_latencies_s),
    )


class TestBatchSlideParity:
    def _run(self, profile, batch, config_kwargs, drive):
        session = ExplorationSession(
            profile=profile,
            config=KernelConfig(batch_execution=batch, **config_kwargs),
        )
        session.load_column("c", np.arange(200_000, dtype=np.int64))
        view = session.show_column("c", height_cm=10.0)
        return drive(session, view)

    @pytest.mark.parametrize("config_kwargs", CONFIG_MATRIX)
    def test_scan_back_and_forth(self, profile, config_kwargs):
        def drive(session, view):
            session.choose_scan(view)
            return [
                session.slide_path(
                    view,
                    [
                        SlideSegment(0.0, 1.0, duration=1.0, pause_after=0.5),
                        SlideSegment(1.0, 0.3, duration=1.0),
                    ],
                ),
                session.slide(view, duration=0.7),
            ]

        loop = self._run(profile, False, config_kwargs, drive)
        batch = self._run(profile, True, config_kwargs, drive)
        for a, b in zip(loop, batch):
            assert _deterministic_fields(a) == _deterministic_fields(b)

    @pytest.mark.parametrize("config_kwargs", CONFIG_MATRIX)
    def test_summary_parity(self, profile, config_kwargs):
        def drive(session, view):
            session.choose_summary(view, k=10)
            return [session.slide(view, duration=1.5)]

        loop = self._run(profile, False, config_kwargs, drive)
        batch = self._run(profile, True, config_kwargs, drive)
        assert _deterministic_fields(loop[0]) == _deterministic_fields(batch[0])

    def test_aggregate_with_predicate_parity(self, profile):
        from repro.core.actions import aggregate_action

        def drive(session, view):
            session.choose_action(
                view,
                aggregate_action("avg", predicate=Predicate(Comparison.GE, 50_000)),
            )
            return [session.slide(view, duration=1.5)]

        loop = self._run(profile, False, {}, drive)
        batch = self._run(profile, True, {}, drive)
        assert _deterministic_fields(loop[0]) == _deterministic_fields(batch[0])

    def test_kernel_state_matches_after_slide(self, profile):
        def drive(session, view):
            session.choose_scan(view)
            session.slide(view, duration=1.0)
            state = session.kernel.state_of(view.name)
            return [(state.last_rowid, state.current_stride, state.last_timestamp)]

        loop = self._run(profile, False, {}, drive)
        batch = self._run(profile, True, {}, drive)
        assert loop == batch

    @pytest.mark.parametrize("prefetch", [False, True])
    def test_lru_end_state_matches_reference_loop(self, profile, prefetch):
        # the slot state decides what later gestures hit, so a
        # multi-gesture session on a tiny cache must see identical counters
        # AND identical final slot keys and values on both paths
        rng = np.random.default_rng(21)
        legs = [
            (float(a), float(b), float(d))
            for a, b, d in zip(
                rng.uniform(0, 1, 5), rng.uniform(0, 1, 5), rng.uniform(0.2, 0.6, 5)
            )
        ]

        def run(batch):
            session = ExplorationSession(
                profile=profile,
                config=KernelConfig(
                    batch_execution=batch,
                    cache_capacity=5,
                    enable_prefetch=prefetch,
                    enable_samples=False,
                ),
            )
            session.load_column("c", np.arange(100_000, dtype=np.int64))
            view = session.show_column("c", height_cm=10.0)
            session.choose_scan(view)
            outcomes = [
                session.slide(view, duration=d, start_fraction=a, end_fraction=b)
                for a, b, d in legs
            ]
            counters = [
                (o.cache_hits, o.cache_misses, o.prefetch_hits) for o in outcomes
            ]
            cache = session.kernel.cache
            return counters, cache._keys.tolist(), [_plain(v) for v in cache._values]

        loop_counters, loop_keys, loop_values = run(False)
        batch_counters, batch_keys, batch_values = run(True)
        assert loop_counters == batch_counters
        assert loop_keys == batch_keys
        assert loop_values == batch_values

    @pytest.mark.parametrize("capacity", [8, 64, 512])
    def test_parity_survives_tiny_cache_capacities(self, profile, capacity):
        # entries are evicted and revisited within one gesture here: the
        # executor's event-ordered replay must miss exactly where the
        # reference loop misses
        def drive(session, view):
            session.choose_aggregate(view, "avg")
            return [
                session.slide(view, duration=1.5),
                session.slide(view, duration=1.0, start_fraction=1.0, end_fraction=0.0),
            ]

        config_kwargs = dict(cache_capacity=capacity)
        loop = self._run(profile, False, config_kwargs, drive)
        batch = self._run(profile, True, config_kwargs, drive)
        for a, b in zip(loop, batch):
            assert _deterministic_fields(a) == _deterministic_fields(b)

    @pytest.mark.parametrize("indexing", [False, True])
    def test_select_where_cache_off_parity(self, profile, indexing):
        # without the touched-range cache, a range-filtered select-where
        # slide reads one where-value per touch like any other slide: every
        # counter matches the per-touch reference loop, and the gesture
        # never builds or consults the index (a consultation selects the
        # whole column, O(column) on the gesture path)
        from repro.core.actions import select_where_action

        rng = np.random.default_rng(11)
        amounts = rng.integers(0, 100_000, size=120_000, dtype=np.int64)

        def run(batch):
            session = ExplorationSession(
                profile=profile,
                config=KernelConfig(
                    batch_execution=batch,
                    enable_cache=False,
                    enable_prefetch=False,
                    enable_samples=False,
                    enable_indexing=indexing,
                ),
            )
            session.load_table(
                "t",
                {
                    "amount": amounts,
                    "customer": np.arange(amounts.size, dtype=np.int64),
                },
            )
            view = session.show_table("t", height_cm=10.0, width_cm=8.0)
            session.choose_action(
                view,
                select_where_action(
                    "amount",
                    Predicate(Comparison.BETWEEN, 20_000, upper=60_000),
                    ["customer"],
                ),
            )
            outcomes = [
                session.slide(view, duration=1.0),
                session.slide(view, duration=0.8, start_fraction=1.0, end_fraction=0.2),
            ]
            return [_deterministic_fields(o) for o in outcomes], session.kernel.index_manager

        loop, _ = run(False)
        batch, manager = run(True)
        assert loop == batch
        assert (manager is not None) is indexing
        if indexing:
            # slides neither build nor consult the index
            assert manager.cracker_for("t", "amount") is None
            assert manager.stats.consultations == 0

    def test_group_by_and_join_fall_back_to_reference_path(self, profile):
        # the batch executor must decline actions it does not implement
        session = ExplorationSession(
            profile=profile,
            config=KernelConfig(enable_cache=False, enable_prefetch=False, enable_samples=False),
        )
        session.load_table(
            "t",
            {
                "key": np.arange(500, dtype=np.int64) % 5,
                "value": np.arange(500, dtype=np.int64),
            },
        )
        view = session.show_table("t", height_cm=10.0, width_cm=8.0)
        from repro.core.actions import group_by_action

        session.choose_action(view, group_by_action("key", "value"))
        outcome = session.slide(view, duration=1.0)
        assert len(session.kernel.state_of(view.name).group_by.snapshot()) > 1
        assert outcome.entries_returned > 0


# --------------------------------------------------------------------- #
# a full cache, a long session: batch ≡ per-touch, and never a fallback
# --------------------------------------------------------------------- #
def _plain(value):
    return value.item() if isinstance(value, np.generic) else value


class TestFullCacheParity:
    """A ≥200-gesture seeded session that keeps the touch cache full."""

    STEPS = 270  # ~16% of them change an action, the rest are gestures

    @staticmethod
    def _script(seed):
        """(kind, args) steps; the same list drives both kernels."""
        rng = np.random.default_rng(seed)
        steps = []
        for _ in range(TestFullCacheParity.STEPS):
            roll = rng.random()
            a, b = (float(x) for x in rng.random(2))
            duration = float(rng.uniform(0.2, 0.9))
            if roll < 0.08:
                steps.append(("column_action", int(rng.integers(4))))
            elif roll < 0.60:
                steps.append(("slide", "column", a, b, duration))
            elif roll < 0.70:
                # out, a pause, and back over the same rows: revisits
                steps.append(("back_and_forth", a, b, duration))
            elif roll < 0.78:
                steps.append(("table_action", int(rng.integers(3))))
            elif roll < 0.95:
                steps.append(("slide", "table", a, b, duration))
            else:
                steps.append(("tap", a))
        return steps

    @staticmethod
    def _replay(monkeypatch, profile, steps, batch, capacity):
        from repro.core.actions import (
            aggregate_action,
            group_by_action,
            scan_action,
            select_where_action,
            summary_action,
        )
        from repro.core.batch import BatchSlideExecutor
        from repro.core.kernel import DbTouchKernel

        session = ExplorationSession(
            profile=profile,
            config=KernelConfig(
                batch_execution=batch,
                cache_capacity=capacity,
                latency_budget_s=1e6,
                enable_indexing=False,
            ),
        )
        rng = np.random.default_rng(99)
        session.load_column("c", rng.integers(0, 1_000, size=200_000, dtype=np.int64))
        session.load_table(
            "t",
            {
                "amount": rng.integers(0, 1_000, size=60_000, dtype=np.int64),
                "customer": np.arange(60_000, dtype=np.int64) % 7,
            },
        )
        views = {
            "column": session.show_column("c", height_cm=10.0, width_cm=2.0),
            "table": session.show_table("t", height_cm=10.0, width_cm=8.0, x=4.0),
        }
        column_actions = [
            scan_action(),
            aggregate_action("avg"),
            summary_action(k=6),
            scan_action(Predicate(Comparison.GE, 400)),
        ]
        session.choose_action(views["column"], column_actions[0])
        table_actions = [
            select_where_action(
                "amount", Predicate(Comparison.BETWEEN, 200, upper=700), ["customer"]
            ),
            scan_action(),  # attribute-dependent table scan: per-touch only
            group_by_action("customer", "amount"),  # per-touch only
        ]
        session.choose_action(views["table"], table_actions[0])

        kernel = session.kernel
        executor = kernel._batch_executor
        per_touch_gestures = []  # (supported?) per slide that ran the loop
        batch_results = []
        real_process, real_execute = DbTouchKernel._process_touch, BatchSlideExecutor.execute

        def spy_process(self, state, mapped, event, stride, outcome, join):
            per_touch_gestures.append(executor.supports(state, join))
            return real_process(self, state, mapped, event, stride, outcome, join)

        def spy_execute(self, state, gesture):
            outcome = real_execute(self, state, gesture)
            batch_results.append(outcome)
            return outcome

        with monkeypatch.context() as patch:
            patch.setattr(DbTouchKernel, "_process_touch", spy_process)
            patch.setattr(BatchSlideExecutor, "execute", spy_execute)
            fields = []
            for step in steps:
                kind = step[0]
                if kind == "column_action":
                    session.choose_action(views["column"], column_actions[step[1]])
                elif kind == "table_action":
                    session.choose_action(views["table"], table_actions[step[1]])
                elif kind == "slide":
                    _, view, a, b, duration = step
                    outcome = session.slide(
                        views[view], duration=duration, start_fraction=a, end_fraction=b
                    )
                    fields.append(_deterministic_fields(outcome))
                elif kind == "back_and_forth":
                    _, a, b, duration = step
                    outcome = session.slide_path(
                        views["column"],
                        [
                            SlideSegment(a, b, duration=duration, pause_after=0.2),
                            SlideSegment(b, a, duration=duration),
                        ],
                    )
                    fields.append(_deterministic_fields(outcome))
                else:
                    fields.append(_deterministic_fields(session.tap(views["column"], step[1])))

        cache = kernel.cache
        return dict(
            fields=fields,
            stats=cache.stats,
            slot_keys=cache._keys.tolist(),
            cached_values=[_plain(value) for value in cache._values],
            occupied=len(cache),
            prefetched={
                name: set(kernel.state_of(view.name).prefetched_rowids)
                for name, view in views.items()
            },
            per_touch_gestures=per_touch_gestures,
            batch_results=batch_results,
        )

    @pytest.mark.parametrize("capacity", [8, 64, 512, 4096])
    def test_long_session_on_a_full_cache(self, monkeypatch, profile, capacity):
        steps = self._script(seed=capacity)
        loop = self._replay(monkeypatch, profile, steps, False, capacity)
        batch = self._replay(monkeypatch, profile, steps, True, capacity)

        assert len(loop["fields"]) >= 200
        for index, (a, b) in enumerate(zip(loop["fields"], batch["fields"])):
            assert a == b, f"gesture {index} diverged"
        assert batch["stats"] == loop["stats"]
        assert batch["slot_keys"] == loop["slot_keys"]
        assert batch["cached_values"] == loop["cached_values"]
        assert batch["prefetched"] == loop["prefetched"]
        # the session really kept the cache full and evicting: every
        # insertion filled an empty slot or evicted, and a direct-mapped slot
        # is empty only while no key of the session has hashed to it
        stats = batch["stats"]
        assert batch["occupied"] == stats.insertions - stats.evictions
        assert batch["occupied"] >= 0.9 * capacity
        assert batch["stats"].evictions > capacity
        # every supported slide got an outcome from the executor; only
        # unsupported ones (table scan, group-by) ever reached the loop
        assert batch["batch_results"] and None not in batch["batch_results"]
        assert batch["per_touch_gestures"] and not any(batch["per_touch_gestures"])
        assert not loop["batch_results"]


class TestKernelLifetime:
    def test_a_dropped_session_frees_its_kernel_without_a_collection(self, profile):
        """Reference counting alone frees a dropped session's kernel, and with
        it the columns and indexes it holds: nothing waits for the garbage
        collector's next full pass (the kernel owns its batch executor, so
        the executor must not own the kernel back)."""
        import gc
        import weakref

        gc.disable()
        try:
            session = ExplorationSession(
                profile=profile, config=KernelConfig(latency_budget_s=1e6)
            )
            session.load_column("c", np.arange(50_000, dtype=np.int64))
            view = session.show_column("c", height_cm=10.0)
            session.choose_scan(view)
            session.slide(view, duration=0.5)  # the batch path
            session.select_where(view, Predicate(Comparison.LT, 1_000))
            kernel = weakref.ref(session.kernel)
            column = weakref.ref(session.kernel.catalog.column("c"))
            del session, view
            assert kernel() is None and column() is None
        finally:
            gc.enable()


class _CountedSlots(np.ndarray):
    """A slot array that counts the elements each access reads or writes.

    Indexing counts the elements it selects; a ufunc or an array function
    that takes the whole array counts all of it, so a pass over the slots
    shows up as ``capacity`` reads."""

    counts: dict

    def __getitem__(self, index):
        out = self.view(np.ndarray)[index]
        self.counts["read"] += int(np.size(out))
        return out

    def __setitem__(self, index, value):
        plain = self.view(np.ndarray)
        self.counts["written"] += int(np.size(plain[index]))
        plain[index] = value

    def _plain(self, args):
        for arg in args:
            if isinstance(arg, _CountedSlots):
                self.counts["read"] += arg.size
                yield arg.view(np.ndarray)
            else:
                yield arg

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        return getattr(ufunc, method)(*self._plain(inputs), **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        return func(*self._plain(args), **kwargs)


class _NeverWalkedSet(set):
    """A ``set`` that may be probed and updated but not iterated."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("the slide hot path walked prefetched_rowids")

    __iter__ = copy = __sub__ = __or__ = __and__ = _refuse


class TestHotPathNeverWalksContainers:
    """Deterministic cost guard: a slide looks slots up, it never iterates."""

    @pytest.mark.parametrize("batch", [True, False])
    def test_slide_only_probes_cache_and_prefetched_set(self, profile, batch):
        # at 32 slots the cache evicts; at 65,536 a pass over the slots
        # would dwarf the gesture's events
        for capacity in (32, 1 << 16):
            self._check(profile, batch, capacity)

    @staticmethod
    def _check(profile, batch, capacity):
        session = ExplorationSession(
            profile=profile,
            config=KernelConfig(batch_execution=batch, cache_capacity=capacity),
        )
        session.load_column("c", np.arange(200_000, dtype=np.int64))
        view = session.show_column("c", height_cm=10.0)
        session.choose_scan(view)
        session.slide(view, duration=0.8)  # fills the cache, leaves prefetched rowids
        kernel = session.kernel
        state = kernel.state_of(view.name)
        cache = kernel.cache
        assert len(cache) > 0 and state.prefetched_rowids
        evictions_before = cache.stats.evictions

        counts = {"read": 0, "written": 0}
        for name in ("_keys", "_values"):
            counted = getattr(cache, name).view(_CountedSlots)
            counted.counts = counts
            setattr(cache, name, counted)
        state.prefetched_rowids = _NeverWalkedSet(state.prefetched_rowids)
        with pytest.raises(AssertionError):
            list(state.prefetched_rowids)
        proposals_before = state.prefetcher.prefetches_issued

        outcomes = [
            session.slide(view, duration=0.8),
            session.slide(view, duration=0.6, start_fraction=1.0, end_fraction=0.2),
            session.slide_path(
                view,
                [
                    SlideSegment(0.1, 0.6, duration=0.5, pause_after=0.2),
                    SlideSegment(0.6, 0.1, duration=0.5),
                ],
            ),
        ]
        assert sum(o.cache_hits for o in outcomes) > 0
        assert sum(o.prefetch_hits for o in outcomes) > 0
        # a cache event reads at most two slot elements and writes at most
        # two (its key and its value), whatever the capacity
        reads = sum(o.cache_hits + o.cache_misses for o in outcomes)
        events = reads + state.prefetcher.prefetches_issued - proposals_before
        assert 0 < counts["read"] <= 2 * events
        assert 0 < counts["written"] <= 2 * events
        assert 2 * events < 1 << 16
        assert (cache.stats.evictions > evictions_before) is (capacity == 32)
        # still the guarded containers: updated in place, never rebuilt
        assert type(cache._keys) is _CountedSlots and type(cache._values) is _CountedSlots
        assert type(state.prefetched_rowids) is _NeverWalkedSet
