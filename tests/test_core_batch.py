"""Unit and parity tests for the vectorized batch slide machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import dedupe_slide_batch
from repro.core.kernel import KernelConfig
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
# results
# --------------------------------------------------------------------- #
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
    dict(enable_samples=False),
    dict(enable_samples=False, enable_indexing=False),
    dict(enable_samples=True, sample_factor=2),
    dict(enable_samples=True),
    dict(enable_samples=True, sample_factor=8),
]


def _deterministic_fields(outcome):
    return dict(
        rowids=outcome.rowids_touched.tolist(),
        tuples=outcome.tuples_examined,
        entries=outcome.entries_returned,
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

    @pytest.mark.parametrize("indexing", [False, True])
    def test_select_where_cache_off_parity(self, profile, indexing):
        # with no value cache in front of it, a range-filtered select-where
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
            config=KernelConfig(enable_samples=False),
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
# a long session: batch ≡ per-touch, and never a fallback
# --------------------------------------------------------------------- #
class TestLongSessionParity:
    """A ≥200-gesture seeded session of every action, on both paths."""

    STEPS = 270  # ~16% of them change an action, the rest are gestures

    @staticmethod
    def _script(seed):
        """(kind, args) steps; the same list drives both kernels."""
        rng = np.random.default_rng(seed)
        steps = []
        for _ in range(TestLongSessionParity.STEPS):
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
    def _replay(monkeypatch, profile, steps, batch):
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

        return dict(
            fields=fields,
            per_touch_gestures=per_touch_gestures,
            batch_results=batch_results,
        )

    @pytest.mark.parametrize("seed", [8, 64, 512, 4096])
    def test_long_session_matches_the_reference_loop(self, monkeypatch, profile, seed):
        steps = self._script(seed=seed)
        loop = self._replay(monkeypatch, profile, steps, False)
        batch = self._replay(monkeypatch, profile, steps, True)

        assert len(loop["fields"]) >= 200
        for index, (a, b) in enumerate(zip(loop["fields"], batch["fields"])):
            assert a == b, f"gesture {index} diverged"
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
