"""Unit tests for the base touch operators, group-by and online aggregation."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.engine.groupby import IncrementalGroupBy
from repro.engine.online_agg import OnlineAggregator
from repro.engine.operators import LimitOperator, ProjectOperator, ScanOperator


class TestScanOperator:
    def test_passthrough(self):
        op = ScanOperator()
        assert op.on_touch(0, 42) == 42
        assert op.stats.results_emitted == 1

    def test_finish_is_none(self):
        assert ScanOperator().finish() is None


class TestProjectOperator:
    def test_projects_attributes(self):
        op = ProjectOperator(["a"])
        assert op.on_touch(0, {"a": 1, "b": 2}) == {"a": 1}

    def test_missing_attribute(self):
        op = ProjectOperator(["z"])
        with pytest.raises(ExecutionError):
            op.on_touch(0, {"a": 1})

    def test_requires_dict(self):
        op = ProjectOperator(["a"])
        with pytest.raises(ExecutionError):
            op.on_touch(0, 5)

    def test_empty_attribute_list_rejected(self):
        with pytest.raises(ExecutionError):
            ProjectOperator([])


class TestLimitOperator:
    def test_stops_after_limit(self):
        op = LimitOperator(2)
        assert op.on_touch(0, "a") == "a"
        assert op.on_touch(1, "b") == "b"
        assert op.on_touch(2, "c") is None
        assert op.exhausted

    def test_reset_restores_budget(self):
        op = LimitOperator(1)
        op.on_touch(0, "a")
        op.reset()
        assert op.on_touch(1, "b") == "b"

    def test_negative_limit_rejected(self):
        with pytest.raises(ExecutionError):
            LimitOperator(-1)


class TestIncrementalGroupBy:
    def test_groups_accumulate(self):
        op = IncrementalGroupBy("avg")
        op.on_touch(0, ("a", 2.0))
        op.on_touch(1, ("a", 4.0))
        result = op.on_touch(2, ("b", 10.0))
        assert result.key == "b" and result.value == 10.0
        assert op.num_groups == 2
        assert op.group("a").value == pytest.approx(3.0)
        assert op.group("a").count == 2

    def test_snapshot_sorted_and_finish(self):
        op = IncrementalGroupBy("sum")
        op.on_touch(0, (2, 1.0))
        op.on_touch(1, (1, 1.0))
        snapshot = op.snapshot()
        assert [g.key for g in snapshot] == [1, 2]
        assert op.finish() == snapshot

    def test_unknown_group(self):
        op = IncrementalGroupBy()
        with pytest.raises(ExecutionError):
            op.group("missing")

    def test_requires_pairs(self):
        op = IncrementalGroupBy()
        with pytest.raises(ExecutionError):
            op.on_touch(0, 5)

    def test_reset(self):
        op = IncrementalGroupBy()
        op.on_touch(0, ("a", 1.0))
        op.reset()
        assert op.num_groups == 0


class TestOnlineAggregator:
    def test_interval_narrows_with_more_samples(self):
        rng = np.random.default_rng(1)
        population = rng.normal(50, 10, size=100_000)
        agg = OnlineAggregator(population_size=len(population), target="mean")
        agg.update_many(population[:100])
        width_small = agg.current().relative_halfwidth
        agg.update_many(population[100:5000])
        width_large = agg.current().relative_halfwidth
        assert width_large < width_small

    def test_estimate_close_to_truth(self):
        rng = np.random.default_rng(2)
        population = rng.normal(100, 5, size=50_000)
        agg = OnlineAggregator(population_size=len(population), target="mean", confidence=0.99)
        # an evenly strided sample, as a steady slide over the column yields
        agg.update_many(population[::25])
        est = agg.current()
        assert est.low <= population.mean() <= est.high

    def test_sum_target_scales(self):
        agg = OnlineAggregator(population_size=1000, target="sum")
        agg.update_many([2.0, 2.0, 2.0])
        assert agg.current().estimate == pytest.approx(2000.0)

    def test_empty_estimate(self):
        agg = OnlineAggregator(population_size=10)
        est = agg.current()
        assert est.sample_size == 0
        assert est.relative_halfwidth == float("inf")

    def test_confident_within(self):
        agg = OnlineAggregator(population_size=1000)
        agg.update_many(np.full(200, 5.0))
        assert agg.confident_within(0.01)
        with pytest.raises(ExecutionError):
            agg.confident_within(0.0)

    def test_validation(self):
        with pytest.raises(ExecutionError):
            OnlineAggregator(population_size=0)
        with pytest.raises(ExecutionError):
            OnlineAggregator(population_size=10, target="median")
        with pytest.raises(ExecutionError):
            OnlineAggregator(population_size=10, confidence=0.5)

    def test_on_touch_scalar_and_window(self):
        agg = OnlineAggregator(population_size=100)
        agg.on_touch(0, 1.0)
        est = agg.on_touch(1, np.array([3.0, 5.0]))
        assert est.sample_size == 3
        assert est.estimate == pytest.approx(3.0)

    def test_full_population_gives_tight_interval(self):
        values = np.arange(100, dtype=np.float64)
        agg = OnlineAggregator(population_size=100)
        agg.update_many(values)
        est = agg.current()
        # finite-population correction collapses the interval when n == N
        assert est.high - est.low == pytest.approx(0.0, abs=1e-9)
