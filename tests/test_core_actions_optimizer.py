"""Unit tests for query actions and the adaptive optimizer."""

import pytest

from repro.core.actions import (
    ActionKind,
    QueryAction,
    aggregate_action,
    group_by_action,
    join_action,
    scan_action,
    summary_action,
)
from repro.core.optimizer import AdaptiveOptimizer
from repro.engine.aggregate import AggregateKind
from repro.engine.filter import Comparison, Predicate
from repro.errors import OptimizationError, QueryError


class TestQueryActions:
    def test_scan_default(self):
        action = scan_action()
        assert action.kind is ActionKind.SCAN
        assert action.predicate is None

    def test_aggregate_by_name(self):
        action = aggregate_action("max")
        assert action.kind is ActionKind.AGGREGATE
        assert action.aggregate is AggregateKind.MAX

    def test_summary_defaults(self):
        action = summary_action(k=10)
        assert action.kind is ActionKind.SUMMARY
        assert action.summary_k == 10
        assert action.aggregate is AggregateKind.AVG

    def test_summary_negative_k_rejected(self):
        with pytest.raises(QueryError):
            summary_action(k=-1)

    def test_group_by_requires_attributes(self):
        action = group_by_action("cat", "value", aggregate="sum")
        assert action.group_key_attribute == "cat"
        with pytest.raises(QueryError):
            QueryAction(kind=ActionKind.GROUP_BY)

    def test_join_requires_partner(self):
        action = join_action("other")
        assert action.join_partner == "other"
        with pytest.raises(QueryError):
            QueryAction(kind=ActionKind.JOIN)

    def test_describe_mentions_key_facts(self):
        action = summary_action(k=5, aggregate="max", predicate=Predicate(Comparison.GT, 3))
        text = action.describe()
        assert "summary" in text and "max" in text and "k=5" in text and "where" in text
        assert "with other" in join_action("other").describe()


class TestAdaptiveOptimizer:
    def test_budget_violations_shrink_summary_window(self):
        optimizer = AdaptiveOptimizer(latency_budget_s=0.01, base_summary_k=8)
        for _ in range(4):
            optimizer.observe_touch(latency_s=0.05)
        assert optimizer.current_summary_k < 8
        assert optimizer.budget_violations == 4

    def test_window_recovers_with_slack(self):
        optimizer = AdaptiveOptimizer(latency_budget_s=0.01, base_summary_k=8)
        optimizer.observe_touch(latency_s=0.05)
        shrunk = optimizer.current_summary_k
        for _ in range(8):
            optimizer.observe_touch(latency_s=0.001)
        assert optimizer.current_summary_k > shrunk
        assert optimizer.current_summary_k <= 8

    def test_reset(self):
        optimizer = AdaptiveOptimizer(latency_budget_s=0.01)
        optimizer.observe_touch(latency_s=0.1)
        optimizer.reset()
        assert optimizer.budget_violations == 0
        assert optimizer.current_summary_k == optimizer.base_summary_k

    def test_validation(self):
        with pytest.raises(OptimizationError):
            AdaptiveOptimizer(latency_budget_s=0.0)
        with pytest.raises(OptimizationError):
            AdaptiveOptimizer(base_summary_k=-1)
        optimizer = AdaptiveOptimizer()
        with pytest.raises(OptimizationError):
            optimizer.observe_touch(latency_s=-0.1)
