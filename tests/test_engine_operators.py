"""Unit tests for the incremental group-by operator."""

import pytest

from repro.errors import ExecutionError
from repro.engine.groupby import IncrementalGroupBy


class TestIncrementalGroupBy:
    def test_groups_accumulate(self):
        op = IncrementalGroupBy("avg")
        op.on_touch(0, ("a", 2.0))
        op.on_touch(1, ("a", 4.0))
        result = op.on_touch(2, ("b", 10.0))
        assert result.key == "b" and result.value == 10.0
        assert len(op.snapshot()) == 2
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
        assert op.snapshot() == []
