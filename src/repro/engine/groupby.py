"""Incremental group-by.

Hash-based grouping is blocking in a traditional engine.  In dbTouch the
grouping state is updated per touched tuple, so partial group aggregates
are always available for display and refine continuously as the gesture
covers more data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from repro.errors import ExecutionError
from repro.engine.aggregate import AggregateKind, RunningAggregate, make_aggregate
from repro.engine.operators import TouchOperator


@dataclass(frozen=True)
class GroupResult:
    """A snapshot of one group's running aggregate."""

    key: Hashable
    value: float | None
    count: int


class IncrementalGroupBy(TouchOperator):
    """Group touched tuples by a key and keep one running aggregate per group.

    Parameters
    ----------
    aggregate_kind:
        Which aggregate to maintain per group (default AVG, the paper's
        default summary aggregation).
    """

    name = "group-by"

    def __init__(self, aggregate_kind: AggregateKind | str = AggregateKind.AVG):
        super().__init__()
        self._kind = aggregate_kind
        self._groups: dict[Hashable, RunningAggregate] = {}

    def on_touch(self, rowid: int, value: Any) -> Any:
        """Ingest one (key, value) pair delivered by a touch.

        ``value`` must be a 2-tuple ``(group_key, measure)``; the group's
        running aggregate is updated and its new snapshot returned.
        """
        if not isinstance(value, tuple) or len(value) != 2:
            raise ExecutionError("IncrementalGroupBy expects (group_key, measure) per touch")
        key, measure = value
        if key not in self._groups:
            self._groups[key] = make_aggregate(self._kind)
        agg = self._groups[key]
        agg.on_touch(rowid, measure)
        self.stats.record(tuples=1, results=1)
        return GroupResult(key=key, value=agg.current(), count=agg.count)

    # ------------------------------------------------------------------ #
    # state inspection
    # ------------------------------------------------------------------ #
    def group(self, key: Hashable) -> GroupResult:
        """Return the current snapshot of one group."""
        if key not in self._groups:
            raise ExecutionError(f"no group with key {key!r} has been touched yet")
        agg = self._groups[key]
        return GroupResult(key=key, value=agg.current(), count=agg.count)

    def snapshot(self) -> list[GroupResult]:
        """Return current snapshots of every group, sorted by key."""
        results = [
            GroupResult(key=key, value=agg.current(), count=agg.count)
            for key, agg in self._groups.items()
        ]
        return sorted(results, key=lambda g: (str(type(g.key)), g.key))

    def finish(self) -> list[GroupResult]:
        return self.snapshot()

    def reset(self) -> None:
        super().reset()
        self._groups.clear()
