"""Touch-driven operator engine.

Operators are push-based: the user's touch plays the role of the classic
``next()`` call, and every operator does a small, bounded amount of work per
touch.  The subpackage provides running aggregates, selection predicates,
non-blocking joins and incremental group-by.
"""

from repro.engine.aggregate import AggregateKind, RunningAggregate, aggregate_window, make_aggregate
from repro.engine.filter import Comparison, Predicate
from repro.engine.groupby import IncrementalGroupBy
from repro.engine.join import BlockingHashJoin, SymmetricHashJoin
from repro.engine.operators import OperatorStats, TouchOperator

__all__ = [
    "AggregateKind",
    "BlockingHashJoin",
    "Comparison",
    "IncrementalGroupBy",
    "OperatorStats",
    "Predicate",
    "RunningAggregate",
    "SymmetricHashJoin",
    "TouchOperator",
    "aggregate_window",
    "make_aggregate",
]
