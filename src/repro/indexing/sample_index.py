"""Per-sample-level indexes.

The paper suggests that when a hierarchy of samples exists, dbTouch can
maintain a separate index for each sample level, treating each copy
independently depending on how often index support is needed for that
copy.  The :class:`SampleLevelIndex` below keeps one
:class:`~repro.indexing.sorted_index.SortedIndex` per level, built lazily
on first use, and answers value-range lookups at whichever granularity
the gesture is currently exploring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.filter import Comparison, Predicate
from repro.errors import SampleError
from repro.indexing.manager import predicate_range
from repro.indexing.sorted_index import SortedIndex
from repro.storage.sample import SampleHierarchy


@dataclass(frozen=True)
class RangeLookupResult:
    """The outcome of a value-range lookup against one sample level."""

    level: int
    step: int
    sample_rowids: np.ndarray
    base_rowids: np.ndarray

    @property
    def count(self) -> int:
        """Number of matching sample entries."""
        return int(len(self.sample_rowids))


class SampleLevelIndex:
    """Lazily built sorted indexes, one per sample-hierarchy level."""

    def __init__(self, hierarchy: SampleHierarchy):
        self.hierarchy = hierarchy
        self._indexes: dict[int, SortedIndex] = {}
        self.builds = 0

    def lookup_range(
        self,
        low: float,
        high: float,
        stride_hint: int = 1,
    ) -> RangeLookupResult:
        """Find sample entries with values in ``[low, high]`` (finite bounds).

        The lookup is served by the sample level matching ``stride_hint``,
        i.e. the same level a slide at that granularity would read, so the
        index scan is the equivalent of an index-supported slide.
        """
        if high < low:
            raise SampleError("lookup_range requires low <= high")
        level = self.hierarchy.level_for_stride(stride_hint)
        bounds = predicate_range(
            Predicate(Comparison.BETWEEN, low, upper=high), level.column.dtype.numpy_dtype
        )
        if bounds is None:
            raise SampleError("lookup_range requires finite bounds")
        index = self._indexes.get(level.level)
        if index is None:
            index = self._indexes[level.level] = SortedIndex(level.column)
            self.builds += 1
        sample_rowids = index.rows_in_range(*bounds)[0]
        return RangeLookupResult(
            level=level.level,
            step=level.step,
            sample_rowids=sample_rowids,
            base_rowids=sample_rowids * level.step,
        )
