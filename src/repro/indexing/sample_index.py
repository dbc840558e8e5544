"""Per-sample-level indexes.

The paper suggests that when a hierarchy of samples exists, dbTouch can
maintain a separate index for each sample level, treating each copy
independently depending on how often index support is needed for that
copy.  The :class:`SampleLevelIndex` below wraps a sorted index per level,
built lazily on first use, and answers value-range lookups at whichever
granularity the gesture is currently exploring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SampleError
from repro.storage.sample import SampleHierarchy, SampleLevel


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
        self._sorted_orders: dict[int, np.ndarray] = {}
        self.builds = 0

    # ------------------------------------------------------------------ #
    # index construction
    # ------------------------------------------------------------------ #
    def _order_for(self, level: SampleLevel) -> np.ndarray:
        if level.level not in self._sorted_orders:
            self._sorted_orders[level.level] = np.argsort(
                level.column.values, kind="stable"
            )
            self.builds += 1
        return self._sorted_orders[level.level]

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def lookup_range(
        self,
        low: float,
        high: float,
        stride_hint: int = 1,
    ) -> RangeLookupResult:
        """Find sample entries with values in ``[low, high]``.

        The lookup is served by the sample level matching ``stride_hint``,
        i.e. the same level a slide at that granularity would read, so the
        index scan is the equivalent of an index-supported slide.
        """
        if high < low:
            raise SampleError("lookup_range requires low <= high")
        level = self.hierarchy.level_for_stride(stride_hint)
        order = self._order_for(level)
        values_sorted = level.column.values[order]
        left = int(np.searchsorted(values_sorted, low, side="left"))
        right = int(np.searchsorted(values_sorted, high, side="right"))
        sample_rowids = np.sort(order[left:right])
        base_rowids = sample_rowids * level.step
        return RangeLookupResult(
            level=level.level,
            step=level.step,
            sample_rowids=sample_rowids,
            base_rowids=base_rowids,
        )
