"""Indexing support: zone maps, the value-sorted index, per-sample indexes.

The adaptive tier (:class:`IndexManager`) lives here too: it owns one
:class:`SortedIndex` per consulted numeric column and answers the bulk
range selections the kernel runs — see :mod:`repro.indexing.manager`.
"""

from repro.indexing.manager import IndexManager, RangeSelection
from repro.indexing.sample_index import SampleLevelIndex
from repro.indexing.sorted_index import SortedIndex
from repro.indexing.zonemap import Zone, ZoneMap

__all__ = [
    "IndexManager",
    "RangeSelection",
    "SampleLevelIndex",
    "SortedIndex",
    "Zone",
    "ZoneMap",
]
