"""Indexing support: the value-sorted index and the adaptive tier.

The adaptive tier (:class:`IndexManager`) owns one :class:`SortedIndex`
per consulted numeric column and answers the bulk range selections the
kernel runs — see :mod:`repro.indexing.manager`.
"""

from repro.indexing.manager import IndexManager, RangeSelection
from repro.indexing.sorted_index import SortedIndex

__all__ = [
    "IndexManager",
    "RangeSelection",
    "SortedIndex",
]
