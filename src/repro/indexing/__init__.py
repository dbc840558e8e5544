"""Indexing support: zone maps, touch-driven cracking, per-sample indexes.

The adaptive tier (:class:`IndexManager`) lives here too: it owns
per-column cracker/zonemap state, is refined by the gestures the kernel
executes and consulted by bulk range selections — see
:mod:`repro.indexing.manager`.
"""

from repro.indexing.cracking import CrackerIndex, CrackerState
from repro.indexing.manager import IndexManager, RangeSelection
from repro.indexing.sample_index import SampleLevelIndex
from repro.indexing.zonemap import Zone, ZoneMap

__all__ = [
    "CrackerIndex",
    "CrackerState",
    "IndexManager",
    "RangeSelection",
    "SampleLevelIndex",
    "Zone",
    "ZoneMap",
]
