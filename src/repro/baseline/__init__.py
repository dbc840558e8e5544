"""Baselines: the monolithic DBMS and the visual-analytics shim.

These are the comparison points the paper positions dbTouch against —
traditional engines that control the data flow and consume their whole
input, regardless of whether the queries are typed as SQL or assembled by
drag-and-drop in a Polaris/Tableau-style interface.
"""

from repro.baseline.engine import MonolithicEngine, QueryResult
from repro.baseline.sql import SqlInterface

__all__ = [
    "MonolithicEngine",
    "QueryResult",
    "SqlInterface",
]
