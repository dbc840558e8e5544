"""Baselines: the monolithic DBMS and its SQL front end.

These are the comparison points the paper positions dbTouch against —
traditional engines that control the data flow and consume their whole
input before the user sees an answer.
"""

from repro.baseline.engine import MonolithicEngine, QueryResult
from repro.baseline.sql import SqlInterface

__all__ = [
    "MonolithicEngine",
    "QueryResult",
    "SqlInterface",
]
