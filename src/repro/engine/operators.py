"""Operator framework for touch-driven query processing.

Traditional database engines pull data through operators with a ``next()``
call that the *engine* controls.  In dbTouch the equivalent of ``next()``
is the user's touch: every touch delivers one tuple identifier, and every
active operator consumes that identifier.  Operators are therefore written
in push style — :meth:`TouchOperator.on_touch` is called once per touch —
and must do a small, bounded amount of work per call so response times
remain interactive regardless of data size.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any


@dataclass
class OperatorStats:
    """Per-operator accounting shared by all touch operators."""

    touches_processed: int = 0
    tuples_examined: int = 0
    results_emitted: int = 0

    def record(self, tuples: int, results: int) -> None:
        """Record the effect of one touch."""
        self.touches_processed += 1
        self.tuples_examined += tuples
        self.results_emitted += results

    def record_batch(self, touches: int, tuples: int, results: int) -> None:
        """Record the effect of a whole batch of touches at once."""
        self.touches_processed += touches
        self.tuples_examined += tuples
        self.results_emitted += results


class TouchOperator(ABC):
    """Base class for operators driven one touch at a time.

    Subclasses implement :meth:`on_touch`, which receives the rowid the
    touch mapped to (plus the value(s) read at that rowid) and returns the
    operator's output for this touch, or ``None`` when the touch produces
    no visible output.
    """

    name: str = "operator"

    def __init__(self) -> None:
        self.stats = OperatorStats()

    @abstractmethod
    def on_touch(self, rowid: int, value: Any) -> Any:
        """Process the data entry delivered by one touch."""

    def reset(self) -> None:
        """Clear all operator state (a new query session starts)."""
        self.stats = OperatorStats()
