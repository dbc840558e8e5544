"""Selection predicates (the "where" action attached to a slide).

The user can enable a *where* action on a column so that, as the slide
gesture delivers tuple identifiers, only the tuples satisfying the
predicate flow to the downstream operators.  Predicates are small, typed
objects that evaluate both single values and numpy arrays so they can be
applied per touch and to whole summary windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

from repro.errors import QueryError


class Comparison(Enum):
    """Supported comparison operators for predicates."""

    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    BETWEEN = "between"


@dataclass(frozen=True)
class Predicate:
    """A single-column predicate, e.g. ``value > 100`` or ``50 <= value <= 80``.

    Attributes
    ----------
    comparison:
        The comparison operator.
    operand:
        The comparison constant (for BETWEEN, the lower bound).
    upper:
        The upper bound when ``comparison`` is BETWEEN.
    """

    comparison: Comparison
    operand: float
    upper: float | None = None

    def __post_init__(self) -> None:
        if self.comparison is Comparison.BETWEEN and self.upper is None:
            raise QueryError("BETWEEN predicates require an upper bound")
        if (
            self.comparison is Comparison.BETWEEN
            and self.upper is not None
            and self.upper < self.operand
        ):
            raise QueryError("BETWEEN upper bound must be >= lower bound")

    def matches(self, value: Any) -> bool:
        """Evaluate the predicate on a single scalar value."""
        if self.comparison is Comparison.EQ:
            return bool(value == self.operand)
        if self.comparison is Comparison.NE:
            return bool(value != self.operand)
        if self.comparison is Comparison.LT:
            return bool(value < self.operand)
        if self.comparison is Comparison.LE:
            return bool(value <= self.operand)
        if self.comparison is Comparison.GT:
            return bool(value > self.operand)
        if self.comparison is Comparison.GE:
            return bool(value >= self.operand)
        return bool(self.operand <= value <= self.upper)  # BETWEEN

    def mask(self, values: np.ndarray) -> np.ndarray:
        """Evaluate the predicate on an array, returning a boolean mask."""
        arr = np.asarray(values)
        if self.comparison is Comparison.EQ:
            return arr == self.operand
        if self.comparison is Comparison.NE:
            return arr != self.operand
        if self.comparison is Comparison.LT:
            return arr < self.operand
        if self.comparison is Comparison.LE:
            return arr <= self.operand
        if self.comparison is Comparison.GT:
            return arr > self.operand
        if self.comparison is Comparison.GE:
            return arr >= self.operand
        return (arr >= self.operand) & (arr <= self.upper)  # BETWEEN

    def describe(self) -> str:
        """Human-readable form, e.g. ``"value > 100"``."""
        if self.comparison is Comparison.BETWEEN:
            return f"{self.operand} <= value <= {self.upper}"
        return f"value {self.comparison.value} {self.operand}"
