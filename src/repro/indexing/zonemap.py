"""Zone maps: per-block min/max metadata over a column.

Zone maps are the lightest useful index for exploration: they answer
"could this block contain values matching the predicate?" without touching
the data.  dbTouch uses them to colour data objects (hot/cold regions) and
to let scripted explorers skip regions that cannot contain what they are
looking for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


from repro.errors import StorageError
from repro.engine.filter import Predicate
from repro.storage.column import Column


@dataclass(frozen=True)
class Zone:
    """Summary of one block of consecutive rowids.

    The envelope keeps the block's native scalar type: integer columns
    carry exact ``int`` bounds, float columns carry ``float``.  Coercing
    int64 bounds through float64 would round values beyond 2**53 to the
    nearest representable double — and a max rounded *down* (or a min
    rounded *up*) makes :meth:`may_contain` prune a block that actually
    holds matches, turning an optimization into wrong answers.  Python
    compares int to float exactly, so mixed-type predicates stay correct.
    """

    start: int
    stop: int
    minimum: float | int
    maximum: float | int

    @property
    def num_rows(self) -> int:
        """Number of rows covered by this zone."""
        return self.stop - self.start

    def may_contain(self, predicate: Predicate) -> bool:
        """Whether the zone could contain a value satisfying ``predicate``.

        Conservative: returns True whenever the predicate range overlaps the
        zone's [min, max] envelope.  A zone whose envelope is NaN (it holds
        at least one NaN value, which poisons ``block.min()``/``max()``)
        has an *unknown* envelope: every comparison against NaN is False,
        so the inclusion tests below would wrongly prune it — such a zone
        is always reported as a candidate instead.
        """
        # evaluate the predicate on the envelope's corners plus overlap logic
        from repro.engine.filter import Comparison  # local import to avoid cycle at module load

        if math.isnan(self.minimum) or math.isnan(self.maximum):
            return True  # unknown envelope: never prune
        comparison = predicate.comparison
        if comparison is Comparison.EQ:
            return self.minimum <= predicate.operand <= self.maximum
        if comparison is Comparison.NE:
            return not (self.minimum == self.maximum == predicate.operand)
        if comparison is Comparison.LT:
            return self.minimum < predicate.operand
        if comparison is Comparison.LE:
            return self.minimum <= predicate.operand
        if comparison is Comparison.GT:
            return self.maximum > predicate.operand
        if comparison is Comparison.GE:
            return self.maximum >= predicate.operand
        # BETWEEN
        return not (self.maximum < predicate.operand or self.minimum > predicate.upper)


class ZoneMap:
    """Min/max summaries for fixed-size blocks of a column."""

    def __init__(self, column: Column, block_rows: int = 4096):
        if block_rows <= 0:
            raise StorageError("block_rows must be positive")
        if not column.is_numeric:
            raise StorageError("zone maps require a numeric column")
        self.column = column
        self.block_rows = block_rows
        self._zones: list[Zone] = []
        self._build()

    def _build(self) -> None:
        values = self.column.values
        n = len(values)
        for start in range(0, n, self.block_rows):
            stop = min(n, start + self.block_rows)
            block = values[start:stop]
            # .item() preserves the native scalar: exact int for integer
            # dtypes (no 2**53 float64 rounding), float for float dtypes
            self._zones.append(
                Zone(
                    start=start,
                    stop=stop,
                    minimum=block.min().item(),
                    maximum=block.max().item(),
                )
            )

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def zones(self) -> list[Zone]:
        """All zones, in rowid order."""
        return list(self._zones)

    # ------------------------------------------------------------------ #
    # pruning
    # ------------------------------------------------------------------ #
    def candidate_zones(self, predicate: Predicate) -> list[Zone]:
        """Zones that may contain matches for ``predicate``."""
        return [z for z in self._zones if z.may_contain(predicate)]

    def pruned_fraction(self, predicate: Predicate) -> float:
        """Fraction of rows that can be skipped outright for ``predicate``."""
        total = len(self.column)
        if not total:
            return 0.0
        kept = sum(z.num_rows for z in self.candidate_zones(predicate))
        return 1.0 - kept / total
