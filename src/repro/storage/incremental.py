"""Incremental physical-layout conversion (the rotate gesture, done lazily).

Rotating a table from row-store to column-store (or back) requires a full
copy of the data — an expensive, blocking operation that would break the
interactive feel.  The paper proposes converting *in steps*: first convert
only a sample so the user immediately gets a new object to query, then
pull more data across from the old layout as the user asks for more
detail (e.g. with zoom-in gestures).

:class:`IncrementalRotation` models that process: it exposes a target
layout that is progressively filled from the source layout, tracks how
many cells have been converted, and can answer reads at any point by
falling back to the source layout for not-yet-converted rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import LayoutError
from repro.storage.layout import (
    ColumnStoreLayout,
    LayoutKind,
    PhysicalLayout,
    RowStoreLayout,
    conversion_cost_cells,
)
from repro.storage.table import Table


def _layout(kind: LayoutKind, table: Table) -> PhysicalLayout:
    return RowStoreLayout(table) if kind is LayoutKind.ROW_STORE else ColumnStoreLayout(table)


@dataclass
class RotationProgress:
    """Progress accounting for an in-flight incremental rotation."""

    total_rows: int
    converted_rows: int = 0
    steps_taken: int = 0
    cells_copied: int = 0
    reads_from_target: int = 0
    reads_from_source: int = 0

    @property
    def fraction_converted(self) -> float:
        """Fraction of rows already available in the target layout."""
        if self.total_rows == 0:
            return 1.0
        return self.converted_rows / self.total_rows

    @property
    def complete(self) -> bool:
        """Whether every row has been converted."""
        return self.converted_rows >= self.total_rows


@dataclass
class _ConvertedRange:
    """A contiguous range of rowids already present in the target layout."""

    start: int
    stop: int

    def __contains__(self, rowid: int) -> bool:
        return self.start <= rowid < self.stop


class IncrementalRotation:
    """Lazily rotate ``table`` from one physical layout to the other.

    Parameters
    ----------
    table:
        The table being rotated.
    source_kind:
        The current layout kind (row-store or column-store).
    step_rows:
        How many rows each :meth:`convert_step` call copies across.
    """

    def __init__(
        self,
        table: Table,
        source_kind: LayoutKind,
        step_rows: int = 4096,
    ) -> None:
        if source_kind not in (LayoutKind.ROW_STORE, LayoutKind.COLUMN_STORE):
            raise LayoutError("incremental rotation supports row-store and column-store sources")
        if step_rows <= 0:
            raise LayoutError("step_rows must be positive")
        self.table = table
        self.source_kind = source_kind
        self.target_kind = (
            LayoutKind.COLUMN_STORE
            if source_kind is LayoutKind.ROW_STORE
            else LayoutKind.ROW_STORE
        )
        self.step_rows = step_rows
        self.progress = RotationProgress(total_rows=len(table))
        self._converted: list[_ConvertedRange] = []

    # ------------------------------------------------------------------ #
    # the two layouts, built on first read
    # ------------------------------------------------------------------ #
    # The target layout is materialized over the same logical table; the
    # simulation models *when* data becomes readable from the target by
    # tracking converted ranges rather than physically re-copying bytes.
    # Neither layout is built by the rotate gesture itself: a row store
    # packs the whole table into one matrix, a copy the size of the table.
    @cached_property
    def source(self) -> PhysicalLayout:
        """The layout being rotated away from."""
        return _layout(self.source_kind, self.table)

    @cached_property
    def target(self) -> PhysicalLayout:
        """The layout being rotated into."""
        return _layout(self.target_kind, self.table)

    # ------------------------------------------------------------------ #
    # conversion
    # ------------------------------------------------------------------ #
    def convert_step(self, rows: int | None = None) -> RotationProgress:
        """Convert the next ``rows`` (default ``step_rows``) rows.

        Returns the updated :class:`RotationProgress`.
        """
        if self.progress.complete:
            return self.progress
        n = self.step_rows if rows is None else max(1, int(rows))
        start = self.progress.converted_rows
        stop = min(self.progress.total_rows, start + n)
        self._converted.append(_ConvertedRange(start, stop))
        copied = (stop - start) * self.table.num_columns
        self.progress.converted_rows = stop
        self.progress.steps_taken += 1
        self.progress.cells_copied += copied
        return self.progress

    def convert_rows_for_sample(self, sample_fraction: float) -> RotationProgress:
        """Convert enough rows to cover ``sample_fraction`` of the table.

        This is the "create the new format for only a sample of the data"
        step the paper describes: the user immediately gets a queryable
        object while the bulk of the conversion is deferred.
        """
        if not 0.0 < sample_fraction <= 1.0:
            raise LayoutError("sample_fraction must be in (0, 1]")
        wanted = int(np.ceil(self.progress.total_rows * sample_fraction))
        missing = max(0, wanted - self.progress.converted_rows)
        if missing:
            self.convert_step(missing)
        return self.progress

    def convert_all(self) -> RotationProgress:
        """Convert every remaining row (equivalent to a full, blocking rotate)."""
        while not self.progress.complete:
            self.convert_step()
        return self.progress

    @property
    def full_conversion_cost_cells(self) -> int:
        """Cells a full (non-incremental) conversion would copy up front."""
        return conversion_cost_cells(self.table)

    # ------------------------------------------------------------------ #
    # reads during conversion
    # ------------------------------------------------------------------ #
    def _is_converted(self, rowid: int) -> bool:
        return any(rowid in r for r in self._converted)

    def read_tuple(self, rowid: int) -> dict[str, object]:
        """Read a full tuple, preferring the target layout when converted."""
        if self._is_converted(rowid):
            self.progress.reads_from_target += 1
            return self.target.read_tuple(rowid)
        self.progress.reads_from_source += 1
        return self.source.read_tuple(rowid)
