"""Physical layouts: column-store and row-store matrices.

The paper's prototype stores data in dense fixed-width matrices; each
matrix holds one or more columns.  The *rotate* gesture switches a table
between a row-oriented and a column-oriented physical design.  This module
implements both layouts and the cost accounting that the rotation
benchmarks use; :mod:`repro.storage.incremental` converts between them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum

import numpy as np

from repro.storage.table import Table


class LayoutKind(Enum):
    """The physical design currently materialized for a table."""

    COLUMN_STORE = "column-store"
    ROW_STORE = "row-store"


class PhysicalLayout(ABC):
    """Common interface over materialized physical designs.

    A layout answers point and range reads in terms of tuple identifiers
    and attribute names, and reports how many *cells* (fixed-width fields)
    each access touches so benchmarks can compare designs without relying
    on wall-clock noise alone.
    """

    kind: LayoutKind

    def __init__(self, table: Table):
        self.table = table
        self.cells_touched = 0

    @property
    def num_rows(self) -> int:
        """Number of tuples stored."""
        return len(self.table)

    @property
    def num_columns(self) -> int:
        """Number of attributes stored."""
        return self.table.num_columns

    def reset_counters(self) -> None:
        """Zero the access accounting counters."""
        self.cells_touched = 0

    @abstractmethod
    def read_cell(self, rowid: int, column_name: str):
        """Read one attribute value of one tuple."""

    @abstractmethod
    def read_tuple(self, rowid: int) -> dict[str, object]:
        """Read a full tuple (all attributes of one rowid)."""

    @abstractmethod
    def read_column_range(self, column_name: str, start: int, stop: int) -> np.ndarray:
        """Read a contiguous rowid range of a single attribute."""


class ColumnStoreLayout(PhysicalLayout):
    """One dense array per attribute (the default dbTouch layout)."""

    kind = LayoutKind.COLUMN_STORE

    def __init__(self, table: Table):
        super().__init__(table)
        self._arrays = {c.name: c.values for c in table.columns}

    def read_cell(self, rowid: int, column_name: str):
        self.cells_touched += 1
        return self._arrays[column_name][rowid]

    def read_tuple(self, rowid: int) -> dict[str, object]:
        # tuple reconstruction touches one cell per attribute, in separate arrays
        self.cells_touched += self.num_columns
        return {name: arr[rowid] for name, arr in self._arrays.items()}

    def read_column_range(self, column_name: str, start: int, stop: int) -> np.ndarray:
        start = max(0, start)
        stop = min(self.num_rows, stop)
        if stop <= start:
            return self._arrays[column_name][:0]
        self.cells_touched += stop - start
        return self._arrays[column_name][start:stop]


class RowStoreLayout(PhysicalLayout):
    """All attributes of a tuple stored contiguously (one matrix row).

    Numeric attributes are packed into a single dense float64 matrix, which
    mirrors a slotted-page-free, fixed-width row store.  Non-numeric
    attributes are kept in per-attribute side arrays (they cannot share a
    homogeneous numpy matrix) but access accounting still charges the full
    row width, as a real row store would.
    """

    kind = LayoutKind.ROW_STORE

    def __init__(self, table: Table):
        super().__init__(table)
        self._numeric_names = [c.name for c in table.columns if c.is_numeric]
        self._other_names = [c.name for c in table.columns if not c.is_numeric]
        if self._numeric_names:
            self._matrix = np.column_stack(
                [table.column(n).values.astype(np.float64) for n in self._numeric_names]
            )
        else:
            self._matrix = np.empty((len(table), 0), dtype=np.float64)
        self._numeric_index = {n: i for i, n in enumerate(self._numeric_names)}
        self._side = {n: table.column(n).values for n in self._other_names}

    def read_cell(self, rowid: int, column_name: str):
        # a row store must fetch the whole row to extract one field
        self.cells_touched += self.num_columns
        if column_name in self._numeric_index:
            return self._matrix[rowid, self._numeric_index[column_name]]
        return self._side[column_name][rowid]

    def read_tuple(self, rowid: int) -> dict[str, object]:
        self.cells_touched += self.num_columns
        out: dict[str, object] = {
            name: self._matrix[rowid, i] for name, i in self._numeric_index.items()
        }
        for name in self._other_names:
            out[name] = self._side[name][rowid]
        return {name: out[name] for name in self.table.column_names}

    def read_column_range(self, column_name: str, start: int, stop: int) -> np.ndarray:
        start = max(0, start)
        stop = min(self.num_rows, stop)
        if stop <= start:
            return np.empty(0)
        # scanning one attribute in a row store drags the full rows through
        self.cells_touched += (stop - start) * self.num_columns
        if column_name in self._numeric_index:
            return self._matrix[start:stop, self._numeric_index[column_name]]
        return self._side[column_name][start:stop]


def conversion_cost_cells(table: Table) -> int:
    """Number of cells a full layout conversion must copy (rows × columns)."""
    return len(table) * table.num_columns
