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

    A layout answers tuple reads by tuple identifier and reports how many
    *cells* (fixed-width fields) each access touches so benchmarks can
    compare designs without relying on wall-clock noise alone.
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

    @abstractmethod
    def read_tuple(self, rowid: int) -> dict[str, object]:
        """Read a full tuple (all attributes of one rowid)."""


class ColumnStoreLayout(PhysicalLayout):
    """One dense array per attribute (the default dbTouch layout)."""

    kind = LayoutKind.COLUMN_STORE

    def __init__(self, table: Table):
        super().__init__(table)
        self._arrays = {c.name: c.values for c in table.columns}

    def read_tuple(self, rowid: int) -> dict[str, object]:
        # tuple reconstruction touches one cell per attribute, in separate arrays
        self.cells_touched += self.num_columns
        return {name: arr[rowid] for name, arr in self._arrays.items()}


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

    def read_tuple(self, rowid: int) -> dict[str, object]:
        self.cells_touched += self.num_columns
        out: dict[str, object] = {
            name: self._matrix[rowid, i] for name, i in self._numeric_index.items()
        }
        for name in self._other_names:
            out[name] = self._side[name][rowid]
        return {name: out[name] for name in self.table.column_names}


def conversion_cost_cells(table: Table) -> int:
    """Number of cells a full layout conversion must copy (rows × columns)."""
    return len(table) * table.num_columns
