"""Tables and schemas.

A dbTouch table is a named collection of equally long fixed-width columns.
The table does not prescribe a physical layout; the layout (row-store or
column-store) lives in :mod:`repro.storage.layout` and can be changed at
runtime with the rotate gesture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import IngestError, SchemaError, StorageError
from repro.storage.column import Column
from repro.storage.dtypes import FixedWidthType


@dataclass(frozen=True)
class ColumnSpec:
    """Schema entry describing one attribute: its name and fixed-width type."""

    name: str
    dtype: FixedWidthType


class Schema:
    """An ordered collection of :class:`ColumnSpec` entries.

    In dbTouch the schema is deliberately lightweight: the user does not
    need to know it to start exploring, but the kernel uses it for touch →
    attribute mapping on two-dimensional (table) objects.
    """

    def __init__(self, specs: Sequence[ColumnSpec]):
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        self._specs = list(specs)
        self._by_name = {s.name: i for i, s in enumerate(self._specs)}

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[ColumnSpec]:
        return iter(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return [(s.name, s.dtype.name) for s in self] == [
            (s.name, s.dtype.name) for s in other
        ]

    @property
    def names(self) -> list[str]:
        """Attribute names in declaration order."""
        return [s.name for s in self._specs]

    def index_of(self, name: str) -> int:
        """Return the position of attribute ``name`` in the schema."""
        if name not in self._by_name:
            raise SchemaError(f"unknown column {name!r}; schema has {self.names}")
        return self._by_name[name]

    def spec(self, name: str) -> ColumnSpec:
        """Return the :class:`ColumnSpec` for attribute ``name``."""
        return self._specs[self.index_of(name)]


class Table:
    """A named set of equally long columns.

    Parameters
    ----------
    name:
        Table name.
    columns:
        Columns in attribute order.  All columns must have the same length.
    """

    def __init__(self, name: str, columns: Sequence[Column]):
        if not columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        lengths = {len(c) for c in columns}
        if len(lengths) != 1:
            raise StorageError(
                f"table {name!r} requires equally long columns, got lengths {sorted(lengths)}"
            )
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {name!r}: {names}")
        self.name = name
        self._columns = list(columns)
        self._by_name = {c.name: c for c in self._columns}

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._columns[0])

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._by_name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table(name={self.name!r}, columns={self.column_names}, n={len(self)})"

    @property
    def columns(self) -> list[Column]:
        """The table's columns in attribute order."""
        return list(self._columns)

    @property
    def column_names(self) -> list[str]:
        """Attribute names in order."""
        return [c.name for c in self._columns]

    @property
    def num_columns(self) -> int:
        """Number of attributes."""
        return len(self._columns)

    @property
    def schema(self) -> Schema:
        """The table's :class:`Schema`."""
        return Schema([ColumnSpec(c.name, c.dtype) for c in self._columns])

    @property
    def size_bytes(self) -> int:
        """Total bytes of all fixed-width fields in the table."""
        return sum(c.size_bytes for c in self._columns)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def column(self, name: str) -> Column:
        """Return the column named ``name``."""
        if name not in self._by_name:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return self._by_name[name]

    def column_at(self, index: int) -> Column:
        """Return the column at attribute position ``index``."""
        if not 0 <= index < self.num_columns:
            raise SchemaError(
                f"column index {index} out of range for table {self.name!r}"
            )
        return self._columns[index]

    def tuple_at(self, rowid: int) -> dict[str, object]:
        """Return the full tuple at ``rowid`` as an attribute → value mapping.

        This is what a single tap on a table data object reveals.
        """
        if not 0 <= rowid < len(self):
            raise StorageError(
                f"rowid {rowid} out of range for table {self.name!r} of length {len(self)}"
            )
        return {c.name: c.value_at(rowid) for c in self._columns}

    def value_at(self, rowid: int, column_name: str):
        """Return a single cell value."""
        return self.column(column_name).value_at(rowid)

    def gather(
        self, rowids: Sequence[int] | np.ndarray, columns: Sequence[str] | None = None
    ) -> dict[str, np.ndarray]:
        """Return values at the given rowids for the requested columns."""
        wanted = columns if columns is not None else self.column_names
        return {name: self.column(name).gather(rowids) for name in wanted}

    # ------------------------------------------------------------------ #
    # live ingestion
    # ------------------------------------------------------------------ #
    def append_batch(self, data: Mapping[str, Iterable]) -> int:
        """Append one batch of rows across every column; returns the new length.

        All-or-nothing: the batch must name *exactly* the table's columns
        with equally long value sequences, and every column's values must
        cast without dtype drift — all of which is validated *before* any
        column grows, so a refused append leaves the table untouched.
        Raises :class:`repro.errors.IngestError` on any mismatch.
        """
        given = set(data)
        expected = set(self.column_names)
        if given != expected:
            missing = sorted(expected - given)
            extra = sorted(given - expected)
            raise IngestError(
                f"append to table {self.name!r} must cover its schema exactly; "
                f"missing {missing}, unexpected {extra}"
            )
        casted = {name: self.column(name)._cast_append_values(data[name]) for name in data}
        lengths = {arr.shape[0] for arr in casted.values()}
        if len(lengths) > 1:
            raise IngestError(
                f"append to table {self.name!r} requires equally long batches, "
                f"got lengths {sorted(lengths)}"
            )
        for column in self._columns:
            column.append_batch(casted[column.name])
        return len(self)

    @staticmethod
    def from_arrays(name: str, data: Mapping[str, Iterable]) -> "Table":
        """Build a table from a mapping of column name → values."""
        return Table(name, [Column(k, v) for k, v in data.items()])
