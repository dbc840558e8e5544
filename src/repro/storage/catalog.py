"""The catalog: the set of data objects a dbTouch screen can show.

The catalog registers tables and standalone columns, hands out the
metadata the front-end needs to draw data objects (names, row counts,
types) and owns the per-column sample hierarchies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import CatalogError
from repro.storage.column import Column
from repro.storage.sample import SampleHierarchy
from repro.storage.table import Table


@dataclass(frozen=True)
class ObjectInfo:
    """High-level description of a registered data object.

    This is what "just glancing at the touch screen" conveys: how many
    tables and columns exist, how big they are and what types they hold —
    without revealing any actual data values.
    """

    name: str
    kind: str  # "table" or "column"
    num_rows: int
    num_columns: int
    column_names: tuple[str, ...]
    dtype_names: tuple[str, ...]
    size_bytes: int


class Catalog:
    """Registry of tables and standalone columns available for exploration."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._columns: dict[str, Column] = {}
        self._hierarchies: dict[tuple[str, str], SampleHierarchy] = {}

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register_table(self, table: Table, replace: bool = False) -> None:
        """Register ``table`` under its own name."""
        if table.name in self._tables and not replace:
            raise CatalogError(f"table {table.name!r} already registered")
        if table.name in self._columns:
            raise CatalogError(f"name {table.name!r} already used by a column")
        self._tables[table.name] = table

    def register_column(self, column: Column, replace: bool = False) -> None:
        """Register a standalone column under its own name."""
        if column.name in self._columns and not replace:
            raise CatalogError(f"column {column.name!r} already registered")
        if column.name in self._tables:
            raise CatalogError(f"name {column.name!r} already used by a table")
        self._columns[column.name] = column

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def __contains__(self, name: str) -> bool:
        return name in self._tables or name in self._columns

    def __iter__(self) -> Iterator[str]:
        yield from self._tables
        yield from self._columns

    @property
    def table_names(self) -> list[str]:
        """Names of registered tables."""
        return sorted(self._tables)

    @property
    def column_names(self) -> list[str]:
        """Names of registered standalone columns."""
        return sorted(self._columns)

    def table(self, name: str) -> Table:
        """Return the registered table ``name``."""
        if name not in self._tables:
            raise CatalogError(f"no table named {name!r}; known tables: {self.table_names}")
        return self._tables[name]

    def column(self, name: str) -> Column:
        """Return the registered standalone column ``name``."""
        if name not in self._columns:
            raise CatalogError(
                f"no standalone column named {name!r}; known columns: {self.column_names}"
            )
        return self._columns[name]

    def resolve_column(self, object_name: str, column_name: str | None = None) -> Column:
        """Resolve a column either standalone or inside a registered table."""
        if column_name is None:
            if object_name in self._columns:
                return self._columns[object_name]
            raise CatalogError(f"no standalone column named {object_name!r}")
        return self.table(object_name).column(column_name)

    # ------------------------------------------------------------------ #
    # object metadata for the front-end
    # ------------------------------------------------------------------ #
    def describe(self, name: str) -> ObjectInfo:
        """Return the :class:`ObjectInfo` for a registered object."""
        if name in self._tables:
            table = self._tables[name]
            return ObjectInfo(
                name=name,
                kind="table",
                num_rows=len(table),
                num_columns=table.num_columns,
                column_names=tuple(table.column_names),
                dtype_names=tuple(c.dtype.name for c in table.columns),
                size_bytes=table.size_bytes,
            )
        if name in self._columns:
            col = self._columns[name]
            return ObjectInfo(
                name=name,
                kind="column",
                num_rows=len(col),
                num_columns=1,
                column_names=(col.name,),
                dtype_names=(col.dtype.name,),
                size_bytes=col.size_bytes,
            )
        raise CatalogError(f"no data object named {name!r}")

    def describe_all(self) -> list[ObjectInfo]:
        """Return descriptions for every registered object."""
        return [self.describe(name) for name in self]

    # ------------------------------------------------------------------ #
    # sample hierarchies
    # ------------------------------------------------------------------ #
    def hierarchy_for(
        self,
        object_name: str,
        column_name: str | None = None,
        factor: int = 4,
        min_rows: int = 64,
    ) -> SampleHierarchy:
        """Return (building lazily) the sample hierarchy of a column.

        Hierarchies are cached per (object, column) pair so repeated
        gestures on the same object reuse the already materialized samples.
        """
        col = self.resolve_column(object_name, column_name)
        key = (object_name, column_name if column_name is not None else object_name)
        if key not in self._hierarchies:
            self._hierarchies[key] = SampleHierarchy(col, factor=factor, min_rows=min_rows)
        return self._hierarchies[key]

    def adopt_hierarchy(
        self,
        object_name: str,
        column_name: str | None,
        hierarchy: SampleHierarchy,
    ) -> None:
        """Install a pre-built sample hierarchy for a registered column.

        The warm cold-start hook: snapshots persist materialized sample
        levels, and reopening a store hands the reassembled hierarchies to
        the catalog so :meth:`hierarchy_for` serves them without paying the
        rebuild.  The object must already be registered and the hierarchy's
        base must be the very column the catalog resolves for the pair.
        """
        col = self.resolve_column(object_name, column_name)
        if hierarchy.base is not col:
            raise CatalogError(
                f"hierarchy base is not the registered column for "
                f"({object_name!r}, {column_name!r})"
            )
        key = (object_name, column_name if column_name is not None else object_name)
        self._hierarchies[key] = hierarchy

    def drop_hierarchies_for(self, object_name: str) -> None:
        """Discard the cached hierarchies of one object (its data changed)."""
        self._hierarchies = {
            key: h for key, h in self._hierarchies.items() if key[0] != object_name
        }
