"""Snapshot catalog: versioned manifests for warm cold-starts.

A :class:`StoreCatalog` pairs a
:class:`repro.persist.diskstore.DiskColumnStore` with a JSON manifest
(``catalog.json`` in the store root) that records *everything a serving
engine needs to resume exploration instantly*:

* table schemas (attribute order, dtypes) and their per-column store
  files;
* standalone columns;
* every materialized :class:`repro.storage.sample.SampleHierarchy` level,
  persisted as its own chunked column file.

Indexes are not part of a snapshot: after a restart each is built by the
first selection on its column.

Cold start then costs a manifest read plus a handful of ``mmap`` calls —
no CSV parsing, no hierarchy re-striding — which is where the >=10x
restart win of ``benchmarks/test_out_of_core.py`` comes from.  The
manifest is versioned and rewritten atomically; a missing, corrupted,
truncated or foreign-version manifest raises
:class:`repro.errors.SnapshotError` instead of crashing the server.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.errors import SnapshotError
from repro.persist.diskstore import DiskColumnStore
from repro.persist.format import DEFAULT_CHUNK_ROWS, atomic_replace
from repro.persist.paged_column import PagedColumn
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.sample import SampleHierarchy, SampleLevel
from repro.storage.table import Table

#: Version of the manifest schema written by this module.
MANIFEST_VERSION = 1
#: Manifest file name inside the store root.
MANIFEST_NAME = "catalog.json"


def _hierarchy_key(object_name: str, column_name: str | None) -> tuple[str, str | None]:
    return (object_name, column_name)


class StoreCatalog:
    """The persisted counterpart of :class:`repro.storage.catalog.Catalog`.

    Parameters
    ----------
    store:
        The chunk store holding (or receiving) the column files.
    read_only:
        Refuse every ``persist_*`` mutation.  This is the multi-attach
        mode of the sharded serving tier: one publisher writes the
        snapshot, N worker processes each :meth:`open_read_only` the same
        root and map the same chunk files — safe precisely because no
        attacher can rewrite the manifest out from under its siblings.

    An existing manifest in the store root is loaded and validated on
    construction; otherwise the catalog starts empty.  All ``persist_*``
    methods rewrite the manifest atomically after updating the store, and
    run under an internal lock — a hierarchy build handed to a scheduler's
    background lane may persist while the ingest thread persists the next
    table, and neither may lose the other's just-committed records.
    """

    def __init__(self, store: DiskColumnStore, read_only: bool = False) -> None:
        self.store = store
        self.read_only = read_only
        self._lock = threading.RLock()
        self._tables: dict[str, dict] = {}
        self._columns: dict[str, dict] = {}
        self._hierarchies: dict[tuple[str, str | None], dict] = {}
        if self.manifest_path.is_file():
            self._read_manifest()

    @classmethod
    def open_read_only(
        cls, root: str | os.PathLike, cache_bytes: int | None = None
    ) -> "StoreCatalog":
        """Attach an already-published snapshot, immutably.

        Requires an existing manifest — a read-only catalog over an empty
        root would be a typo'd path silently serving nothing, so it raises
        :class:`repro.errors.SnapshotError` instead.  ``cache_bytes`` sizes
        the attacher-private chunk cache (the mapped file bytes themselves
        are shared between attachers by the OS).
        """
        root = Path(root)
        if not (root / MANIFEST_NAME).is_file():
            raise SnapshotError(
                f"no snapshot manifest at {root / MANIFEST_NAME}; "
                "publish the snapshot before attaching read-only"
            )
        kwargs = {} if cache_bytes is None else {"cache_bytes": cache_bytes}
        store = DiskColumnStore(root, **kwargs)
        return cls(store, read_only=True)

    def _ensure_writable(self, operation: str) -> None:
        if self.read_only:
            raise SnapshotError(
                f"{operation} refused: this StoreCatalog is attached read-only"
            )

    @property
    def manifest_path(self) -> Path:
        """Where the catalog manifest lives."""
        return self.store.root / MANIFEST_NAME

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def table_names(self) -> list[str]:
        """Names of every persisted table."""
        with self._lock:
            return sorted(self._tables)

    @property
    def column_names(self) -> list[str]:
        """Names of every persisted standalone column."""
        with self._lock:
            return sorted(self._columns)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._tables or name in self._columns

    def hierarchy_steps(self, object_name: str, column_name: str | None = None) -> list[int]:
        """Steps of the persisted sample levels for one column (may be empty)."""
        with self._lock:
            record = self._hierarchies.get(_hierarchy_key(object_name, column_name))
            if record is None:
                return []
            return [int(level["step"]) for level in record["levels"]]

    # ------------------------------------------------------------------ #
    # persisting
    # ------------------------------------------------------------------ #
    def persist_column(
        self,
        column: Column,
        hierarchy: SampleHierarchy | bool = True,
        factor: int = 4,
        min_rows: int = 64,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        replace: bool = False,
    ) -> None:
        """Persist a standalone column (and, by default, its hierarchy).

        ``hierarchy`` may be ``True`` (build one now with ``factor`` /
        ``min_rows``; skipped for non-numeric columns), ``False`` (none —
        e.g. when :meth:`persist_hierarchy` will build it later),
        or an existing :class:`SampleHierarchy` to snapshot as-is.
        """
        self._ensure_writable("persist_column")
        with self._lock:
            if column.name in self._tables:
                raise SnapshotError(f"name {column.name!r} already persisted as a table")
            referenced = self._store_names()
            self.store.write_column(column, chunk_rows=chunk_rows, replace=replace)
            self._columns[column.name] = {
                "store_name": column.name,
                "dtype": column.dtype.name,
                "num_rows": len(column),
            }
            self._drop_object_records(column.name)
            self._persist_hierarchy_levels(
                column, column.name, None, hierarchy, factor, min_rows, chunk_rows
            )
            self._write_manifest()
            self._delete_unreferenced(referenced)

    def persist_table(
        self,
        table: Table,
        hierarchies: bool = True,
        factor: int = 4,
        min_rows: int = 64,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        replace: bool = False,
    ) -> None:
        """Persist a table: one column file per attribute plus hierarchies.

        With ``hierarchies`` (the default) a sample hierarchy is built and
        snapshotted for every numeric attribute, so reopening the table
        skips both the CSV parse *and* the sample re-striding.
        """
        self._ensure_writable("persist_table")
        with self._lock:
            if table.name in self._columns:
                raise SnapshotError(f"name {table.name!r} already persisted as a column")
            referenced = self._store_names()
            specs = []
            for column in table.columns:
                store_name = f"{table.name}/{column.name}"
                self.store.write_column(
                    column, name=store_name, chunk_rows=chunk_rows, replace=replace
                )
                specs.append(
                    {"name": column.name, "store_name": store_name, "dtype": column.dtype.name}
                )
            self._tables[table.name] = {"num_rows": len(table), "columns": specs}
            self._drop_object_records(table.name)
            for column in table.columns:
                self._persist_hierarchy_levels(
                    column,
                    f"{table.name}/{column.name}",
                    (table.name, column.name),
                    hierarchies,
                    factor,
                    min_rows,
                    chunk_rows,
                )
            self._write_manifest()
            self._delete_unreferenced(referenced)

    def _drop_object_records(self, object_name: str) -> None:
        """Forget every hierarchy record of a replaced object: all were
        snapshotted from its previous data, a dropped attribute's too."""
        for key in [key for key in self._hierarchies if key[0] == object_name]:
            del self._hierarchies[key]

    def _store_names(self) -> set[str]:
        """Every store column some manifest record names."""
        names = {record["store_name"] for record in self._columns.values()}
        for record in self._tables.values():
            names.update(spec["store_name"] for spec in record["columns"])
        for record in self._hierarchies.values():
            names.update(level["store_name"] for level in record["levels"])
        return names

    def _delete_unreferenced(self, referenced: set[str]) -> None:
        """Delete what ``referenced`` names and the written manifest no longer does."""
        for name in referenced - self._store_names():
            if self.store.has_column(name):
                self.store.delete_column(name)

    def persist_hierarchy(
        self,
        object_name: str,
        column_name: str | None = None,
        factor: int = 4,
        min_rows: int = 64,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> list[int]:
        """Build and snapshot the hierarchy of an already-persisted column.

        This is the deferred-materialization path, also run by
        :meth:`compact_appends`; hand it to
        :meth:`repro.core.scheduler.GestureScheduler.submit_background` to
        keep it off gesture traffic.  The levels are strided off the
        *paged* base column (so building never needs the full column in
        RAM) and appended to the manifest.  Returns the persisted level
        steps.
        """
        self._ensure_writable("persist_hierarchy")
        with self._lock:
            base, store_name = self._resolve_base(object_name, column_name)
            if not base.is_numeric:
                return []
            key = (object_name, column_name) if column_name is not None else None
            hierarchy = SampleHierarchy(base, factor=factor, min_rows=min_rows)
            self._persist_hierarchy_levels(
                base, store_name, key, hierarchy, factor, min_rows, chunk_rows
            )
            self._write_manifest()
            return self.hierarchy_steps(object_name, column_name)

    def _resolve_base(
        self, object_name: str, column_name: str | None
    ) -> tuple[PagedColumn, str]:
        if column_name is None:
            record = self._columns.get(object_name)
            if record is None:
                raise SnapshotError(f"no persisted standalone column {object_name!r}")
            return self.store.open_column(record["store_name"]), record["store_name"]
        table = self._tables.get(object_name)
        if table is None:
            raise SnapshotError(f"no persisted table {object_name!r}")
        for spec in table["columns"]:
            if spec["name"] == column_name:
                return (
                    self.store.open_column(spec["store_name"], as_name=column_name),
                    spec["store_name"],
                )
        raise SnapshotError(f"table {object_name!r} has no column {column_name!r}")

    def _persist_hierarchy_levels(
        self,
        column: Column,
        store_name: str,
        key: tuple[str, str] | None,
        hierarchy: SampleHierarchy | bool,
        factor: int,
        min_rows: int,
        chunk_rows: int,
    ) -> None:
        if hierarchy is False:
            return
        if hierarchy is True:
            if not column.is_numeric:
                return
            hierarchy = SampleHierarchy(column, factor=factor, min_rows=min_rows)
        levels = []
        for level in hierarchy.levels:
            if level.step <= 1:
                continue
            level_store_name = f"{store_name}#s{level.step}"
            self.store.write_column(
                level.column, name=level_store_name, chunk_rows=chunk_rows, replace=True
            )
            levels.append({"step": level.step, "store_name": level_store_name})
        object_name, column_name = key if key is not None else (column.name, None)
        self._hierarchies[_hierarchy_key(object_name, column_name)] = {
            "object": object_name,
            "column": column_name,
            "factor": hierarchy.factor,
            "min_rows": hierarchy.min_rows,
            "levels": levels,
        }

    # ------------------------------------------------------------------ #
    # append compaction (live ingestion)
    # ------------------------------------------------------------------ #
    def _compact_store_column(self, store_name: str) -> tuple[int, bool]:
        """Fold one store column's append tail into its chunk file.

        Streams the old chunks plus the in-memory tail through
        ``write_chunks(replace=True)`` — the rewritten file appears
        atomically, the generator reads off the pre-replace memmap, and
        the store's generation bump retires the old mapping so the next
        ``open_column`` serves the grown column tail-free.  Returns
        ``(row_count, whether anything was rewritten)``.
        """
        paged = self.store.open_column(store_name)
        n = len(paged)
        if not int(getattr(paged, "tail_rows", 0)):
            return n, False
        chunk_rows = paged.format.chunk_rows

        def chunks():
            for start in range(0, n, chunk_rows):
                yield np.asarray(paged.raw_slice(start, min(n, start + chunk_rows)))

        self.store.write_chunks(
            store_name, paged.dtype, n, chunks(), chunk_rows=chunk_rows, replace=True
        )
        return n, True

    def compact_appends(self, object_name: str) -> int:
        """Fold appended in-memory tails into ``object_name``'s chunk files.

        The snapshot-side half of live ingestion: appended rows live in a
        :class:`PagedColumn`'s RAM tail until this folds them into the
        chunked on-disk format, so warm re-attaches keep their mmap-speed
        cold start over the *grown* data.  Hierarchy snapshots for the
        object are re-persisted over the new length.  Returns the
        object's row count after compaction (a no-op when no column has a
        tail).
        """
        self._ensure_writable("compact_appends")
        with self._lock:
            if object_name in self._tables:
                record = self._tables[object_name]
                new_rows = int(record["num_rows"])
                changed = False
                for spec in record["columns"]:
                    rows, rewritten = self._compact_store_column(spec["store_name"])
                    new_rows = rows
                    changed = changed or rewritten
                record["num_rows"] = new_rows
            elif object_name in self._columns:
                record = self._columns[object_name]
                new_rows, changed = self._compact_store_column(record["store_name"])
                record["num_rows"] = new_rows
            else:
                raise SnapshotError(
                    f"no persisted object {object_name!r} to compact; "
                    f"known: {self.table_names + self.column_names}"
                )
            if changed:
                for (obj, col), record in list(self._hierarchies.items()):
                    if obj == object_name:
                        self.persist_hierarchy(
                            obj,
                            col,
                            factor=int(record["factor"]),
                            min_rows=int(record["min_rows"]),
                        )
                self._write_manifest()
            return new_rows

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #
    def load_column(self, name: str) -> PagedColumn:
        """Open a persisted standalone column (shared mapping per store)."""
        with self._lock:
            record = self._columns.get(name)
            if record is None:
                raise SnapshotError(
                    f"no persisted standalone column {name!r}; known: {self.column_names}"
                )
            return self.store.open_column(record["store_name"], as_name=name)

    def load_table(self, name: str) -> Table:
        """Open a persisted table as paged columns (no data read yet)."""
        with self._lock:
            record = self._tables.get(name)
            if record is None:
                raise SnapshotError(f"no persisted table {name!r}; known: {self.table_names}")
            columns = [
                self.store.open_column(spec["store_name"], as_name=spec["name"])
                for spec in record["columns"]
            ]
            return Table(name, columns)

    def load_hierarchy(
        self, object_name: str, column_name: str | None = None
    ) -> SampleHierarchy | None:
        """Reassemble a persisted sample hierarchy, or ``None`` if absent.

        The base and every level are paged columns over their snapshot
        files, so the hierarchy is ready before any data page is faulted.
        """
        with self._lock:
            record = self._hierarchies.get(_hierarchy_key(object_name, column_name))
            if record is None:
                return None
            base, _ = self._resolve_base(object_name, column_name)
            as_name = column_name if column_name is not None else object_name
            levels = [
                SampleLevel(
                    level=i + 1,
                    step=int(spec["step"]),
                    column=self.store.open_column(spec["store_name"], as_name=as_name),
                )
                for i, spec in enumerate(record["levels"])
            ]
            return SampleHierarchy.from_levels(
                base,
                levels,
                factor=int(record["factor"]),
                min_rows=int(record["min_rows"]),
            )

    def attach(self, catalog: Catalog) -> list[str]:
        """Register every persisted object (plus hierarchies) into ``catalog``.

        The single-call warm start for a
        :class:`repro.service.LocalExplorationService`-style backend:
        tables and columns are registered as paged objects and the
        snapshot hierarchies adopted, so the kernel's first gesture skips
        both ingest and sample builds.  Returns the registered names.
        """
        with self._lock:
            names = []
            for name in self.table_names:
                catalog.register_table(self.load_table(name))
                names.append(name)
            for name in self.column_names:
                catalog.register_column(self.load_column(name))
                names.append(name)
            for object_name, column_name in self._hierarchies:
                hierarchy = self.load_hierarchy(object_name, column_name)
                if hierarchy is not None:
                    catalog.adopt_hierarchy(object_name, column_name, hierarchy)
            return names

    def iter_hierarchy_keys(self) -> Iterable[tuple[str, str | None]]:
        """The ``(object, column)`` pairs with persisted hierarchies."""
        with self._lock:
            return list(self._hierarchies)

    # ------------------------------------------------------------------ #
    # the manifest
    # ------------------------------------------------------------------ #
    def _write_manifest(self) -> None:
        payload = {
            "format_version": MANIFEST_VERSION,
            "tables": self._tables,
            "columns": self._columns,
            "hierarchies": [
                self._hierarchies[key]
                for key in sorted(self._hierarchies, key=lambda k: (k[0], k[1] or ""))
            ],
        }
        with atomic_replace(self.manifest_path, "w") as handle:
            handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        # index files of older snapshots (``#perm``, ``#crk-*``) that no
        # record names: a user column called ``x#perm`` is named, so it stays
        named = self._store_names()
        for name in self.store.column_names:
            _, mark, suffix = name.rpartition("#")
            if mark and (suffix == "perm" or suffix.startswith("crk-")) and name not in named:
                self.store.delete_column(name)

    def _read_manifest(self) -> None:
        try:
            payload = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SnapshotError(
                f"store manifest {self.manifest_path} is unreadable or corrupted: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise SnapshotError(f"store manifest {self.manifest_path} is not an object")
        version = payload.get("format_version")
        if version != MANIFEST_VERSION:
            raise SnapshotError(
                f"store manifest version {version!r} is not supported "
                f"(supported: {MANIFEST_VERSION})"
            )
        tables = payload.get("tables")
        columns = payload.get("columns")
        hierarchies = payload.get("hierarchies")
        # an "indexes" section (older snapshots persisted index files) is
        # ignored: every index is built by its first selection
        if (
            not isinstance(tables, dict)
            or not isinstance(columns, dict)
            or not isinstance(hierarchies, list)
        ):
            raise SnapshotError(
                f"store manifest {self.manifest_path} is missing required sections"
            )
        try:
            self._tables = {
                str(name): {
                    "num_rows": int(record["num_rows"]),
                    "columns": [
                        {
                            "name": str(spec["name"]),
                            "store_name": str(spec["store_name"]),
                            "dtype": str(spec["dtype"]),
                        }
                        for spec in record["columns"]
                    ],
                }
                for name, record in tables.items()
            }
            self._columns = {
                str(name): {
                    "store_name": str(record["store_name"]),
                    "dtype": str(record["dtype"]),
                    "num_rows": int(record["num_rows"]),
                }
                for name, record in columns.items()
            }
            self._hierarchies = {
                _hierarchy_key(str(record["object"]), record.get("column")): {
                    "object": str(record["object"]),
                    "column": record.get("column"),
                    "factor": int(record["factor"]),
                    "min_rows": int(record["min_rows"]),
                    "levels": [
                        {
                            "step": int(level["step"]),
                            "store_name": str(level["store_name"]),
                        }
                        for level in record["levels"]
                    ],
                }
                for record in hierarchies
            }
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(
                f"store manifest {self.manifest_path} has a malformed record: {exc}"
            ) from exc
