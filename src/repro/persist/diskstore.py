"""The disk column store: mmap-backed columns behind an LRU chunk cache.

:class:`DiskColumnStore` owns a directory of on-disk columns in the
:mod:`repro.persist.format` layout and hands out
:class:`repro.persist.paged_column.PagedColumn` objects over them.  Two
properties make it the serving engine's out-of-core tier:

* **One mapping per column.**  ``open_column`` memoizes the opened
  ``PagedColumn`` per name, so every session exploring a dataset reads
  through the same read-only ``np.memmap`` — the zero-copy sharing
  :meth:`repro.service.MultiSessionServer.load_shared_column` relies on.
* **A byte-budgeted chunk cache.**  All columns of one store share a
  :class:`ChunkCache`: materialized chunks are kept LRU under
  ``cache_bytes``, with hit/miss/eviction counters, so memory use is
  bounded by the budget, not by dataset size.

Writing is streaming-friendly: :meth:`DiskColumnStore.write_chunks`
consumes chunks from any iterator, so a column never has to be resident
whole, computes the zonemap as it goes, and commits atomically via a
temp-file rename.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator
from urllib.parse import quote, unquote

import numpy as np

from repro.errors import PersistError
from repro.persist.format import (
    DEFAULT_CHUNK_ROWS,
    ColumnFormat,
    atomic_replace,
    chunk_min_max,
    read_format,
    read_zonemap,
)
from repro.persist.paged_column import PagedColumn
from repro.storage.column import Column
from repro.storage.dtypes import FixedWidthType

#: File extension of persistent column files.
COLUMN_SUFFIX = ".dbtc"
#: Default chunk-cache byte budget (64 MiB).
DEFAULT_CACHE_BYTES = 64 << 20


@dataclass
class ChunkCacheStats:
    """Hit/miss/eviction accounting for a :class:`ChunkCache`, plus the
    batched gathers that read *past* it (``PagedColumn.read_batch``)."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    bytes_cached: int = 0
    gathers: int = 0
    rows_gathered: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups performed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from resident chunks."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class ChunkCache:
    """LRU cache of materialized column chunks under a byte budget.

    Keys are ``(column_key, chunk_index)`` pairs — ``column_key`` is any
    hashable namespace (:class:`DiskColumnStore` uses ``(name,
    generation)`` tuples so a replaced column's stale chunks can never be
    served to readers of the new data); values are the materialized numpy
    chunks.  Eviction is LRU by bytes: inserting past
    ``capacity_bytes`` drops least-recently-used chunks until the budget
    holds again (a single chunk larger than the whole budget is admitted
    alone rather than rejected, so serving stays correct).

    One chunk cache is shared by every session of a
    :class:`repro.service.MultiSessionServer` exploring the same store,
    and those sessions execute on parallel scheduler workers — so all
    state lives under an internal lock.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if capacity_bytes <= 0:
            raise PersistError("chunk cache capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.stats = ChunkCacheStats()
        self._lock = threading.RLock()
        self._chunks: OrderedDict[tuple, np.ndarray] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._chunks)

    def stats_snapshot(self) -> dict[str, int]:
        """Counters and byte gauges under the names telemetry reports."""
        with self._lock:
            stats = self.stats
            return {
                "chunk_hits": stats.hits,
                "chunk_misses": stats.misses,
                "chunk_insertions": stats.insertions,
                "chunk_evictions": stats.evictions,
                "bytes_cached": stats.bytes_cached,
                "chunk_budget_bytes": self.capacity_bytes,
                "gathers": stats.gathers,
                "rows_gathered": stats.rows_gathered,
            }

    def count_gather(self, rows: int) -> None:
        """Record one batched read of ``rows`` rows that bypassed the cache."""
        with self._lock:
            self.stats.gathers += 1
            self.stats.rows_gathered += rows

    def get(self, column_key, chunk_index: int) -> np.ndarray | None:
        """Return a resident chunk (refreshing its recency), or ``None``."""
        key = (column_key, chunk_index)
        with self._lock:
            chunk = self._chunks.get(key)
            if chunk is not None:
                self._chunks.move_to_end(key)
                self.stats.hits += 1
                return chunk
            self.stats.misses += 1
            return None

    def put(self, column_key, chunk_index: int, chunk: np.ndarray) -> None:
        """Insert a materialized chunk, evicting LRU chunks past the budget."""
        key = (column_key, chunk_index)
        with self._lock:
            # two workers may race to materialize the same chunk; the
            # second insert replaces the first (a swap, not an eviction)
            if key in self._chunks:
                self._remove_locked(key)
            self._chunks[key] = chunk
            self.stats.insertions += 1
            self.stats.bytes_cached += int(chunk.nbytes)
            while self.stats.bytes_cached > self.capacity_bytes and len(self._chunks) > 1:
                self._remove_locked(next(iter(self._chunks)))
                self.stats.evictions += 1

    def _remove_locked(self, key: tuple) -> int:
        chunk = self._chunks.pop(key)
        self.stats.bytes_cached -= int(chunk.nbytes)
        return int(chunk.nbytes)

    def invalidate_column(self, column_key) -> int:
        """Drop every resident chunk of one column; returns bytes freed."""
        with self._lock:
            doomed = [key for key in self._chunks if key[0] == column_key]
            return sum(self._remove_locked(key) for key in doomed)

    def clear(self) -> None:
        """Drop every resident chunk and reset statistics."""
        with self._lock:
            self._chunks.clear()
            self.stats = ChunkCacheStats()


class DiskColumnStore:
    """A directory of persistent columns served through one chunk cache.

    Parameters
    ----------
    root:
        Directory holding the store (created if missing).  Column files
        live under ``<root>/columns/``; the snapshot manifest of
        :class:`repro.persist.snapshot.StoreCatalog` sits next to them.
    cache_bytes:
        Byte budget of the shared :class:`ChunkCache`.
    """

    def __init__(self, root: str | Path, cache_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.root = Path(root)
        self._columns_dir = self.root / "columns"
        self._columns_dir.mkdir(parents=True, exist_ok=True)
        self.cache = ChunkCache(cache_bytes)
        # open_column/_forget run concurrently (gesture workers vs the
        # background materialization lane); the lock keeps the
        # one-mapping-per-column contract, and the per-name generation
        # keeps a replaced column's stale chunks out of new readers
        self._lock = threading.RLock()
        self._open_columns: dict[str, PagedColumn] = {}
        self._generations: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # naming
    # ------------------------------------------------------------------ #
    def column_path(self, name: str) -> Path:
        """The on-disk path of column ``name`` (name-safe quoted)."""
        return self._columns_dir / (quote(name, safe="") + COLUMN_SUFFIX)

    def has_column(self, name: str) -> bool:
        """Whether a column named ``name`` is stored."""
        return self.column_path(name).is_file()

    @property
    def column_names(self) -> list[str]:
        """Names of every stored column."""
        return sorted(
            unquote(path.name[: -len(COLUMN_SUFFIX)])
            for path in self._columns_dir.glob(f"*{COLUMN_SUFFIX}")
        )

    def on_disk_bytes(self, name: str | None = None) -> int:
        """Total stored bytes of one column (or of the whole store)."""
        if name is not None:
            return self.column_path(name).stat().st_size
        return sum(
            path.stat().st_size for path in self._columns_dir.glob(f"*{COLUMN_SUFFIX}")
        )

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def write_column(
        self,
        column: Column,
        name: str | None = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        replace: bool = False,
    ) -> Path:
        """Persist a column's values; returns the file written.

        ``name`` defaults to the column's own name.  Writing an existing
        name requires ``replace`` and drops the stale mapping and chunks.
        """
        target = name if name is not None else column.name
        values = column.values

        def chunks() -> Iterator[np.ndarray]:
            for start in range(0, len(values), chunk_rows):
                yield values[start : start + chunk_rows]

        return self.write_chunks(
            target,
            column.dtype,
            len(column),
            chunks(),
            chunk_rows=chunk_rows,
            replace=replace,
        )

    def write_chunks(
        self,
        name: str,
        dtype: FixedWidthType,
        num_rows: int,
        chunks: Iterable[np.ndarray],
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        replace: bool = False,
    ) -> Path:
        """Stream a column to disk chunk by chunk (the adaptive-load path).

        ``chunks`` must yield ``ceil(num_rows / chunk_rows)`` arrays of
        exactly ``chunk_rows`` values each (last one shorter); the zonemap
        is computed on the fly so the column is never fully resident.  The
        file appears atomically (:func:`repro.persist.format.atomic_replace`).
        """
        path = self.column_path(name)
        if path.exists() and not replace:
            raise PersistError(f"column {name!r} already stored; pass replace=True")
        fmt = ColumnFormat(
            dtype_name=dtype.name, num_rows=int(num_rows), chunk_rows=int(chunk_rows)
        )
        mins: list = []
        maxs: list = []
        written = 0
        with atomic_replace(path) as handle:
            handle.write(fmt.to_header())
            for chunk in chunks:
                source = np.asarray(chunk)
                # strings demand "safe" (a narrowing U-cast silently
                # truncates); numerics use "same_kind" so int chunks
                # may land in a float column but never the reverse
                casting = "safe" if source.dtype.kind in ("U", "S") else "same_kind"
                if source.size and not np.can_cast(
                    source.dtype, dtype.numpy_dtype, casting=casting
                ):
                    raise PersistError(
                        f"chunk of dtype {source.dtype} cannot be stored "
                        f"losslessly in column {name!r} of type {dtype.name}"
                    )
                arr = dtype.cast(source)
                if arr.ndim != 1:
                    raise PersistError(
                        f"chunk for column {name!r} must be 1-D, got shape {arr.shape}"
                    )
                expected = min(chunk_rows, num_rows - written)
                if len(arr) != expected:
                    raise PersistError(
                        f"chunk for column {name!r} has {len(arr)} rows, "
                        f"expected {expected}"
                    )
                handle.write(np.ascontiguousarray(arr).tobytes())
                if len(arr):
                    low, high = chunk_min_max(arr)
                    mins.append(low)
                    maxs.append(high)
                written += len(arr)
            if written != num_rows:
                raise PersistError(
                    f"column {name!r} received {written} rows, declared {num_rows}"
                )
            np_dtype = dtype.numpy_dtype
            handle.write(np.asarray(mins, dtype=np_dtype).tobytes())
            handle.write(np.asarray(maxs, dtype=np_dtype).tobytes())
        self._forget(name)
        return path

    # ------------------------------------------------------------------ #
    # opening
    # ------------------------------------------------------------------ #
    def open_column(self, name: str, as_name: str | None = None) -> PagedColumn:
        """Open a stored column as a :class:`PagedColumn` (memoized).

        Every caller of the same ``name`` receives the same object, hence
        the same read-only memmap — the zero-copy sharing contract.
        ``as_name`` renames the returned column (e.g. a table-qualified
        store name back to its attribute name) without re-mapping.
        """
        with self._lock:
            if name not in self._open_columns:
                path = self.column_path(name)
                if not path.is_file():
                    raise PersistError(
                        f"no stored column named {name!r}; stored: {self.column_names}"
                    )
                fmt = read_format(path)
                if fmt.num_rows:
                    data = np.memmap(
                        path,
                        mode="r",
                        dtype=fmt.dtype.numpy_dtype,
                        offset=fmt.data_offset,
                        shape=(fmt.num_rows,),
                    )
                else:
                    data = np.empty(0, dtype=fmt.dtype.numpy_dtype)
                mins, maxs = read_zonemap(path, fmt)
                self._open_columns[name] = PagedColumn(
                    name=name,
                    data=data,
                    fmt=fmt,
                    cache=self.cache,
                    cache_key=(name, self._generations.get(name, 0)),
                    chunk_mins=mins,
                    chunk_maxs=maxs,
                )
            column = self._open_columns[name]
        if as_name is not None and as_name != column.name:
            column.name = as_name
        return column

    def delete_column(self, name: str) -> None:
        """Remove a stored column file and its resident chunks."""
        path = self.column_path(name)
        if not path.is_file():
            raise PersistError(f"no stored column named {name!r}")
        self._forget(name)
        path.unlink()

    def _forget(self, name: str) -> None:
        """Retire a column's mapping after its file was (re)written.

        The generation bump gives the next ``open_column`` a fresh chunk
        namespace: a reader still holding the old :class:`PagedColumn`
        keeps its consistent pre-replace view (POSIX keeps the unlinked
        mapping alive), and its in-flight chunk inserts can never be
        served to readers of the new data.
        """
        with self._lock:
            generation = self._generations.get(name, 0)
            self._generations[name] = generation + 1
            self._open_columns.pop(name, None)
        self.cache.invalidate_column((name, generation))
