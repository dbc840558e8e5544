"""Paged columns: the ``Column`` read surface over an mmap-backed file.

A :class:`PagedColumn` satisfies everything the kernel expects of a
:class:`repro.storage.column.Column` — ``values``, ``value_at``,
``slice``, ``gather``, ``read_batch``, ``take_every``, statistics — while
its data lives on disk:

* :attr:`values` is a *read-only* ``np.memmap`` over the file's data
  region.  Touching it faults in only the pages actually read, and every
  session opening the same column through one
  :class:`repro.persist.diskstore.DiskColumnStore` shares the single
  mapping — N users over one dataset cost one copy of nothing.
* Batched gathers (:meth:`PagedColumn.read_batch`, hence ``gather``, the
  batch slide executor, select-where projection, sample-hierarchy
  base reads) read through the mapping at *row* granularity:
  one fancy index, O(rows read) whatever the chunk, cache or column size
  — the mapped file already is the shared cache, so nothing is copied
  but the rows asked for.
* Range reads (:meth:`PagedColumn.slice`: per-touch summary windows) and
  the per-touch :meth:`PagedColumn.value_at` route through the store's
  :class:`repro.persist.diskstore.ChunkCache` at *chunk* granularity: a
  materialised contiguous chunk is their product, revisits are cache
  hits, and the cache's byte budget bounds how much is resident.
* ``min()``/``max()`` answer from the persisted per-chunk zonemap without
  faulting any data page, and :meth:`chunk_range` exposes the zonemap so
  scans can skip chunks whose ``[min, max]`` cannot satisfy a predicate.

Because a ``PagedColumn`` *is* a ``Column``, everything downstream —
catalogs, sample hierarchies, the batch slide executor, gesture services,
the multi-session server — explores out-of-core data unchanged, with
bit-identical gesture outcomes.

**Live appends.**  The on-disk file is immutable, so
:meth:`append_batch` lands rows in an in-memory *tail* buffer behind the
memmap.  The whole read surface is tail-aware (``values`` concatenates,
``slice``/``read_batch``/``value_at`` assemble across the boundary) and
the chunk surface extends logically: the tail's rows belong to logical
chunks past (or straddling) the disk chunks, with zone envelopes
maintained incrementally on every append — the straddling chunk's
envelope is the union of its persisted disk zone and its tail rows, so
no data page is faulted to keep pruning exact.  The tail stays hot until
:meth:`repro.persist.snapshot.StoreCatalog.compact_appends` folds it into
the chunked file and reopens the column tail-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

from repro.errors import StorageError
from repro.obs.trace import trace_span
from repro.persist.format import ColumnFormat, chunk_min_max
from repro.storage.column import Column, grown_buffer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.persist.diskstore import ChunkCache


class PagedColumn(Column):
    """A named, typed column read through a mapped file (see module docstring).

    Built by :meth:`repro.persist.diskstore.DiskColumnStore.open_column`;
    not constructed directly.  ``data`` is the read-only memmap (or a
    plain array for zero-row columns), ``fmt`` the decoded
    :class:`repro.persist.format.ColumnFormat`, ``cache`` the store's
    shared chunk cache and ``cache_key`` the column's namespace within it;
    ``chunk_mins``/``chunk_maxs`` are the persisted zonemap arrays.
    """

    def __init__(
        self,
        name: str,
        data: np.ndarray,
        fmt: ColumnFormat,
        cache: "ChunkCache",
        cache_key: Hashable,
        chunk_mins: np.ndarray,
        chunk_maxs: np.ndarray,
    ) -> None:
        self.name = name
        self.dtype = fmt.dtype
        self._data = data
        self._format = fmt
        self._cache = cache
        self._cache_key = cache_key
        self._touched_chunks: set[int] = set()
        # live-append tail: rows past the immutable memmap.  The zone
        # arrays start as the persisted ones and grow in place per append
        # (logical-length views of capacity buffers, like the tail).
        self._tail = self._tail_buffer = np.empty(0, dtype=data.dtype)
        self._zone_mins = self._zone_min_buffer = chunk_mins
        self._zone_maxs = self._zone_max_buffer = chunk_maxs
        self._zones_shared = False  # with a rename's clone, until one appends
        self._values_cache: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # basic protocol, tail-aware
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self._data.shape[0]) + int(self._tail.shape[0])

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, item):
        return self.values[item]

    @property
    def base_rows(self) -> int:
        """Rows in the immutable on-disk region (the memmap)."""
        return int(self._data.shape[0])

    @property
    def tail_rows(self) -> int:
        """Rows appended since the column was opened (in-memory tail)."""
        return int(self._tail.shape[0])

    @property
    def values(self) -> np.ndarray:
        """The full logical column.

        Without a tail this is the zero-copy read-only memmap.  With one,
        the memmap and tail are concatenated (cached until the next
        append) — a transient materialization that compaction removes.
        """
        if not self._tail.shape[0]:
            return self._data
        cached = self._values_cache
        if cached is not None and cached.shape[0] == len(self):
            return cached
        joined = np.concatenate([np.asarray(self._data), self._tail])
        self._values_cache = joined
        return joined

    def append_batch(self, values) -> int:
        """Append values to the in-memory tail; returns the new length.

        The on-disk file is untouched; the logical chunk surface and zone
        envelopes extend incrementally (only the chunks the batch lands in
        are updated, and the straddling chunk's envelope unions its
        persisted zone with the new rows — no disk reads).
        """
        tail = self._cast_append_values(values)
        if tail.size == 0:
            return len(self)
        old, new = self.tail_rows, self.tail_rows + tail.size
        self._tail_buffer = grown_buffer(self._tail_buffer, old, new)
        self._tail_buffer[old:new] = tail
        self._tail = self._tail_buffer[:new]
        self._extend_zones(self.base_rows + old)
        return len(self)

    def _extend_zones(self, start: int) -> None:
        """Fold rows ``[start, len)`` — one appended batch — into the zone
        envelopes of the chunks they land in: O(batch + chunks it spans)."""
        chunk_rows, base, n = self.chunk_rows, self.base_rows, len(self)
        known, total = self._zone_mins.shape[0], -(-n // chunk_rows)
        if self._zones_shared:  # a rename's clone reads these arrays too
            self._zone_min_buffer = self._zone_mins.copy()
            self._zone_max_buffer = self._zone_maxs.copy()
            self._zones_shared = False
        mins = self._zone_min_buffer = grown_buffer(self._zone_min_buffer, known, total)
        maxs = self._zone_max_buffer = grown_buffer(self._zone_max_buffer, known, total)
        for index in range(start // chunk_rows, total):
            lo_row, hi_row = max(start, index * chunk_rows), min(n, (index + 1) * chunk_rows)
            part = self._tail[lo_row - base : hi_row - base]
            # NaN tails poison the envelope on purpose: an unknown zone is
            # never pruned (np.minimum/maximum propagate NaN)
            lo, hi = part.min(), part.max()
            if index < known:  # a chunk with an envelope already: widen it
                lo, hi = np.minimum(lo, mins[index]), np.maximum(hi, maxs[index])
            mins[index], maxs[index] = lo, hi
        self._zone_mins, self._zone_maxs = mins[:total], maxs[:total]

    def rename(self, name: str) -> "PagedColumn":
        """A view of this column under ``name``: the same mapping, plus the
        append tail as it holds now.

        Like :meth:`Column.rename`'s clone it appends independently: rows
        appended to either column later belong to that column alone (the
        clone's tail is a full view, so its first append reallocates).
        Nothing is copied here; because an append widens the straddling
        chunk's zone envelope in place, whichever of the two appends first
        copies the zone arrays it shares (16 bytes a chunk).
        """
        clone = PagedColumn.__new__(PagedColumn)
        clone.__dict__.update(self.__dict__)
        clone.name = name
        clone._tail_buffer = self._tail
        clone._touched_chunks = set()
        clone._values_cache = None
        self._zones_shared = clone._zones_shared = True
        return clone

    def copy(self) -> "PagedColumn":
        """An independent copy: the mapped rows are immutable and appended
        rows are never rewritten, so a :meth:`rename` to the same name is
        one, and nothing is read into RAM."""
        return self.rename(self.name)

    # ------------------------------------------------------------------ #
    # chunk plumbing
    # ------------------------------------------------------------------ #
    @property
    def format(self) -> ColumnFormat:
        """The on-disk layout this column is served from."""
        return self._format

    @property
    def num_chunks(self) -> int:
        """How many logical chunks the column spans (tail included)."""
        if not self._tail.shape[0]:
            return self._format.num_chunks
        return -(-len(self) // self.chunk_rows)

    @property
    def chunk_rows(self) -> int:
        """Rows per chunk (the last chunk may be shorter)."""
        return self._format.chunk_rows

    @property
    def chunks_touched(self) -> int:
        """Distinct chunks this column has ever faulted in."""
        return len(self._touched_chunks)

    @property
    def fraction_chunks_touched(self) -> float:
        """Fraction of the column's chunks ever faulted in."""
        total = self.num_chunks
        return (len(self._touched_chunks) / total) if total else 1.0

    def chunk_range(self, index: int) -> tuple[object, object]:
        """The zonemap ``(min, max)`` of logical chunk ``index``.

        Persisted zones for on-disk chunks; incrementally maintained ones
        for chunks holding (or straddling into) appended tail rows.
        """
        if not 0 <= index < self.num_chunks:
            raise StorageError(
                f"chunk {index} out of range for column {self.name!r} "
                f"with {self.num_chunks} chunks"
            )
        return self._zone_mins[index], self._zone_maxs[index]

    def chunks_for_predicate(self, low, high) -> np.ndarray:
        """Chunk indices whose ``[min, max]`` overlaps ``[low, high]``.

        The zonemap pruning primitive: a select-where over a paged column
        need only fault in the chunks this returns.  Exclusion-form so it
        is conservative under NaN: a float chunk containing NaN has NaN
        zonemap bounds, every comparison on which is False — such a chunk
        is therefore *included*, never wrongly pruned.  Appended tail rows
        participate through their incrementally extended zones.
        """
        excluded = (self._zone_maxs < low) | (self._zone_mins > high)
        return np.flatnonzero(~excluded)

    def _chunk(self, index: int) -> np.ndarray:
        """Return logical chunk ``index``, faulting it into the chunk cache.

        Chunks containing appended tail rows are assembled on the fly and
        *not* cached — the tail grows under the cache's feet, and
        compaction (which reopens the column tail-free) restores cached
        service for them.
        """
        base = self.base_rows
        start = index * self.chunk_rows
        stop = min(len(self), start + self.chunk_rows)
        if stop <= base:
            cached = self._cache.get(self._cache_key, index)
            if cached is not None:
                return cached
            # a miss materializes the chunk from the mapped file: the one
            # disk-shaped step of the read path, so it gets its own span
            with trace_span("chunk_fault", column=self.name, chunk=index):
                chunk = np.array(self._data[start:stop])
                self._cache.put(self._cache_key, index, chunk)
            self._touched_chunks.add(index)
            return chunk
        tail_part = self._tail[max(0, start - base) : stop - base]
        if start >= base:
            return tail_part
        self._touched_chunks.add(index)
        return np.concatenate([np.asarray(self._data[start:base]), tail_part])

    # ------------------------------------------------------------------ #
    # the Column read surface: point/range reads by chunk, gathers by row
    # ------------------------------------------------------------------ #
    def value_at(self, rowid: int):
        """Return the value at ``rowid``, faulting in only its chunk."""
        if not 0 <= rowid < len(self):
            raise StorageError(
                f"rowid {rowid} out of range for column {self.name!r} of length {len(self)}"
            )
        base = self.base_rows
        if rowid >= base:
            return self._tail[rowid - base]
        index = rowid // self.chunk_rows
        chunk = self._chunk(index)
        return chunk[rowid - index * self.chunk_rows]

    def slice(self, start: int, stop: int) -> np.ndarray:
        """Values in ``[start, stop)``, assembled from the touched chunks."""
        start = max(0, int(start))
        stop = min(len(self), int(stop))
        if stop <= start:
            return self._data[:0]
        first = start // self.chunk_rows
        last = (stop - 1) // self.chunk_rows
        parts = []
        for index in range(first, last + 1):
            chunk_start = index * self.chunk_rows
            chunk = self._chunk(index)
            lo = max(0, start - chunk_start)
            hi = min(len(chunk), stop - chunk_start)
            parts.append(chunk[lo:hi])
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def raw_slice(self, start: int, stop: int) -> np.ndarray:
        """Values in ``[start, stop)`` straight off the memmap and tail.

        Bypasses the chunk cache entirely, so the index tier's scans never
        evict the chunks the gestures are reading (see the sorted-index
        module docstring).  Pure-tail ranges cost no I/O at all.
        """
        start = max(0, int(start))
        stop = min(len(self), int(stop))
        if stop <= start:
            return self._data[:0]
        base = self.base_rows
        if start >= base:
            return self._tail[start - base : stop - base]
        if stop <= base:
            return self._data[start:stop]
        return np.concatenate(
            [np.asarray(self._data[start:base]), self._tail[: stop - base]]
        )

    def read_batch(self, rowids: Sequence[int] | np.ndarray) -> np.ndarray:
        """``values[rowids]`` as one gather through the mapping (and tail).

        Costs O(rows read) whatever ``chunk_rows``, the cache size or the
        column size: no chunk is materialised and the chunk cache is not
        consulted (it only counts the gather).  Returns a fresh writable
        ``ndarray``; ``rowids`` are the caller's to bounds-check — a raw
        fancy index wraps negatives, so use :meth:`gather` when unsure.
        """
        idx = np.asarray(rowids, dtype=np.int64)
        self._cache.count_gather(idx.size)
        if not self._tail.shape[0]:
            return self._data[idx]
        base = self.base_rows
        in_base, in_tail = idx < base, idx >= base
        out = np.empty(idx.size, dtype=self._data.dtype)
        out[in_base] = self._data[idx[in_base]]
        out[in_tail] = self._tail[idx[in_tail] - base]
        return out

    def gather(self, rowids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Bounds-checked :meth:`read_batch` (the ``Column.gather`` contract)."""
        idx = np.asarray(rowids, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            raise StorageError(
                f"rowids out of range for column {self.name!r} of length {len(self)}"
            )
        return self.read_batch(idx)

    # ------------------------------------------------------------------ #
    # statistics from the zonemap (no data pages faulted)
    # ------------------------------------------------------------------ #
    def min(self):
        """Column minimum, answered from the (tail-extended) zonemap."""
        if not len(self):
            return None
        return chunk_min_max(self._zone_mins)[0]

    def max(self):
        """Column maximum, answered from the (tail-extended) zonemap."""
        if not len(self):
            return None
        return chunk_min_max(self._zone_maxs)[1]

    def mean(self) -> float | None:
        """Arithmetic mean over memmap and appended tail alike."""
        if not len(self) or not self.is_numeric:
            return None
        return float(self.values.mean())

    def std(self) -> float | None:
        """Population standard deviation over memmap and appended tail."""
        if not len(self) or not self.is_numeric:
            return None
        return float(self.values.std())

    def take_every(self, step: int, name_suffix: str = "") -> Column:
        """Strided sample over the full logical column (tail included)."""
        if step <= 0:
            raise StorageError("sampling step must be positive")
        return Column(self.name + name_suffix, self.values[::step], dtype=self.dtype)
