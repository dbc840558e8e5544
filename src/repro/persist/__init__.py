"""Out-of-core persistent storage: mmap-backed columns and snapshots.

Everything in :mod:`repro.storage` lives in process RAM; this subpackage
is the durable tier beneath it, built for the paper's core access
pattern — gestures touch only the data under the finger, which is exactly
what an out-of-core store exploits:

* :mod:`repro.persist.format` — the chunked on-disk column layout: fixed
  header, contiguous fixed-width data region (the chunk directory is pure
  arithmetic), per-chunk min/max zonemap;
* :mod:`repro.persist.diskstore` — :class:`DiskColumnStore` writing and
  mapping those files, with one byte-budgeted LRU :class:`ChunkCache`
  shared by all of a store's columns;
* :mod:`repro.persist.paged_column` — :class:`PagedColumn`, the
  ``Column`` read surface over a read-only memmap (row-granular
  gathers through the mapping, chunk-granular range reads through the
  cache), so every existing kernel/service layer explores
  larger-than-memory data unchanged and bit-identically;
* :mod:`repro.persist.snapshot` — :class:`StoreCatalog`, the versioned
  JSON manifest snapshotting table schemas *and* materialized sample
  hierarchies for near-instant warm cold-starts.

>>> import tempfile
>>> from repro import Column, DiskColumnStore, StoreCatalog
>>> store = DiskColumnStore(tempfile.mkdtemp(), cache_bytes=1 << 20)
>>> catalog = StoreCatalog(store)
>>> catalog.persist_column(Column("m", range(100_000)))
>>> reopened = catalog.load_column("m")        # mmap, no data read yet
>>> int(reopened.value_at(42_000))             # faults in one chunk
42000
>>> reopened.read_batch([7, 99_999]).tolist()  # gathers two rows, no chunk
[7, 99999]
"""

from repro.persist.diskstore import ChunkCache, ChunkCacheStats, DiskColumnStore
from repro.persist.format import DEFAULT_CHUNK_ROWS, ColumnFormat, read_format
from repro.persist.paged_column import PagedColumn
from repro.persist.snapshot import StoreCatalog

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "ChunkCache",
    "ChunkCacheStats",
    "ColumnFormat",
    "DiskColumnStore",
    "PagedColumn",
    "StoreCatalog",
    "read_format",
]
