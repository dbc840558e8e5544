"""Data loading helpers.

dbTouch is an exploration tool: there should be no expensive initialization
step before the user can start touching data.  The loaders here therefore
support (a) eager loading of in-memory arrays and CSV text and (b) an
*adaptive* loader that registers an object immediately and materializes its
data lazily, in chunks, the first time a touch actually lands on it —
mirroring the adaptive-loading (NoDB-style) work the paper cites.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import LoaderError, StorageError
from repro.storage.column import Column
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.persist.diskstore import DiskColumnStore
    from repro.persist.paged_column import PagedColumn


def _convert_csv_column(values: list[str]) -> np.ndarray:
    """Convert one CSV column to the narrowest numpy array that fits it."""
    try:
        return np.asarray([int(v) for v in values], dtype=np.int64)
    except ValueError:
        pass
    try:
        return np.asarray([float(v) for v in values], dtype=np.float64)
    except ValueError:
        pass
    return np.asarray(values, dtype=str)


def load_table_from_csv_text(name: str, text: str, delimiter: str = ",") -> Table:
    """Parse CSV ``text`` (with a header row) into a table.

    Numeric columns are detected automatically; everything else is stored
    as fixed-width strings.
    """
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    rows = [row for row in reader if row]
    if len(rows) < 2:
        raise StorageError("CSV input needs a header row and at least one data row")
    header, *body = rows
    width = len(header)
    for i, row in enumerate(body):
        if len(row) != width:
            raise StorageError(f"CSV row {i + 1} has {len(row)} fields, expected {width}")
    columns = []
    for j, col_name in enumerate(header):
        raw = [row[j] for row in body]
        columns.append(Column(col_name.strip(), _convert_csv_column(raw)))
    return Table(name, columns)


def load_table_from_csv_file(
    name: str,
    path: str | Path,
    delimiter: str = ",",
    encoding: str = "utf-8",
) -> Table:
    """Load a CSV file from disk into a table.

    ``encoding`` names the file's text encoding (default UTF-8).  A
    missing/unreadable file or one that does not decode under the given
    encoding raises :class:`repro.errors.LoaderError` with the path and
    cause, never a raw ``FileNotFoundError``/``UnicodeDecodeError``.
    """
    try:
        with open(path, "r", encoding=encoding) as handle:
            text = handle.read()
    except OSError as exc:
        raise LoaderError(f"cannot read CSV file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise LoaderError(
            f"CSV file {path} is not valid {encoding}: {exc}; "
            "pass encoding= to match the file"
        ) from exc
    except LookupError as exc:
        raise LoaderError(f"unknown text encoding {encoding!r}") from exc
    return load_table_from_csv_text(name, text, delimiter=delimiter)


class AdaptiveLoader:
    """Lazily materialize a column the first time its data is touched.

    The loader registers only metadata (name and row count) up front.  The
    actual values are produced chunk by chunk from a generator function the
    first time a rowid inside the chunk is requested, which keeps the
    "instant access, no initialization" property the paper asks for.
    """

    def __init__(
        self,
        name: str,
        num_rows: int,
        chunk_generator: Callable[[int, int], np.ndarray],
        chunk_rows: int = 65536,
    ) -> None:
        if num_rows < 0:
            raise StorageError("num_rows must be non-negative")
        if chunk_rows <= 0:
            raise StorageError("chunk_rows must be positive")
        self.name = name
        self.num_rows = num_rows
        self.chunk_rows = chunk_rows
        self._generator = chunk_generator
        self._chunks: dict[int, np.ndarray] = {}
        self.chunks_loaded = 0

    def _chunk_index(self, rowid: int) -> int:
        return rowid // self.chunk_rows

    def _produce_chunk(self, chunk_index: int) -> np.ndarray:
        """Generate one chunk without retaining it (streaming reads)."""
        start = chunk_index * self.chunk_rows
        stop = min(self.num_rows, start + self.chunk_rows)
        values = np.asarray(self._generator(start, stop))
        if len(values) != stop - start:
            raise StorageError(
                f"chunk generator returned {len(values)} values for range "
                f"[{start}, {stop})"
            )
        return values

    def _ensure_chunk(self, chunk_index: int) -> np.ndarray:
        if chunk_index not in self._chunks:
            self._chunks[chunk_index] = self._produce_chunk(chunk_index)
            self.chunks_loaded += 1
        return self._chunks[chunk_index]

    def value_at(self, rowid: int):
        """Return the value at ``rowid``, loading its chunk on first access."""
        if not 0 <= rowid < self.num_rows:
            raise StorageError(f"rowid {rowid} out of range for adaptive column {self.name!r}")
        chunk = self._ensure_chunk(self._chunk_index(rowid))
        return chunk[rowid - self._chunk_index(rowid) * self.chunk_rows]

    @property
    def fraction_loaded(self) -> float:
        """Fraction of chunks materialized so far."""
        total = (self.num_rows + self.chunk_rows - 1) // self.chunk_rows
        if total == 0:
            return 1.0
        return self.chunks_loaded / total

    def materialize(self) -> Column:
        """Force-load every chunk and return the full column."""
        total = (self.num_rows + self.chunk_rows - 1) // self.chunk_rows
        parts = [self._ensure_chunk(i) for i in range(total)]
        values = np.concatenate(parts) if parts else np.empty(0)
        return Column(self.name, values)

    # ------------------------------------------------------------------ #
    # the out-of-core tier
    # ------------------------------------------------------------------ #
    def persist_to(self, store: "DiskColumnStore", name: str | None = None) -> "PagedColumn":
        """Stream this loader's chunks into a persistent column store.

        Chunks flow straight from the generator to disk — already-loaded
        chunks are reused, missing ones are produced on the fly and *not*
        retained — so a column far larger than RAM persists without ever
        being fully resident.  Returns the freshly opened
        :class:`repro.persist.paged_column.PagedColumn` over the written
        file; the zonemap and chunk layout match this loader's chunking.
        The dtype is inferred from the first chunk; a later chunk that
        cannot be stored losslessly under it (e.g. floats after an
        all-integer first chunk) fails the write with
        :class:`repro.errors.PersistError` rather than truncating.
        """
        from repro.storage.dtypes import infer_type

        target = name if name is not None else self.name
        total = (self.num_rows + self.chunk_rows - 1) // self.chunk_rows
        if total == 0:
            raise StorageError(
                f"cannot persist empty adaptive column {self.name!r}: "
                "its dtype is unknown until a chunk exists"
            )

        first = self._chunks.get(0)
        if first is None:
            first = self._produce_chunk(0)  # generated once: inference + write
        dtype = infer_type(first)

        def stream():
            yield first
            for index in range(1, total):
                cached = self._chunks.get(index)
                yield cached if cached is not None else self._produce_chunk(index)
        store.write_chunks(
            target, dtype, self.num_rows, stream(), chunk_rows=self.chunk_rows
        )
        return store.open_column(target)

    @classmethod
    def load_from(
        cls, store: "DiskColumnStore", name: str, chunk_rows: int | None = None
    ) -> "AdaptiveLoader":
        """An adaptive loader whose chunks come from a persistent store.

        The inverse of :meth:`persist_to`: the returned loader registers
        only metadata (the stored row count) and faults each chunk from
        the store's paged column — through its chunk cache — the first
        time a touch lands inside it.  ``chunk_rows`` defaults to the
        stored chunk size, keeping loader chunks and disk chunks aligned.
        """
        paged = store.open_column(name)
        rows = chunk_rows if chunk_rows is not None else paged.chunk_rows
        return cls(
            name,
            len(paged),
            lambda start, stop: paged.slice(start, stop),
            chunk_rows=rows,
        )


def generate_integer_column(
    name: str,
    num_rows: int,
    low: int = 0,
    high: int = 1_000_000,
    seed: int = 7,
) -> Column:
    """Generate a uniformly random integer column (the Figure 4 workload).

    The paper's evaluation uses a column of 10^7 integer values; this helper
    produces the equivalent synthetic data deterministically from ``seed``.
    """
    if num_rows < 0:
        raise StorageError("num_rows must be non-negative")
    if high <= low:
        raise StorageError("high must be greater than low")
    rng = np.random.default_rng(seed)
    return Column(name, rng.integers(low, high, size=num_rows, dtype=np.int64))
