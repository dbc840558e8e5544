"""Data loading helpers.

dbTouch is an exploration tool: there should be no expensive initialization
step before the user can start touching data.  The loaders here read CSV
text or files into tables and generate the synthetic integer column of the
paper's Figure 4.  A column larger than RAM streams into a
:class:`repro.persist.diskstore.DiskColumnStore` with ``write_chunks``
instead, chunk by chunk, and is read back through its chunk cache.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from repro.errors import LoaderError, StorageError
from repro.storage.column import Column
from repro.storage.table import Table


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
