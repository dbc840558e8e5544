"""The on-disk chunked column format of the persistent storage tier.

One column lives in one file::

    +------------------+---------------------------+---------------------+
    | header (128 B)   | data: num_rows values     | zonemap: per-chunk  |
    | magic, version,  | in the column's fixed-    | min then max arrays |
    | row/chunk counts,| width dtype, contiguous   | (num_chunks values  |
    | dtype name,      | (chunk i = rows           | each, column dtype) |
    | region offsets   | [i*chunk_rows, ...))      |                     |
    +------------------+---------------------------+---------------------+

Fixed-width values and a fixed chunk size mean the chunk directory needs
no stored offsets: chunk ``i`` starts at ``data_offset + i * chunk_rows *
itemsize`` — the same Rule-of-Three arithmetic that maps touches to
rowids maps rowids to disk pages.  The data region is laid out so a
single read-only ``np.memmap`` over it *is* the column: the OS pages in
only what a gesture touches, and N serving sessions share one mapping.

The per-chunk min/max zonemap is written behind the data so statistics
survive restarts: :class:`repro.persist.paged_column.PagedColumn` answers
``min()``/``max()`` from it without faulting a single data page, and
predicate scans can skip chunks whose range cannot match.

:class:`ColumnFormat` is the codec for the header plus the layout
arithmetic; malformed, truncated or foreign-version files raise
:class:`repro.errors.PersistFormatError`.
"""

from __future__ import annotations

import itertools
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import PersistFormatError
from repro.storage.dtypes import FixedWidthType, type_from_name

#: File magic: identifies a dbTouch persistent column file.
MAGIC = b"DBTCOL01"
#: Version of the physical layout described in this module.
FORMAT_VERSION = 1
#: Fixed byte size of the header region (struct + zero padding).
HEADER_SIZE = 128
#: Default number of rows per chunk (512 KiB of int64 values).
DEFAULT_CHUNK_ROWS = 65_536

# magic, version, header size, num_rows, chunk_rows, data offset,
# stats offset, dtype name (utf-8, NUL padded)
_HEADER = struct.Struct("<8sIIQQQQ32s")
_TMP_COUNTER = itertools.count()


@contextmanager
def atomic_replace(path: Path, mode: str = "wb"):
    """Write ``path`` through a per-writer temp file (pid + counter in its name)
    renamed over it on a clean exit: concurrent writers of one target never share
    a file, a reader never sees a partial write, and a failed write leaves ``path``
    as it was, its temp file removed."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@dataclass(frozen=True)
class ColumnFormat:
    """Layout description of one on-disk column: the decoded header.

    Attributes
    ----------
    dtype_name:
        Name of the column's :class:`repro.storage.dtypes.FixedWidthType`
        (``"int64"``, ``"float64"``, ``"str12"``, ...).
    num_rows:
        Total values stored in the data region.
    chunk_rows:
        Rows per chunk; the last chunk may be shorter.
    """

    dtype_name: str
    num_rows: int
    chunk_rows: int

    def __post_init__(self) -> None:
        if self.num_rows < 0:
            raise PersistFormatError("num_rows cannot be negative")
        if self.chunk_rows <= 0:
            raise PersistFormatError("chunk_rows must be positive")

    # ------------------------------------------------------------------ #
    # layout arithmetic
    # ------------------------------------------------------------------ #
    @property
    def dtype(self) -> FixedWidthType:
        """The column's fixed-width type (resolved from the stored name)."""
        return type_from_name(self.dtype_name)

    @property
    def itemsize(self) -> int:
        """Bytes per stored value."""
        return self.dtype.width_bytes

    @property
    def num_chunks(self) -> int:
        """How many chunks the data region is divided into."""
        return (self.num_rows + self.chunk_rows - 1) // self.chunk_rows

    @property
    def data_offset(self) -> int:
        """Byte offset of the data region."""
        return HEADER_SIZE

    @property
    def data_bytes(self) -> int:
        """Total bytes of the data region."""
        return self.num_rows * self.itemsize

    @property
    def stats_offset(self) -> int:
        """Byte offset of the zonemap region (min array, then max array)."""
        return self.data_offset + self.data_bytes

    @property
    def stats_bytes(self) -> int:
        """Total bytes of the zonemap region."""
        return 2 * self.num_chunks * self.itemsize

    @property
    def file_size(self) -> int:
        """Expected total file size for this layout."""
        return self.stats_offset + self.stats_bytes

    # ------------------------------------------------------------------ #
    # header codec
    # ------------------------------------------------------------------ #
    def to_header(self) -> bytes:
        """Encode this layout as the fixed :data:`HEADER_SIZE`-byte header."""
        name = self.dtype_name.encode("utf-8")
        if len(name) > 32:
            raise PersistFormatError(f"dtype name too long to store: {self.dtype_name!r}")
        packed = _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            HEADER_SIZE,
            self.num_rows,
            self.chunk_rows,
            self.data_offset,
            self.stats_offset,
            name,
        )
        return packed.ljust(HEADER_SIZE, b"\0")

    @classmethod
    def from_header(cls, raw: bytes) -> "ColumnFormat":
        """Decode a header; raises :class:`PersistFormatError` when invalid."""
        if len(raw) < HEADER_SIZE:
            raise PersistFormatError(
                f"truncated header: {len(raw)} bytes, expected {HEADER_SIZE}"
            )
        magic, version, header_size, num_rows, chunk_rows, data_off, stats_off, name_raw = (
            _HEADER.unpack_from(raw)
        )
        if magic != MAGIC:
            raise PersistFormatError(f"bad magic {magic!r}; not a dbTouch column file")
        if version != FORMAT_VERSION:
            raise PersistFormatError(
                f"unsupported column format version {version} (supported: {FORMAT_VERSION})"
            )
        if header_size != HEADER_SIZE:
            raise PersistFormatError(f"unexpected header size {header_size}")
        fmt = cls(
            dtype_name=name_raw.rstrip(b"\0").decode("utf-8"),
            num_rows=int(num_rows),
            chunk_rows=int(chunk_rows),
        )
        try:
            fmt.dtype
        except Exception as exc:
            raise PersistFormatError(f"unknown stored dtype {fmt.dtype_name!r}") from exc
        if data_off != fmt.data_offset or stats_off != fmt.stats_offset:
            raise PersistFormatError(
                "header offsets disagree with the declared layout "
                f"(data {data_off} != {fmt.data_offset} or stats {stats_off} != "
                f"{fmt.stats_offset})"
            )
        return fmt


def read_format(path: str | Path) -> ColumnFormat:
    """Read and validate the header of a column file (truncation-checked)."""
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            raw = handle.read(HEADER_SIZE)
    except OSError as exc:
        raise PersistFormatError(f"cannot read column file {path}: {exc}") from exc
    fmt = ColumnFormat.from_header(raw)
    actual = path.stat().st_size
    if actual < fmt.file_size:
        raise PersistFormatError(
            f"column file {path} is truncated: {actual} bytes, expected {fmt.file_size}"
        )
    return fmt


def chunk_min_max(values: np.ndarray) -> tuple[object, object]:
    """Min and max of one chunk, tolerating fixed-width string dtypes.

    numpy's ``min``/``max`` ufuncs have no unicode loop, so string chunks
    reduce through Python's ordering (same lexicographic result).
    """
    if values.dtype.kind in ("U", "S"):
        as_list = values.tolist()
        return min(as_list), max(as_list)
    return values.min(), values.max()


def read_zonemap(path: str | Path, fmt: ColumnFormat) -> tuple[np.ndarray, np.ndarray]:
    """Read the (min, max) zonemap arrays from a column file."""
    np_dtype = fmt.dtype.numpy_dtype
    if fmt.num_chunks == 0:
        empty = np.empty(0, dtype=np_dtype)
        return empty, empty.copy()
    with open(path, "rb") as handle:
        handle.seek(fmt.stats_offset)
        raw = handle.read(fmt.stats_bytes)
    if len(raw) < fmt.stats_bytes:
        raise PersistFormatError(f"column file {path} has a truncated zonemap region")
    stats = np.frombuffer(raw, dtype=np_dtype)
    return stats[: fmt.num_chunks].copy(), stats[fmt.num_chunks :].copy()
