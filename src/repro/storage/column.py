"""Fixed-width columns backed by dense numpy arrays.

A :class:`Column` is the fundamental storage unit in dbTouch.  It is a
dense, fixed-width array of values; tuple identifiers (rowids) are simply
positions in the array, which is what makes the touch → rowid mapping a
constant-time arithmetic operation (the "Rule of Three" in the paper).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import IngestError, StorageError
from repro.storage.dtypes import FixedWidthType, infer_type

#: Number of values that share a cache line for the default 64-byte line
#: and 8-byte fields.  Interactive summaries default their half-window to
#: this so a single touch inspects at least one full cache line.
CACHE_LINE_VALUES = 8


def grown_buffer(buffer: np.ndarray, length: int, needed: int) -> np.ndarray:
    """``buffer`` if it holds ``needed`` rows, else a doubled copy of its prefix.

    The one growth rule of every append path (column, paged tail, zone
    envelopes): a full buffer is reallocated once to ``max(needed, 2 * length)``
    carrying its first ``length`` rows, so n appends reallocate O(log n) times.
    """
    if needed <= buffer.shape[0]:
        return buffer
    grown = np.empty(max(needed, 2 * length), dtype=buffer.dtype)
    grown[:length] = buffer[:length]
    return grown


class Column:
    """A named, typed, fixed-width column of values.

    Parameters
    ----------
    name:
        Column name as shown on data objects.
    values:
        Anything convertible to a 1-D numpy array.
    dtype:
        Optional explicit :class:`FixedWidthType`; inferred when omitted.
    """

    def __init__(
        self,
        name: str,
        values: Iterable,
        dtype: FixedWidthType | None = None,
    ) -> None:
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        if arr.ndim != 1:
            raise StorageError(f"column {name!r} requires 1-D data, got shape {arr.shape}")
        self.name = name
        self.dtype = dtype if dtype is not None else infer_type(arr)
        # _data is the logical-length array every read uses; _buffer is the
        # capacity it is a prefix view of (capacity == length until an append)
        self._data = self._buffer = self.dtype.cast(arr)

    def __getstate__(self) -> dict:
        # copies and pickles carry the logical array only, never spare capacity
        return {**self.__dict__, "_buffer": self._data}

    # ------------------------------------------------------------------ #
    # basic container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self._data.shape[0])

    def __iter__(self) -> Iterator:
        return iter(self._data)

    def __getitem__(self, item):
        return self._data[item]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Column(name={self.name!r}, dtype={self.dtype.name}, n={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return (
            self.name == other.name
            and self.dtype.name == other.dtype.name
            and len(self) == len(other)
            and bool(np.array_equal(self._data, other._data))
        )

    def __hash__(self) -> int:  # columns are mutable-ish containers
        return id(self)

    # ------------------------------------------------------------------ #
    # data access
    # ------------------------------------------------------------------ #
    @property
    def values(self) -> np.ndarray:
        """The underlying dense numpy array (read it, do not resize it)."""
        return self._data

    @property
    def size_bytes(self) -> int:
        """Total bytes occupied by the column's fixed-width fields."""
        return len(self) * self.dtype.width_bytes

    @property
    def is_numeric(self) -> bool:
        """Whether the column supports arithmetic aggregation."""
        return self.dtype.is_numeric

    def value_at(self, rowid: int):
        """Return the single value stored at ``rowid``.

        Raises
        ------
        StorageError
            If ``rowid`` is outside ``[0, len(self))``.
        """
        if not 0 <= rowid < len(self):
            raise StorageError(
                f"rowid {rowid} out of range for column {self.name!r} of length {len(self)}"
            )
        return self._data[rowid]

    def slice(self, start: int, stop: int) -> np.ndarray:
        """Return values in ``[start, stop)``, clamped to the column bounds."""
        start = max(0, int(start))
        stop = min(len(self), int(stop))
        if stop <= start:
            return self._data[:0]
        return self._data[start:stop]

    def raw_slice(self, start: int, stop: int) -> np.ndarray:
        """:meth:`slice` for index scans: a read that never evicts the
        gestures' chunks.  In memory every read is one;
        :class:`repro.persist.paged_column.PagedColumn` bypasses its chunk cache."""
        return self.slice(start, stop)

    def gather(self, rowids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Return the values at the given rowids (fancy indexing)."""
        idx = np.asarray(rowids, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            raise StorageError(
                f"rowids out of range for column {self.name!r} of length {len(self)}"
            )
        return self._data[idx]

    def read_batch(self, rowids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Gather values for an array of already-validated rowids.

        The batched read primitive of the kernel's vectorized paths
        (:meth:`repro.storage.sample.SampleHierarchy.read_batch`, the batch
        slide executor): semantically ``values[rowids]``, but overridable —
        :class:`repro.persist.paged_column.PagedColumn` gathers through
        its mapped file and append tail, so a gesture over an out-of-core
        column reads only the rows under the finger.  Callers are expected to
        have bounds-checked ``rowids``; use :meth:`gather` for the checked
        variant.
        """
        return self._data[np.asarray(rowids, dtype=np.int64)]

    # ------------------------------------------------------------------ #
    # live ingestion
    # ------------------------------------------------------------------ #
    def _cast_append_values(self, values: Iterable) -> np.ndarray:
        """Validate and cast an append batch to this column's dtype.

        Dtype drift is refused with :class:`repro.errors.IngestError`
        rather than silently rounded through ``astype``: numeric appends
        must be ``same_kind``-castable (ints may widen into floats, floats
        may never truncate into ints) and string appends must fit the
        declared fixed width.
        """
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        if arr.ndim != 1:
            raise IngestError(
                f"append to column {self.name!r} requires 1-D data, got shape {arr.shape}"
            )
        target = self.dtype.numpy_dtype
        rule = "safe" if target.kind in ("U", "S") else "same_kind"
        if arr.size and arr.dtype.kind in ("U", "S", "O") and target.kind in ("U", "S"):
            arr = arr.astype(str)
        if arr.size and not np.can_cast(arr.dtype, target, casting=rule):
            raise IngestError(
                f"append to column {self.name!r} would drift dtype "
                f"{arr.dtype} -> {self.dtype.name}"
            )
        return arr.astype(target, copy=False)

    def append_batch(self, values: Iterable) -> int:
        """Append a batch of values in place; returns the new length.

        Amortised O(len(values)), whatever the column holds: the batch is
        written into spare capacity behind the data and ``values`` is
        re-pointed at the longer view; a full buffer doubles
        (:func:`grown_buffer`).  The longer view appears under the *same*
        object, so every holder of this column — catalog registrations,
        shown views, identity-keyed index state — observes the new tail
        without rebinding, and a ``values`` array captured earlier stays a
        valid prefix: existing rows are never rewritten.  (Renamed clones
        made before the append keep their own length; appends target the
        registered object.)
        """
        tail = self._cast_append_values(values)
        if tail.size == 0:
            return len(self)
        old, new = len(self), len(self) + tail.size
        self._buffer = grown_buffer(self._buffer, old, new)
        self._buffer[old:new] = tail
        self._data = self._buffer[:new]
        return new

    # ------------------------------------------------------------------ #
    # derived columns
    # ------------------------------------------------------------------ #
    def rename(self, name: str) -> "Column":
        """Return a view of this column under a different name."""
        clone = Column.__new__(Column)
        clone.name = name
        clone.dtype = self.dtype
        clone._data = clone._buffer = self._data
        return clone

    def take_every(self, step: int, name_suffix: str = "") -> "Column":
        """Return a strided sample of this column (every ``step``-th value).

        Used by the sample hierarchy: level *i* keeps every ``base**i``-th
        value so coarse-granularity slides feed from a much smaller array.
        """
        if step <= 0:
            raise StorageError("sampling step must be positive")
        sampled = self._data[::step]
        return Column(self.name + name_suffix, sampled, dtype=self.dtype)

    def copy(self) -> "Column":
        """Return a deep copy of this column."""
        clone = Column.__new__(Column)
        clone.name = self.name
        clone.dtype = self.dtype
        clone._data = clone._buffer = self._data.copy()
        return clone

    # ------------------------------------------------------------------ #
    # statistics helpers
    # ------------------------------------------------------------------ #
    def min(self):
        """Minimum value, or ``None`` for an empty column."""
        return self._data.min() if len(self) else None

    def max(self):
        """Maximum value, or ``None`` for an empty column."""
        return self._data.max() if len(self) else None

    def mean(self) -> float | None:
        """Arithmetic mean, or ``None`` for empty or non-numeric columns."""
        if not len(self) or not self.is_numeric:
            return None
        return float(self._data.mean())

    def std(self) -> float | None:
        """Population standard deviation, or ``None`` when undefined."""
        if not len(self) or not self.is_numeric:
            return None
        return float(self._data.std())
