"""The one adaptive index: a value-sorted rowid permutation per column.

A :class:`SortedIndex` answers range lookups over any numeric column —
an in-memory :class:`repro.storage.column.Column` or an mmap-backed
:class:`repro.persist.paged_column.PagedColumn` — without ever holding a
copy of the column's values in RAM.  A lookup takes one of two answers:

* **A scan of the chunks the zonemap keeps** (chunked columns only).
  When ``chunks_for_predicate`` (conservative under NaN) names at most
  :data:`SCAN_MAX_CHUNKS` chunks — any narrow range over a column
  clustered on the key — those chunks are masked straight off the
  mapping, in chunk order, so the answer is sorted with no extra sort.
  This holds no state at all: once a range is this well pruned a scan
  leaves an index little to win (Schuhknecht et al., *The Uncracked
  Pieces in Database Cracking*).
* **One value-sorted permutation** everywhere else: a range the zonemap
  cannot prune, and every range over an in-memory column, which has no
  zonemap.  The permutation holds the column's non-NaN rowids in value
  order, is built by the first such lookup and is cut into runs of ⌈√n⌉
  rowids fenced by their real first/last values.  An integer column
  whose value range packs beside the rowid bits is ordered by one
  in-place sort of ``uint64`` ``(value, rowid)`` keys, which yields the
  stable order; any other takes one stable ``np.argsort``.  Interior runs are
  taken whole, at most two boundary runs are filtered by gathering their
  values, so the cost follows the result, not the column.  Rows merged
  after the build are scanned as a gap until it outgrows
  :data:`PERMUTATION_GAP_SHARE` of the sorted rows; the next such lookup
  then rebuilds.

Both answers make the comparison ``Predicate.mask`` makes, in the
column's native dtype, so they agree with it bit for bit.  The
permutation is the index's only state, and it lives in RAM only: when the
manager's ``max_crackers`` cap unlinks the index, or the process
restarts, the next lookup rebuilds it.

**Why index scans read ``raw_slice``.**  The index reads straight off the
column (``column.raw_slice``, and ``column.read_batch`` gathers), which on
a paged column *bypasses* the store's ``ChunkCache``: a scan of up to
:data:`SCAN_MAX_CHUNKS` chunks, or a whole-column sort, read once through
the cache would evict the chunks the gestures' summary windows keep
coming back to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.errors import StorageError

#: Zonemap candidates up to which a lookup scans its chunks; past it the
#: zonemap does not prune and the value-sorted permutation answers.
SCAN_MAX_CHUNKS = 64
#: Rows merged past the value-sorted permutation, as a share of the rows it
#: sorts, beyond which the next permutation lookup rebuilds it instead of
#: scanning them.
PERMUTATION_GAP_SHARE = 1 / 16


@dataclass(frozen=True)
class _SortedRuns:
    """The non-NaN rowids of ``[0, covered)`` in value order, in runs of
    ``run_rows`` fenced by each run's first (``lows``) and last (``highs``)
    value in the column's native dtype."""

    rowids: np.ndarray
    run_rows: int
    lows: np.ndarray
    highs: np.ndarray
    covered: int

    @property
    def nbytes(self) -> int:
        return int(self.rowids.nbytes + self.lows.nbytes + self.highs.nbytes)


def _cut_runs(
    order: np.ndarray, fence: Callable[[np.ndarray], np.ndarray], covered: int
) -> _SortedRuns:
    """Cut a value-ordered rowid array into ⌈√n⌉-row runs; ``fence(at)``
    returns the values at positions ``at`` of ``order``."""
    n = int(order.size)
    run_rows = math.isqrt(max(n - 1, 0)) + 1  # ceil(sqrt(n))
    starts = np.arange(0, n, run_rows)
    return _SortedRuns(
        rowids=order.astype(np.int32 if covered < 2**31 else np.int64, copy=False),
        run_rows=run_rows,
        lows=fence(starts),
        highs=fence(np.minimum(starts + run_rows, n) - 1),
        covered=covered,
    )


def _in_range(values: np.ndarray, low: float, high: float) -> np.ndarray:
    """``low <= values < high`` in the values' own dtype — the comparison
    ``Predicate.mask`` makes.  An infinite ``high`` bounds nothing: +inf
    rows match GT / GE."""
    mask = values >= low
    if high != math.inf:
        mask &= values < high
    return mask


class SortedIndex:
    """Adaptive range index over one numeric column (see module docstring)."""

    def __init__(self, column: Any):
        if not column.is_numeric:
            raise StorageError("an index requires a numeric column")
        self.column = column
        self._num_rows = len(column)
        # a paged column: it exposes the zonemap's chunk surface
        self._chunked = hasattr(column, "chunks_for_predicate")
        # the value-sorted permutation (built by the first lookup that needs it)
        self._sorted: _SortedRuns | None = None
        #: values inspected by lookups: the measure behind ``RangeSelection.rows_scanned``
        self.values_scanned_total = 0

    @property
    def size_bytes(self) -> int:
        """Bytes held in memory: the permutation's, once built."""
        return 0 if self._sorted is None else self._sorted.nbytes

    @property
    def covered_rows(self) -> int:
        """Rows inside the validity window ``[0, covered_rows)``.

        Frozen when the index is built; rows appended to the column since
        then are scanned by the manager until :meth:`merge_tail` advances
        the window.
        """
        return self._num_rows

    @property
    def tail_rows(self) -> int:
        """Appended rows beyond the validity window, not yet merged in."""
        return len(self.column) - self._num_rows

    def merge_tail(self) -> int:
        """Advance the validity window over appended rows; returns them.

        O(1): nothing moves.  The chunk scan reads merged rows where they
        lie, and for the permutation they are the gap its lookups scan.
        """
        merged = len(self.column) - self._num_rows
        if merged <= 0:
            return 0
        self._num_rows += merged
        return merged

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def _candidates(self, low: float, high: float) -> list[int]:
        # chunks_for_predicate is closed-interval and NaN-conservative;
        # for our half-open [low, high) it can only over-include, and the
        # mask restores exactness.  Chunks lying entirely beyond the
        # validity window hold only appended rows — those are the
        # manager's tail scan, not ours.
        chunk_rows = int(self.column.chunk_rows)
        return [
            index
            for index in self.column.chunks_for_predicate(low, high)
            if index * chunk_rows < self._num_rows
        ]

    def _scan_lookup(self, chunks: list[int], low: float, high: float) -> np.ndarray:
        """``[low, high)`` by masking ``chunks`` in ascending order, each run
        of adjacent chunks as one slice clamped to the validity window;
        sorted."""
        chunk_rows = int(self.column.chunk_rows)
        parts = [np.empty(0, dtype=np.int64)]
        runs = np.split(chunks, np.flatnonzero(np.diff(chunks) != 1) + 1) if chunks else []
        for run in runs:  # a range over a clustered column is one run
            start = int(run[0]) * chunk_rows
            stop = min((int(run[-1]) + 1) * chunk_rows, self._num_rows)
            values = np.asarray(self.column.raw_slice(start, stop))
            self.values_scanned_total += stop - start
            parts.append(np.flatnonzero(_in_range(values, low, high)) + start)
        return np.concatenate(parts)

    def _sorted_runs(self) -> _SortedRuns:
        """The permutation, (re)built when missing or when the rows merged
        past it outgrow :data:`PERMUTATION_GAP_SHARE` of it.

        Read straight off ``raw_slice``.  An integer column whose value
        range (a paged column's zonemap, an in-memory column's min/max)
        fits in ``64 - bits`` bits (``bits`` those of the largest rowid)
        sorts packed ``uint64`` keys ``(value - lo) << bits | rowid`` in
        place — one vectorised sort, ties in rowid order, so the
        permutation equals a stable argsort.  The rows are cast straight
        into the keys (a paged column's base and tail separately, never
        joined into a copy first), the rowids are masked back out into the
        ``uint32`` buffer that supplied them, and only the fence keys are
        decoded: 12 bytes a row at the peak.  Any other column takes one
        stable ``np.argsort``, which parks NaN rows last, where they are cut
        off — no range holds a NaN.  Either way the permutation is the
        stable order.
        """
        runs, covered = self._sorted, self._num_rows
        if runs is not None and covered - runs.covered <= runs.covered * PERMUTATION_GAP_SHARE:
            return runs
        column, bits = self.column, (covered - 1).bit_length()
        dtype = column.dtype.numpy_dtype
        packable = dtype.kind in "iu" and covered < 2**31
        if packable:
            lo, hi = column.min(), column.max()  # a superset of the prefix's range
            packable = int(hi) - int(lo) < 1 << (64 - bits)
        if packable:
            offset = np.uint64(int(lo) % 2**64)
            edges = (0, min(column.base_rows, covered), covered) if self._chunked else (0, covered)
            parts = [column.raw_slice(start, stop) for start, stop in zip(edges, edges[1:])]
            keys = np.concatenate(parts, dtype=np.uint64, casting="unsafe")
            keys -= offset
            keys <<= bits
            order = np.arange(covered, dtype=np.uint32)
            keys |= order
            keys.sort()
            np.bitwise_and(keys, (1 << bits) - 1, out=order, casting="unsafe")

            def fence(at: np.ndarray) -> np.ndarray:
                return ((keys[at] >> bits) + offset).astype(dtype)

            self._sorted = _cut_runs(order.view(np.int32), fence, covered)
        else:
            values = np.asarray(column.raw_slice(0, covered))
            order = np.argsort(values, kind="stable")
            if np.issubdtype(values.dtype, np.floating):
                order = order[: covered - int(np.count_nonzero(np.isnan(values)))]
            self._sorted = _cut_runs(order, lambda at: values[order[at]], covered)
        return self._sorted

    def _sorted_lookup(self, low: float, high: float) -> np.ndarray:
        """``[low, high)`` from the value-sorted permutation, plus a scan of
        the rows merged since it was built; sorted."""
        runs = self._sorted_runs()
        rowids, size = runs.rowids, runs.run_rows
        # on real values, in value order, the matches are one contiguous
        # stretch, so the runs it touches are contiguous and all but the end
        # two whole (an infinite high bounds nothing, as in _in_range)
        open_top = high == math.inf
        touched = np.flatnonzero((runs.highs >= low) & ((runs.lows < high) | open_top))
        whole = (runs.lows >= low) & ((runs.highs < high) | open_top)
        parts = [rowids[:0]]
        if touched.size:
            first, last = int(touched[0]), int(touched[-1])
            inner_first = first if whole[first] else first + 1
            inner_last = last if whole[last] else last - 1
            parts.append(rowids[inner_first * size : (inner_last + 1) * size])
            for run in sorted({first, last}):
                if not whole[run]:
                    edge = rowids[run * size : (run + 1) * size]
                    values = self.column.read_batch(edge)  # one gather, no chunk cache
                    self.values_scanned_total += int(edge.size)
                    parts.append(edge[_in_range(values, low, high)])
        gap = np.asarray(self.column.raw_slice(runs.covered, self._num_rows))
        self.values_scanned_total += int(gap.size)
        hits = np.flatnonzero(_in_range(gap, low, high)) + runs.covered
        return np.concatenate([np.sort(np.concatenate(parts)).astype(np.int64), hits])

    def rowids_in_range(self, low: float, high: float) -> np.ndarray:
        """Rowids of the validity window whose values lie in ``[low, high)``,
        sorted.

        On a chunked column at most :data:`SCAN_MAX_CHUNKS` zonemap
        candidates are scanned; more — a huge predicate, or any range over a
        column not clustered on the key — and every range over an in-memory
        column answer from the value-sorted permutation instead, so no
        lookup visits the whole column.
        """
        if math.isnan(low) or math.isnan(high):
            return np.empty(0, dtype=np.int64)
        if high < low:
            raise StorageError("range lookup requires low <= high")
        if self._chunked:
            candidates = self._candidates(low, high)
            if len(candidates) <= SCAN_MAX_CHUNKS:
                return self._scan_lookup(candidates, low, high)
        return self._sorted_lookup(low, high)
