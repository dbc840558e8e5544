"""The one adaptive index: a column's rows as value-sorted runs.

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
* **Value-sorted runs** everywhere else: a range the zonemap cannot
  prune, and every range over an in-memory column, which has no zonemap.
  The first such lookup sorts the validity window into *run 0*; each
  later :meth:`SortedIndex.merge_tail` sorts only the rows it merges into
  a new run behind it, so the runs cover adjacent rowid ranges in rowid
  order (adaptive merging, Graefe & Kuno, EDBT 2010; the log-structured
  merge-tree, O'Neil et al., 1996).  A run is one of two kinds:

  - *packed*: an integer column whose value range packs beside the
    rowid bits keeps its sorted ``uint64`` keys ``(value - lo) << bits |
    rowid`` — 8 bytes a row, 12 at the build's peak (the keys and the
    ``uint32`` rowids ORed into them).  Ties sort in rowid order, so the
    keys are the stable value order.  Tail runs share run 0's ``(lo,
    bits)``; ``bits`` leaves room for the :data:`FOLD_SHARE` more rows a
    merge may add before it folds.  A lookup binary-searches every run
    for its range's key bounds and rotates only the hits to ``rowid <<
    (64 - bits) | (value - lo)``: one sort of the hits yields the rowids
    *and* their values in rowid order, and the column is not read.
  - *permutation*: any other column — floats, integers whose range is
    too wide, and appended rows whose values leave run 0's window —
    keeps its non-NaN rowids in stable value order (one stable
    ``np.argsort``, which parks NaN rows last, where they are cut off),
    in pieces of ⌈√n⌉ rowids fenced by their first and last value.  A
    lookup takes interior pieces whole and filters at most two edge
    pieces by gathering their values; the caller gathers the values of
    the hits.

  The merge that would keep more than :data:`MAX_RUNS` tail runs sorts
  theirs and its own rows into one; once the tail runs hold more than
  :data:`FOLD_SHARE` of run 0's rows, the merge rebuilds run 0 over the
  whole window instead.  So a lookup sorts at most its hits, and no
  lookup builds, rebuilds or scans a gap.

Both answers make the comparison ``Predicate.mask`` makes: a permutation
or chunk scan compares the column's native values, and a packed run maps
the bounds to integer thresholds with that same comparison (an integer
column against a Python float compares in float64, also beyond 2**53),
so they agree with it bit for bit.  The runs are the index's only state,
and they live in RAM only: when the manager's ``max_crackers`` cap
unlinks the index, or the process restarts, the next lookup rebuilds it.

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
from typing import Any

import numpy as np

from repro.errors import StorageError

#: Zonemap candidates up to which a lookup scans its chunks; past it the
#: zonemap does not prune and the sorted runs answer.
SCAN_MAX_CHUNKS = 64
#: Tail runs kept behind run 0: the merge that would add one more sorts
#: them and its own rows into one, so a lookup searches at most
#: ``MAX_RUNS + 1`` runs.
MAX_RUNS = 8
#: Rows in tail runs, as a share of run 0's, past which a merge rebuilds
#: run 0 over the whole window: one full sort per ``n * FOLD_SHARE``
#: merged rows, and a compaction never sorts more than that share.
FOLD_SHARE = 1 / 4


@dataclass(frozen=True)
class _PackedRun:
    """Rows ``[start, stop)`` as sorted ``uint64`` keys
    ``(value - lo) << bits | rowid``."""

    start: int
    stop: int
    keys: np.ndarray
    lo: int
    bits: int

    @property
    def nbytes(self) -> int:
        return int(self.keys.nbytes)


@dataclass(frozen=True)
class _PermutationRun:
    """The non-NaN rowids of ``[start, stop)`` in stable value order, in
    pieces of ``piece_rows`` fenced by each piece's first (``lows``) and
    last (``highs``) value in the column's native dtype."""

    start: int
    stop: int
    rowids: np.ndarray
    piece_rows: int
    lows: np.ndarray
    highs: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.rowids.nbytes + self.lows.nbytes + self.highs.nbytes)


def _pack(parts: list[np.ndarray], start: int, stop: int, lo: int, bits: int) -> _PackedRun:
    """Sort rows ``[start, stop)`` (their values, in ``parts``) as packed
    keys: the values are cast straight into the keys, never joined into a
    copy first, and the ``uint32`` rowids live only until they are ORed in."""
    keys = np.concatenate(parts, dtype=np.uint64, casting="unsafe")
    keys -= np.uint64(lo % 2**64)
    keys <<= np.uint64(bits)
    keys |= np.arange(start, stop, dtype=np.uint32)
    keys.sort()
    return _PackedRun(start, stop, keys, lo, bits)


def _permute(parts: list[np.ndarray], start: int, stop: int) -> _PermutationRun:
    """Rows ``[start, stop)`` (their values, in ``parts``) in stable value
    order, NaN rows cut off, fenced every ⌈√n⌉ rowids."""
    values = parts[0] if len(parts) == 1 else np.concatenate(parts)
    order = np.argsort(values, kind="stable")
    if np.issubdtype(values.dtype, np.floating):
        order = order[: order.size - int(np.count_nonzero(np.isnan(values)))]
    n = int(order.size)
    piece_rows = math.isqrt(max(n - 1, 0)) + 1  # ceil(sqrt(n))
    starts = np.arange(0, n, piece_rows)
    lows, highs = values[order[starts]], values[order[np.minimum(starts + piece_rows, n) - 1]]
    rowids = order.astype(np.int32 if stop < 2**31 else np.int64)
    rowids += start
    return _PermutationRun(start, stop, rowids, piece_rows, lows, highs)


def _in_range(values: np.ndarray, low: float, high: float) -> np.ndarray:
    """``low <= values < high`` in the values' own dtype — the comparison
    ``Predicate.mask`` makes.  An infinite ``high`` bounds nothing: +inf
    rows match GT / GE."""
    mask = values >= low
    if high != math.inf:
        mask &= values < high
    return mask


def _least_at_least(dtype: np.dtype, bound: float) -> int:
    """The least value of integer ``dtype`` that compares ``>= bound`` the
    way numpy compares the dtype with a Python float, or the dtype's
    maximum + 1 when none does.

    Within 2**53 of zero that is ``ceil(bound)``; past it float64 rounds
    an integer by up to half its spacing (1,024 just below 2**64), so the
    threshold is the first of the 1,026 integers up to ``ceil(bound)``
    that compares true — found with the very comparison a mask makes.
    """
    info = np.iinfo(dtype)
    if math.isinf(bound):
        return info.min if bound < 0 else info.max + 1
    top = math.ceil(bound)
    if top <= info.min:
        return info.min
    if abs(top) < 2**53 and top <= info.max:  # every integer this close is a float64
        return top
    top = min(top, info.max)
    first = max(top - 1_025, info.min)
    window = np.arange(first, top + 1, dtype=dtype)
    hit = np.flatnonzero(window >= bound)
    return first + int(hit[0]) if hit.size else info.max + 1


class SortedIndex:
    """Adaptive range index over one numeric column (see module docstring)."""

    def __init__(self, column: Any):
        if not column.is_numeric:
            raise StorageError("an index requires a numeric column")
        self.column = column
        self._num_rows = len(column)
        # a paged column: it exposes the zonemap's chunk surface
        self._chunked = hasattr(column, "chunks_for_predicate")
        # the sorted runs, covering [0, covered_rows) once the first lookup
        # that needs them has built run 0
        self._runs: tuple[_PackedRun | _PermutationRun, ...] = ()
        #: values inspected by lookups: the measure behind ``RangeSelection.rows_scanned``
        self.values_scanned_total = 0

    @property
    def size_bytes(self) -> int:
        """Bytes held in memory: the sorted runs', once built."""
        return sum(run.nbytes for run in self._runs)

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

    # ------------------------------------------------------------------ #
    # building runs
    # ------------------------------------------------------------------ #
    def _parts(self, start: int, stop: int) -> list[np.ndarray]:
        """Rows ``[start, stop)`` off ``raw_slice``: a paged column's mapped
        and appended rows as two pieces, never joined into a copy."""
        edges = [start, stop]
        if self._chunked and start < self.column.base_rows < stop:
            edges.insert(1, self.column.base_rows)
        return [self.column.raw_slice(a, b) for a, b in zip(edges, edges[1:])]

    def _build_first(self, covered: int) -> _PackedRun | _PermutationRun:
        """Run 0 over ``[0, covered)``: packed when the column's value range
        (a paged column's zonemap, an in-memory column's min/max — either
        a superset of the window's) fits beside the bits of the rowids the
        window may reach before a fold."""
        parts = self._parts(0, covered)
        if self.column.dtype.numpy_dtype.kind in "iu":
            room = covered + int(covered * FOLD_SHARE)
            bits = max(1, (room - 1).bit_length())
            lo, hi = int(self.column.min()), int(self.column.max())
            if room <= 2**32 and hi - lo < 1 << (64 - bits):
                return _pack(parts, 0, covered, lo, bits)
        return _permute(parts, 0, covered)

    def _build_tail(
        self, first: _PackedRun | _PermutationRun, start: int, stop: int
    ) -> _PackedRun | _PermutationRun:
        """A tail run over ``[start, stop)``, packed with run 0's ``(lo,
        bits)`` when its values fit them (its rowids do until a fold)."""
        parts = self._parts(start, stop)
        if isinstance(first, _PackedRun):
            lo = min(int(part.min()) for part in parts)
            hi = max(int(part.max()) for part in parts)
            if lo >= first.lo and hi - first.lo < 1 << (64 - first.bits):
                return _pack(parts, start, stop, first.lo, first.bits)
        return _permute(parts, start, stop)

    def merge_tail(self) -> int:
        """Advance the validity window over appended rows; returns them.

        Before run 0 exists nothing else happens: the first lookup that
        needs the runs sorts the whole window.  After it the merged rows
        are sorted into a new tail run, O(b log b) for ``b`` rows; the
        merge that would keep more than :data:`MAX_RUNS` tail runs sorts
        theirs and its own rows into one instead; and once the tail runs
        would hold more than :data:`FOLD_SHARE` of run 0's rows it drops
        every run and rebuilds run 0 over the window, so the rebuild's
        peak is its own 12 bytes a row.
        """
        start, stop = self._num_rows, len(self.column)
        if stop <= start:
            return 0
        self._num_rows = stop
        runs = self._runs
        if runs:
            first = runs[0]
            if stop - first.stop > first.stop * FOLD_SHARE:
                del runs, first  # no reference left: the rebuild's peak is its own
                self._runs = ()
                self._runs = (self._build_first(stop),)
            elif len(runs) > MAX_RUNS:
                self._runs = (first, self._build_tail(first, runs[1].start, stop))
            else:
                self._runs = runs + (self._build_tail(first, start, stop),)
        return stop - start

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def _candidates(self, low: float, high: float) -> np.ndarray:
        # chunks_for_predicate is closed-interval and NaN-conservative;
        # for our half-open [low, high) it can only over-include, and the
        # mask restores exactness.  Chunks lying entirely beyond the
        # validity window hold only appended rows — those are the
        # manager's tail scan, not ours.
        chunks = self.column.chunks_for_predicate(low, high)
        return chunks[chunks * int(self.column.chunk_rows) < self._num_rows]

    def _scan_lookup(
        self, chunks: np.ndarray, low: float, high: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """``[low, high)`` by masking ``chunks`` in ascending order, each run
        of adjacent chunks as one slice clamped to the validity window;
        rowids sorted, with their values."""
        chunk_rows = int(self.column.chunk_rows)
        rowids = [np.empty(0, dtype=np.int64)]
        values = [np.empty(0, dtype=self.column.dtype.numpy_dtype)]
        for run in np.split(chunks, np.flatnonzero(np.diff(chunks) != 1) + 1):
            if not run.size:  # no candidates at all
                continue
            start = int(run[0]) * chunk_rows
            stop = min((int(run[-1]) + 1) * chunk_rows, self._num_rows)
            scanned = np.asarray(self.column.raw_slice(start, stop))
            self.values_scanned_total += stop - start
            hits = np.flatnonzero(_in_range(scanned, low, high))
            rowids.append(hits + start)
            values.append(scanned[hits])
        return np.concatenate(rowids), np.concatenate(values)

    def _permutation_hits(self, run: _PermutationRun, low: float, high: float) -> np.ndarray:
        """``[low, high)`` of one permutation run, in value order."""
        rowids, size = run.rowids, run.piece_rows
        # on real values, in value order, the matches are one contiguous
        # stretch, so the pieces it touches are contiguous and all but the
        # end two whole (an infinite high bounds nothing, as in _in_range)
        open_top = high == math.inf
        touched = np.flatnonzero((run.highs >= low) & ((run.lows < high) | open_top))
        if not touched.size:
            return rowids[:0]
        whole = (run.lows >= low) & ((run.highs < high) | open_top)
        first, last = int(touched[0]), int(touched[-1])
        inner_first = first if whole[first] else first + 1
        inner_last = last if whole[last] else last - 1
        parts = [rowids[inner_first * size : (inner_last + 1) * size]]
        for piece in sorted({first, last}):
            if not whole[piece]:
                edge = rowids[piece * size : (piece + 1) * size]
                values = self.column.read_batch(edge)  # one gather, no chunk cache
                self.values_scanned_total += int(edge.size)
                parts.append(edge[_in_range(values, low, high)])
        return np.concatenate(parts)

    def _runs_lookup(self, low: float, high: float) -> tuple[np.ndarray, np.ndarray | None]:
        """``[low, high)`` from the sorted runs: rowids sorted, with their
        values when every run is packed (``None`` otherwise)."""
        runs = self._runs
        if not runs:
            runs = self._runs = (self._build_first(self._num_rows),)
        first, dtype = runs[0], self.column.dtype.numpy_dtype
        if not isinstance(first, _PackedRun):  # so is every tail run
            permuted = [self._permutation_hits(run, low, high) for run in runs]
            return np.sort(np.concatenate(permuted).astype(np.int64)), None
        # the range as value offsets from lo, made with the mask's comparison
        # and clamped to the value bits: an offset of ``span`` is past every key
        lo, bits = first.lo, first.bits
        span = 1 << (64 - bits)
        low_at, high_at = (
            min(max(_least_at_least(dtype, bound) - lo, 0), span) for bound in (low, high)
        )
        keys: list[np.ndarray] = []
        permuted = []
        for run in runs:
            if isinstance(run, _PermutationRun):  # appended values outside run 0's window
                permuted.append(self._permutation_hits(run, low, high))
            elif low_at < high_at:
                start, stop = (
                    int(run.keys.searchsorted(np.uint64(at << bits))) if at < span else None
                    for at in (low_at, high_at)
                )
                keys.append(run.keys[start:stop])
                self.values_scanned_total += 2 * int(run.keys.size).bit_length()
        # rotate each hit to rowid << value_bits | (value - lo): one sort of
        # the hits is their rowid order, with their values beside them
        value_bits = np.uint64(64 - bits)
        hits = keys[0] if len(keys) == 1 else np.concatenate([first.keys[:0], *keys])
        turned = hits << value_bits
        turned |= hits >> np.uint64(bits)
        turned.sort()
        rowids = (turned >> value_bits).view(np.int64)
        if permuted:
            return np.sort(np.concatenate([rowids, *permuted]).astype(np.int64)), None
        turned &= np.uint64(span - 1)
        turned += np.uint64(lo % 2**64)
        return rowids, turned.view(dtype) if dtype.itemsize == 8 else turned.astype(dtype)

    def rows_in_range(self, low: float, high: float) -> tuple[np.ndarray, np.ndarray | None]:
        """Rowids of the validity window whose values lie in ``[low, high)``,
        sorted, and their values (``None`` where a permutation run answered:
        the caller gathers them).

        On a chunked column at most :data:`SCAN_MAX_CHUNKS` zonemap
        candidates are scanned; more — a huge predicate, or any range over a
        column not clustered on the key — and every range over an in-memory
        column answer from the sorted runs instead, so no lookup visits the
        whole column.
        """
        if math.isnan(low) or math.isnan(high):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=self.column.dtype.numpy_dtype)
        if high < low:
            raise StorageError("range lookup requires low <= high")
        if self._chunked:
            candidates = self._candidates(low, high)
            if candidates.size <= SCAN_MAX_CHUNKS:
                return self._scan_lookup(candidates, low, high)
        return self._runs_lookup(low, high)
