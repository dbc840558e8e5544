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
  merge-tree, O'Neil et al., 1996).

  Every run, whatever the dtype, is one ``uint64`` sort of keys
  ``(image(value) >> drop) << bits | rowid`` — 8 bytes a row, 12 at the
  build's peak (the keys and the ``uint32`` rowids ORed into them), with
  its own ``(lo, drop, bits)``: ``bits`` is 32 when the image fits the
  other 32, else those of its last rowid.  The *image* keeps the
  values' order (key normalisation, Graefe, *Implementing sorting in
  database systems*, ACM CSUR 2006): ``value - lo`` for an integer; for a
  float, widened to float64, its bits with −0.0 made +0.0, a negative
  value's every bit flipped and any other's sign bit set — and all ones
  for NaN, past every range.  ``drop`` is the least shift that fits the
  image beside the rowid bits: 0 for an integer run whose value range
  fits, more for floats and wider integers, whose rows of equal truncated
  image form a *bucket*.  Ties sort in rowid order.

  A lookup maps its bounds to images with the comparison
  ``Predicate.mask`` makes (a float bound rounded to the column's dtype
  first), binary-searches every run for them, takes the buckets between
  them whole and filters only a bucket a bound falls inside, on values
  gathered off the column.  A run that drops nothing has no such bucket;
  when no run does, the hits of all runs are rotated to ``rowid << (64 -
  bits) | image`` and sorted once, which yields the rowids *and* their
  values in rowid order without reading the column; otherwise the caller
  gathers the values.

  The merge that would keep more than :data:`MAX_RUNS` tail runs sorts
  theirs and its own rows into one; once the tail runs hold more than
  :data:`FOLD_SHARE` of run 0's rows, the merge rebuilds run 0 over the
  whole window instead.  So a lookup sorts at most its hits, and no
  lookup builds, rebuilds or scans a gap.

Both answers compare the column's native values, or images found with
that comparison, so they agree with ``Predicate.mask`` bit for bit (an
integer column against a Python float compares in float64, past 2**53).
The runs are the index's only state, and they live in RAM only: when the
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
class _Run:
    """Rows ``[start, stop)`` as sorted ``uint64`` keys
    ``(image(value) >> drop) << bits | rowid``."""

    start: int
    stop: int
    keys: np.ndarray
    lo: int
    drop: int
    bits: int

    @property
    def nbytes(self) -> int:
        return int(self.keys.nbytes)


def _float_images(values: np.ndarray) -> np.ndarray:
    """The order-keeping ``uint64`` images of float64 ``values``, made in
    place: −0.0 is +0.0, a negative value has every bit flipped and any
    other its sign bit set, and NaN takes the all-ones image."""
    nan = np.isnan(values)
    values += 0.0  # -0.0 + 0.0 is +0.0
    negative = np.signbit(values)
    images = values.view(np.uint64)
    images ^= np.uint64(1 << 63)
    np.bitwise_xor(images, np.uint64((1 << 63) - 1), out=images, where=negative)
    del negative
    np.copyto(images, np.uint64(2**64 - 1), where=nan)
    return images


def _sort_run(parts: list[np.ndarray], start: int, stop: int) -> _Run:
    """Sort rows ``[start, stop)`` (their values, in ``parts``) into one run:
    one copy of the values turned into their images in place, shifted and
    ORed with the ``uint32`` rowids, then one ``uint64`` sort."""
    kind = parts[0].dtype.kind
    if kind == "f":
        keys = _float_images(np.concatenate(parts, dtype=np.float64))
        lo, width = 0, 64
    else:
        values = np.concatenate(parts, dtype=np.uint64 if kind == "u" else np.int64)
        lo, hi = int(values.min()), int(values.max())
        keys = values.view(np.uint64)
        keys -= np.uint64(lo % 2**64)
        width = (hi - lo).bit_length()
    # the rowids take 32 bits beside an image that fits the rest, so such
    # runs share one layout; else as few as the last rowid needs
    bits = 32 if width <= 32 and stop <= 2**32 else max(1, (stop - 1).bit_length())
    drop = max(0, width - (64 - bits))
    if drop:
        keys >>= np.uint64(drop)
    keys <<= np.uint64(bits)
    keys |= np.arange(start, stop, dtype=np.uint32 if stop <= 2**32 else np.uint64)
    keys.sort()
    return _Run(start, stop, keys, lo, drop, bits)


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
    way numpy compares the dtype with a Python float (or int), or the
    dtype's maximum + 1 when none does.

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
        self._runs: tuple[_Run, ...] = ()
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
    def _sorted(self, start: int, stop: int) -> _Run:
        """Rows ``[start, stop)`` as a run, read off ``raw_slice``: a paged
        column's mapped and appended rows as two pieces, never joined into
        a copy before the one the sort makes."""
        edges = [start, stop]
        if self._chunked and start < self.column.base_rows < stop:
            edges.insert(1, self.column.base_rows)
        return _sort_run(
            [self.column.raw_slice(a, b) for a, b in zip(edges, edges[1:])], start, stop
        )

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
                self._runs = (self._sorted(0, stop),)
            elif len(runs) > MAX_RUNS:
                self._runs = (first, self._sorted(runs[1].start, stop))
            else:
                self._runs = runs + (self._sorted(start, stop),)
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

    def _run_hits(
        self, run: _Run, least: int, past: int | None, low: float, high: float
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """``[low, high)`` of one run, whose values' images before its ``lo``
        lie in ``[least, past)`` (``past`` ``None``: all but NaN): the keys of
        the buckets it takes whole, and the matching rowids of a bucket a
        bound falls inside, filtered on values gathered off the column."""
        keys, drop, bits, size = run.keys, run.drop, run.bits, int(run.keys.size)

        def first(bucket: int) -> int:  # where the keys of ``bucket`` start
            key = bucket << bits
            return int(keys.searchsorted(np.uint64(key))) if key < 2**64 else size

        at_low = min(max(least - run.lo, 0), 2**64)
        if past is None:  # NaN's bucket starts past every value
            at_high = (2**64 - 1) >> drop << drop
        else:
            at_high = min(max(past - run.lo, 0), 2**64)
        low_bucket, high_bucket = at_low >> drop, at_high >> drop
        start, stop = first(low_bucket), first(high_bucket)
        self.values_scanned_total += 2 * size.bit_length()
        if not drop:  # every bound starts its bucket
            return keys[start:stop], []
        # a bound inside its bucket leaves that bucket to a filter
        edges = []
        if at_low != low_bucket << drop:
            edges.append((start, start := first(low_bucket + 1)))
        if at_high != high_bucket << drop and (high_bucket > low_bucket or not edges):
            edges.append((stop, first(high_bucket + 1)))
        matched = []
        for a, b in edges:
            edge = (keys[a:b] & np.uint64((1 << bits) - 1)).view(np.int64)
            self.values_scanned_total += size.bit_length() + b - a
            matched.append(edge[_in_range(self.column.read_batch(edge), low, high)])
        return keys[start:stop], matched

    def _runs_lookup(self, low: float, high: float) -> tuple[np.ndarray, np.ndarray | None]:
        """``[low, high)`` from the sorted runs: rowids sorted, with their
        values when every run keeps the whole value (``None`` otherwise)."""
        runs = self._runs
        if not runs:
            runs = self._runs = (self._sorted(0, self._num_rows),)
        dtype = self.column.dtype.numpy_dtype
        if dtype.kind == "f":
            # the mask compares in the column's dtype: round each bound to it
            with np.errstate(over="ignore"):
                images = _float_images(np.array([dtype.type(low), dtype.type(high)], np.float64))
            least = 0 if low == -math.inf else int(images[0])
            past = None if high == math.inf else int(images[1])
        else:
            compared = np.dtype(np.uint8) if dtype.kind == "b" else dtype
            least, past = (_least_at_least(compared, bound) for bound in (low, high))
        # values come from the keys when every run keeps the whole value and
        # its images fit beside the widest rowids
        top = max(run.bits for run in runs)
        whole = not any(run.drop or int(run.keys[-1]) >> run.bits >> (64 - top) for run in runs)
        hits, matched = [], []
        for run in runs:
            keys, edges = self._run_hits(run, least, past, low, high)
            matched += edges
            if not whole:  # rowids only: the caller gathers the values
                keys = (keys & np.uint64((1 << run.bits) - 1)).view(np.int64)
            elif run.bits < top:  # re-key as image << top | rowid
                keys = (keys >> np.uint64(run.bits) << np.uint64(top)) | (
                    keys & np.uint64((1 << run.bits) - 1)
                )
            hits.append(keys)
        if not whole:
            return np.sort(np.concatenate(hits + matched)), None
        keys = hits[0] if len(hits) == 1 else np.concatenate(hits)
        # rotate each hit to rowid << value_bits | image: one sort of the hits
        # is their rowid order, with their images beside them; each run's
        # hits stay together, in run order, so its lo is added after
        value_bits = np.uint64(64 - top)
        turned = keys << value_bits
        turned |= keys >> np.uint64(top)
        turned.sort()
        rowids = (turned >> value_bits).view(np.int64)
        turned &= np.uint64((1 << (64 - top)) - 1)
        los = [run.lo % 2**64 for run in runs]
        sizes = [keys.size for keys in hits]
        turned += np.repeat(np.array(los, np.uint64), sizes) if len(set(los)) > 1 else los[0]
        return rowids, turned.view(dtype) if dtype.itemsize == 8 else turned.astype(dtype)

    def rows_in_range(self, low: float, high: float) -> tuple[np.ndarray, np.ndarray | None]:
        """Rowids of the validity window whose values lie in ``[low, high)``,
        sorted, and their values (``None`` where the runs' keys cannot give
        them: the caller gathers them).

        On a chunked column at most :data:`SCAN_MAX_CHUNKS` zonemap
        candidates are scanned; more — a huge predicate, or any range over a
        column not clustered on the key — and every range over an in-memory
        column answer from the sorted runs instead, so no lookup visits the
        whole column.
        """
        if high < low:
            raise StorageError("range lookup requires low <= high")
        if math.isnan(low) or math.isnan(high) or not self._num_rows:  # no row can match
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=self.column.dtype.numpy_dtype)
        if self._chunked:
            candidates = self._candidates(low, high)
            if candidates.size <= SCAN_MAX_CHUNKS:
                return self._scan_lookup(candidates, low, high)
        return self._runs_lookup(low, high)
