"""Touch-driven cracking: adaptive indexing from touched ranges.

Database cracking (which the paper cites as one of its inspirations)
refines a column's physical organization as a side effect of the queries
that run.  In dbTouch the "queries" are gestures: every slide that filters
a value range is an opportunity to partition the index around that range.
The cracker index below maintains cracked pieces over a *copy* of the
column (the base data is never reordered) and narrows the region that
must be scanned for subsequent predicates on the same column.

**Array-native piece storage.**  Pieces are not objects: the whole piece
structure is two flat numpy vectors — ``_pivots`` (sorted float64 crack
values) and ``_bounds`` (sorted int64 positions, one more than the piece
count) — binary-searched with ``np.searchsorted``.  A range lookup
resolves to at most two masked boundary scans plus one wholesale slice of
the fully-covered middle run; no per-piece Python loop survives.

**Dtype preservation.**  The cracker column keeps the base column's
native dtype — an int64 column cracks as int64.  Exactness with
``Predicate.mask`` is by construction: pivots and range bounds are
float64, and comparing a native integer array against a Python float is
*the same numpy promotion* ``Predicate.mask`` performs, so piece
membership and mask agree bit-for-bit even beyond 2**53 where the old
float64 copy had to refuse integer columns.

**Coalescing.**  Long sessions accumulate tiny pieces.  Every crack that
pushes the piece count past ``max_pieces`` triggers :meth:`coalesce`,
which repeatedly deletes the pivot between the narrowest adjacent piece
pair (pieces under ``min_piece_rows`` are the natural first victims)
until the count is back at the cap.  Merging only removes a pivot/bound
entry — no data moves — so lookups stay exact; a merged-away query pivot
is simply re-cracked by the next lookup that needs it.

**Stochastic crack mix.**  With ``stochastic=True`` each query-bound
crack is preceded by one MDD1R-style crack at a value sampled (seeded,
hence deterministic per session) from the piece the bound falls in.
Skewed gesture patterns — e.g. monotonically advancing bounds that leave
one giant tail piece — then still converge: the random pivot halves the
big piece in expectation regardless of where queries land.  Stochastic
cracks mutate only index organization, never lookup results.

NaN values need special care: ``x < pivot`` is False for NaN, so a naive
two-way crack would sweep NaNs into whatever bounded piece happens to sit
above the pivot — and a later range lookup that covers that piece
wholesale would wrongly report the NaN rows as matches.  The index
therefore segregates NaNs once, at construction: the cracker column keeps
all non-NaN values in ``[0, num_valid)`` and parks the NaN rows behind
them, outside every piece, so range lookups can never return a NaN row —
exactly the semantics of ``Predicate.mask`` on the base data.

**Validity windows.**  A live append grows the base column without
touching the cracker: the index keeps answering exactly for the prefix it
was built over (``covered_rows``) while the appended tail is scanned by
the caller (:class:`repro.indexing.manager.IndexManager` merges the two
answer sets).  :meth:`merge_tail` — scheduled off the gesture path, on
the background lane — folds the tail rows into their pieces *in place*
and advances the window, so steady-state lookups regain full piece
pruning without ever discarding cracked state.  The arrays sit in
capacity-doubling buffers and room is made by rippling (Idreos et al.,
*Updating a Cracked Database*): a merge moves at most a tail's worth of
rows per piece, so its cost follows the tail, not the column.

The full cracked state (the reordered copy, the rowid permutation and the
piece structure) can be exported with :meth:`CrackerIndex.export_state`
and restored with :meth:`CrackerIndex.from_state`; the snapshot tier
persists exactly that state, whole, on every snapshot, to make cracked
organization survive restarts.  Because appends never mutate existing
rows, a snapshot taken *before* an append is still a valid prefix of the
grown column — ``from_state`` therefore accepts state covering any prefix
and revives it with a correspondingly narrowed validity window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import StorageError
from repro.storage.column import Column, grown_buffer

#: Default hard cap on the piece count; cracks beyond it coalesce.
DEFAULT_MAX_PIECES = 512
#: Pieces narrower than this are preferred merge victims and too small to
#: be worth a stochastic split.
DEFAULT_MIN_PIECE_ROWS = 32


#: What a cracker operation can do, named once (ledger keys, manager statistics fold).
ACTIVITY_COUNTERS = (
    "cracks_performed",
    "stochastic_cracks",
    "coalesces_performed",
    "pieces_merged",
    "tail_merges",
    "rows_merged_total",
    "rows_moved_total",
)


def new_activity_ledger() -> dict[str, int]:
    """A zeroed activity ledger, one monotonic count per name, per cracker;
    ``values_scanned_total`` is the measure behind ``RangeSelection.rows_scanned``."""
    return dict.fromkeys((*ACTIVITY_COUNTERS, "values_scanned_total"), 0)


@dataclass(frozen=True)
class CrackPiece:
    """A contiguous piece of the cracker column known to lie in [low, high)."""

    start: int
    stop: int
    low: float
    high: float

    @property
    def num_rows(self) -> int:
        """Rows inside this piece."""
        return self.stop - self.start


@dataclass(frozen=True)
class CrackerState:
    """The exportable state of a :class:`CrackerIndex`.

    ``values``/``rowids`` are the cracker column (a reordered *native
    dtype* copy of the base data) and its base-rowid permutation;
    ``pivots`` and ``bounds`` describe the piece structure; ``num_valid``
    is the number of non-NaN rows (the prefix the pieces partition).  The
    snapshot tier persists every field, whole, on each snapshot and
    :meth:`CrackerIndex.from_state` revives them against the live base
    column.
    """

    values: np.ndarray
    rowids: np.ndarray
    pivots: tuple[float, ...]
    bounds: tuple[int, ...]
    num_valid: int
    cracks_performed: int = 0


class Cracker:
    """The one surface :class:`repro.indexing.manager.IndexManager` drives.

    Every cracker kind has every member the manager calls or reads; counter
    names read as attributes resolve to the activity ledger.
    """

    strategy = "cracker"  #: ``RangeSelection.strategy`` of a lookup answered here

    def __getattr__(self, name: str) -> int:
        if name != "activity" and name in self.activity:
            return self.activity[name]
        raise AttributeError(f"{type(self).__name__!s} has no attribute {name!r}")

    @property
    def tail_rows(self) -> int:
        """Appended base rows beyond the validity window, not yet merged in."""
        return len(self.column) - self.covered_rows


class CrackerIndex(Cracker):
    """An adaptive index refined by the value ranges gestures touch.

    The cracker column is a reordered copy of the base column together with
    the original rowids, so lookups can report base rowids.  Each call to
    :meth:`crack` partitions one or more pieces around the requested value
    bounds; subsequent range lookups only scan the pieces overlapping the
    requested range.

    Parameters
    ----------
    max_pieces:
        Piece-count cap; cracks beyond it coalesce the narrowest adjacent
        pairs back under it.
    min_piece_rows:
        Row-width floor: pieces at least this wide are worth keeping (and
        worth splitting stochastically).
    stochastic:
        Enable the MDD1R-style random crack mixed in before each
        query-bound crack.
    seed:
        Seed for the stochastic pivot stream (deterministic per index).
    """

    def __init__(
        self,
        column: Column,
        *,
        max_pieces: int = DEFAULT_MAX_PIECES,
        min_piece_rows: int = DEFAULT_MIN_PIECE_ROWS,
        stochastic: bool = False,
        seed: int = 0,
    ):
        if not column.is_numeric:
            raise StorageError("cracking requires a numeric column")
        if max_pieces < 2:
            raise StorageError("max_pieces must be at least 2")
        values = np.array(column.values, copy=True)
        rowids = np.arange(len(column), dtype=np.int64)
        # NaNs are segregated behind the valid prefix once, so no crack or
        # wholesale piece-append can ever surface them (see module docstring)
        num_nan = 0
        if np.issubdtype(values.dtype, np.floating):
            nan_mask = np.isnan(values)
            num_nan = int(nan_mask.sum())
            if num_nan:
                order = np.argsort(nan_mask, kind="stable")  # non-NaN first
                values, rowids = values[order], rowids[order]
        num_valid = len(column) - num_nan
        one_piece = np.array([0, num_valid], dtype=np.int64)
        self._install(column, values, rowids, num_valid, one_piece, np.empty(0, dtype=np.float64))
        self.max_pieces = int(max_pieces)
        self.min_piece_rows = int(min_piece_rows)
        self.stochastic = bool(stochastic)
        self._rng = np.random.default_rng(seed)

    def _install(self, column, values, rowids, num_valid, bounds, pivots, cracks=0):
        """Bind cracked arrays and piece structure; start a fresh ledger."""
        self.column = column
        # capacity buffers the two arrays are logical-length views of; they
        # only diverge once merge_tail has grown them (capacity == length here)
        self._values = self._values_buf = values
        self._rowids = self._rowids_buf = rowids
        self._num_valid, self._num_nan = num_valid, int(values.shape[0]) - num_valid
        # flat piece structure: piece i spans positions
        # [_bounds[i], _bounds[i+1]) and values [pivot[i-1], pivot[i])
        self._bounds, self._pivots = bounds, pivots
        self.activity = new_activity_ledger()
        self.activity["cracks_performed"] = cracks

    # ------------------------------------------------------------------ #
    # state export / restore (snapshot warm starts)
    # ------------------------------------------------------------------ #
    @classmethod
    def from_state(cls, column: Column, state: CrackerState) -> "CrackerIndex":
        """Revive a cracker from exported state, bound to ``column``.

        The arrays are copied (a snapshot hands in read-only memmaps) and
        the structural invariants are validated: a row count covering a
        *prefix* of the column, a rowid permutation of that prefix, sorted
        pivots and sorted bounds spanning exactly the valid prefix — plus
        a sampled value-consistency probe proving the state was built from
        this column's data (not a same-shaped predecessor of a reload).
        State shorter than the column is legal because appends never
        mutate existing rows: the revived index simply covers the
        snapshotted prefix (``covered_rows``) and the appended tail is
        scanned until :meth:`merge_tail` folds it in.  State whose values
        were stored in a different dtype (e.g. the float64 arrays of
        pre-dtype-preserving snapshots) is cast to the column's native
        dtype and rejected if the cast is lossy.  A state that does not
        fit the live column raises :class:`repro.errors.StorageError` —
        the caller (e.g. a snapshot warm start against reloaded data)
        should fall back to a fresh index.
        """
        if not column.is_numeric:
            raise StorageError("cracking requires a numeric column")
        source = np.asarray(state.values)
        target_dtype = column.values.dtype
        if source.dtype == target_dtype:
            values = source.astype(target_dtype, copy=True)
        else:
            # legacy snapshots stored every cracker as float64; accept them
            # only when the cast back to the native dtype is lossless
            values = source.astype(target_dtype, copy=True)
            floaty = np.issubdtype(source.dtype, np.floating)
            roundtrip = values.astype(source.dtype, copy=False)
            if not np.array_equal(roundtrip, source, equal_nan=floaty):
                raise StorageError(
                    f"cracker state dtype {source.dtype} does not losslessly "
                    f"represent column {column.name!r} ({target_dtype})"
                )
        rowids = np.array(state.rowids, dtype=np.int64, copy=True)
        pivots = np.asarray([float(p) for p in state.pivots], dtype=np.float64)
        bounds = np.asarray([int(b) for b in state.bounds], dtype=np.int64)
        num_valid = int(state.num_valid)
        n = len(column)
        m = int(values.shape[0]) if values.ndim == 1 else -1
        if values.ndim != 1 or rowids.shape != values.shape or m > n:
            raise StorageError(
                f"cracker state of {values.shape[0] if values.ndim else 0} rows "
                f"does not fit column {column.name!r} of length {n}"
            )
        if not 0 <= num_valid <= m:
            raise StorageError(f"cracker state num_valid {num_valid} out of range")
        if not np.issubdtype(values.dtype, np.floating) and num_valid != m:
            raise StorageError(
                "cracker state parks NaN rows but the column dtype has no NaN"
            )
        if bounds.size != pivots.size + 2 or bounds[0] != 0 or bounds[-1] != num_valid:
            raise StorageError("cracker state bounds do not span the valid prefix")
        if np.any(bounds[:-1] > bounds[1:]):
            raise StorageError("cracker state bounds are not sorted")
        if np.any(pivots[:-1] >= pivots[1:]):
            raise StorageError("cracker state pivots are not strictly increasing")
        if pivots.size and not np.isfinite(pivots).all():
            raise StorageError("cracker state pivots must be finite")
        if rowids.size and not np.array_equal(
            np.sort(rowids), np.arange(m, dtype=np.int64)
        ):
            raise StorageError("cracker state rowids are not a permutation")
        # sampled data-consistency check: the state must actually derive
        # from ``column``.  A snapshot taken against since-reloaded data
        # passes every structural check above (still a prefix, still a
        # permutation) but would silently serve rowids for values the
        # column no longer holds; probing evenly spaced positions catches
        # any substantive data swap at the cost of a few reads.
        if m:
            probes = np.unique(np.linspace(0, m - 1, num=min(m, 64), dtype=np.int64))
            for pos in probes.tolist():
                expected = values[pos]
                actual = column.value_at(int(rowids[pos]))
                both_nan = expected != expected and actual != actual
                if not (both_nan or bool(expected == actual)):
                    raise StorageError(
                        f"cracker state does not match column {column.name!r}: "
                        f"position {pos} holds {expected!r} but the column's "
                        f"row {int(rowids[pos])} is {actual!r}"
                    )
        index = cls.__new__(cls)
        index._install(
            column, values, rowids, num_valid, bounds, pivots, int(state.cracks_performed)
        )
        index.max_pieces = max(DEFAULT_MAX_PIECES, pivots.size + 1)
        index.min_piece_rows = DEFAULT_MIN_PIECE_ROWS
        index.stochastic = False
        index._rng = np.random.default_rng(0)
        return index

    def export_state(self) -> CrackerState:
        """Export a deep copy of the cracked state (see :class:`CrackerState`)."""
        return CrackerState(
            values=self._values.copy(),
            rowids=self._rowids.copy(),
            pivots=tuple(float(p) for p in self._pivots),
            bounds=tuple(int(b) for b in self._bounds),
            num_valid=self._num_valid,
            cracks_performed=self.cracks_performed,
        )

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def num_valid(self) -> int:
        """Rows the piece structure covers (everything but the NaN rows)."""
        return self._num_valid

    @property
    def covered_rows(self) -> int:
        """Base rows inside the validity window ``[0, covered_rows)``.

        Rows at or beyond this offset were appended after the cracker was
        built (or after its snapshot was taken) and are not yet folded
        into any piece; lookups answer exactly for the window and the
        caller scans the tail until :meth:`merge_tail` advances it.
        """
        return self._num_valid + self._num_nan

    @property
    def num_nan(self) -> int:
        """NaN rows parked behind the valid prefix, outside every piece."""
        return self._num_nan

    @property
    def num_pieces(self) -> int:
        """How many pieces the valid prefix is currently cracked into."""
        return int(self._bounds.size - 1)

    @property
    def size_bytes(self) -> int:
        """Bytes allocated for the cracker column, rowids (spare capacity
        included — this is what the manager's ``cracker_bytes`` gauge
        reads) and pieces."""
        return int(
            self._values_buf.nbytes
            + self._rowids_buf.nbytes
            + self._pivots.nbytes
            + self._bounds.nbytes
        )

    @property
    def pieces(self) -> list[CrackPiece]:
        """The current cracked pieces, in value order."""
        lows = np.concatenate([[-np.inf], self._pivots])
        highs = np.concatenate([self._pivots, [np.inf]])
        return [
            CrackPiece(
                start=int(self._bounds[i]),
                stop=int(self._bounds[i + 1]),
                low=float(lows[i]),
                high=float(highs[i]),
            )
            for i in range(self.num_pieces)
        ]

    # ------------------------------------------------------------------ #
    # cracking
    # ------------------------------------------------------------------ #
    def _piece_containing_value(self, value: float) -> tuple[int, int]:
        """Return the (start, stop) positions of the piece a pivot falls in."""
        idx = int(np.searchsorted(self._pivots, value, side="right"))
        return int(self._bounds[idx]), int(self._bounds[idx + 1])

    def crack(self, pivot: float) -> None:
        """Partition the cracker column around ``pivot`` (two-way crack)."""
        pivot = float(pivot)
        if not math.isfinite(pivot):
            raise StorageError(
                f"crack pivots must be finite (got {pivot!r}); "
                "infinite bounds need no crack"
            )
        idx = int(np.searchsorted(self._pivots, pivot, side="right"))
        if idx and self._pivots[idx - 1] == pivot:
            return  # duplicate pivot: the boundary already exists
        start, stop = int(self._bounds[idx]), int(self._bounds[idx + 1])
        segment = self._values[start:stop]
        # native-dtype comparison against a float pivot: the same numpy
        # promotion Predicate.mask performs, so membership agrees exactly
        mask = segment < pivot
        n_left = int(mask.sum())
        if 0 < n_left < segment.size:
            inv = ~mask
            self._values[start:stop] = np.concatenate([segment[mask], segment[inv]])
            row_segment = self._rowids[start:stop]
            self._rowids[start:stop] = np.concatenate(
                [row_segment[mask], row_segment[inv]]
            )
        # three-slice concatenate (a general-purpose insert's axis handling was
        # a third of a crack); a float / int scalar keeps float64 / int64
        self._pivots = np.concatenate([self._pivots[:idx], [pivot], self._pivots[idx:]])
        split = [start + n_left]
        self._bounds = np.concatenate([self._bounds[: idx + 1], split, self._bounds[idx + 1 :]])
        self.activity["cracks_performed"] += 1
        if self.num_pieces > self.max_pieces:
            self.coalesce()

    def coalesce(self, max_pieces: int | None = None) -> int:
        """Merge pieces until at most ``max_pieces`` remain; returns merges.

        The pivot between the narrowest adjacent piece pair is deleted
        first, so pieces under ``min_piece_rows`` — too small to bound a
        scan meaningfully — are the natural victims.  Merging never moves
        data: the surviving piece's bounds simply widen, and lookups that
        relied on a removed pivot re-crack it on demand.
        """
        target = self.max_pieces if max_pieces is None else max(1, int(max_pieces))
        merged = 0
        while self.num_pieces > target and self._pivots.size:
            widths = np.diff(self._bounds)
            pair_widths = widths[:-1] + widths[1:]
            victim = int(np.argmin(pair_widths))
            self._pivots = np.delete(self._pivots, victim)
            self._bounds = np.delete(self._bounds, victim + 1)
            merged += 1
        if merged:
            self.activity["pieces_merged"] += merged
            self.activity["coalesces_performed"] += 1
        return merged

    # ------------------------------------------------------------------ #
    # validity-window maintenance (live appends)
    # ------------------------------------------------------------------ #
    def merge_tail(self) -> int:
        """Fold appended base rows into the pieces; returns rows merged.

        In place, O(tail · log pieces + Σ min(shift, width)): each appended
        row is routed to the piece whose value envelope contains it (one
        binary search in the dtype :meth:`crack`'s ``segment < pivot``
        compares in, so exactness against ``Predicate.mask`` holds for
        int64 beyond 2**53 and for float32 pivots alike), then room is made
        by *rippling* from the last piece to the first: pieces are
        unordered inside, so a piece that must start ``shift`` rows later
        moves only its first ``min(shift, width)`` rows to just past its
        end and takes its share of the tail behind them.  Parked NaN rows
        ripple the same way and appended NaN rows land last.  Only the
        order of rows *inside* a piece is unspecified (a ``stochastic``
        cracker's next sampled pivot may therefore differ); no piece
        boundary's pivot moves, every earned crack is kept, and the
        validity window advances to the column's new length.  Intended for
        the background lane, off the gesture path; a no-op when current.
        """
        n = len(self.column)
        covered = self.covered_rows
        if n <= covered:
            return 0
        tail = np.asarray(self.column.values[covered:])
        pieces = self.num_pieces
        floating = np.issubdtype(tail.dtype, np.floating)
        key = tail.dtype if floating else np.float64
        # block i < pieces is piece i (membership #{pivot <= value} under
        # crack()'s promotion); block `pieces` is the parked-NaN region
        block = np.searchsorted(self._pivots.astype(key), tail.astype(key), side="right")
        if floating:
            block[np.isnan(tail)] = pieces
        order = np.argsort(block, kind="stable")
        tail, tail_rowids = tail[order], covered + order
        shifts = np.concatenate([[0], np.cumsum(np.bincount(block, minlength=pieces + 1))])
        values = self._values_buf = grown_buffer(self._values_buf, covered, n)
        rowids = self._rowids_buf = grown_buffer(self._rowids_buf, covered, n)
        edges, shift_of = [*self._bounds.tolist(), covered], shifts.tolist()
        moved = n - covered
        for i in range(pieces, -1, -1):
            shift, upto = shift_of[i], shift_of[i + 1]
            if not upto:
                break  # no row lands in or before this block: the rest stay put
            start, stop = edges[i], edges[i + 1]
            carry = min(shift, stop - start)
            dest = stop + shift - carry
            values[dest : dest + carry] = values[start : start + carry]
            rowids[dest : dest + carry] = rowids[start : start + carry]
            values[stop + shift : stop + upto] = tail[shift:upto]
            rowids[stop + shift : stop + upto] = tail_rowids[shift:upto]
            moved += carry
        self._values, self._rowids = values[:n], rowids[:n]
        self._bounds = self._bounds + shifts[:-1]
        self._num_valid += shift_of[pieces]
        self._num_nan = n - self._num_valid
        self.activity["tail_merges"] += 1
        self.activity["rows_merged_total"] += n - covered
        self.activity["rows_moved_total"] += moved
        return n - covered

    def _stochastic_crack(self, near: float) -> None:
        """One MDD1R-style crack at a sampled value from ``near``'s piece."""
        start, stop = self._piece_containing_value(near)
        if stop - start < max(2, 2 * self.min_piece_rows):
            return  # piece already small enough; a random split buys nothing
        position = int(self._rng.integers(start, stop))
        pivot = float(self._values[position])
        if not math.isfinite(pivot):
            return
        before = self.activity["cracks_performed"]
        self.crack(pivot)
        self.activity["stochastic_cracks"] += self.activity["cracks_performed"] - before

    def crack_range(self, low: float, high: float) -> None:
        """Crack on both bounds of ``[low, high)`` (as a range query would).

        Infinite bounds are skipped rather than cracked: a piece boundary
        at ±inf can never shrink a scan.  With ``stochastic`` enabled each
        bound's piece is first split at a sampled value (seeded), so
        convergence does not depend on where the query bounds land.
        """
        if high < low:
            raise StorageError("crack_range requires low <= high")
        for bound in (low, high):
            if math.isfinite(bound):
                if self.stochastic:
                    self._stochastic_crack(bound)
                self.crack(bound)

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def _overlap_run(self, low: float, high: float) -> tuple[int, int]:
        """Indices ``(first, last)`` of the pieces overlapping ``[low, high)``.

        ``first > last`` means no piece overlaps.  Pieces strictly between
        the two are always fully covered by the range.
        """
        first = int(np.searchsorted(self._pivots, low, side="right"))
        last = int(np.searchsorted(self._pivots, high, side="left"))
        return first, last

    def _piece_covered(self, i: int, low: float, high: float) -> bool:
        piece_low = -math.inf if i == 0 else float(self._pivots[i - 1])
        piece_high = (
            float(self._pivots[i]) if i < self._pivots.size else math.inf
        )
        return piece_low >= low and piece_high <= high

    def _masked_piece(self, i: int, low: float, high: float) -> np.ndarray:
        start, stop = int(self._bounds[i]), int(self._bounds[i + 1])
        values = self._values[start:stop]
        mask = (values >= low) & (values < high)
        return self._rowids[start:stop][mask]

    def rowids_in_range(self, low: float, high: float, crack: bool = True) -> np.ndarray:
        """Base rowids whose values lie in ``[low, high)``.

        When ``crack`` is True (the default) the lookup also refines the
        index around the requested bounds, so the next similar lookup scans
        less data — the essence of adaptive indexing.  An empty range
        (``low == high``) returns no rowids; NaN rows are never returned.
        """
        if math.isnan(low) or math.isnan(high):
            return np.empty(0, dtype=np.int64)
        if high < low:
            raise StorageError("range lookup requires low <= high")
        if crack:
            self.crack_range(low, high)
        first, last = self._overlap_run(low, high)
        if first > last:
            return np.empty(0, dtype=np.int64)
        self.activity["values_scanned_total"] += int(self._bounds[last + 1] - self._bounds[first])
        first_covered = self._piece_covered(first, low, high)
        last_covered = (
            first_covered if last == first else self._piece_covered(last, low, high)
        )
        # the fully-covered middle run is appended wholesale — one slice,
        # no per-value test; at most the two boundary pieces are masked
        run_start = first if first_covered else first + 1
        run_stop = last if last_covered else last - 1
        parts: list[np.ndarray] = []
        if run_start <= run_stop:
            parts.append(
                self._rowids[self._bounds[run_start] : self._bounds[run_stop + 1]]
            )
        if not first_covered:
            parts.append(self._masked_piece(first, low, high))
        if last != first and not last_covered:
            parts.append(self._masked_piece(last, low, high))
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(parts))

    def scan_cost_for_range(self, low: float, high: float) -> int:
        """How many values a lookup of ``[low, high)`` would scan right now.

        Fully covered pieces are returned wholesale, so only the (at most
        two) boundary pieces whose envelopes straddle a bound count.
        """
        first, last = self._overlap_run(low, high)
        if first > last:
            return 0
        cost = 0
        if not self._piece_covered(first, low, high):
            cost += int(self._bounds[first + 1] - self._bounds[first])
        if last != first and not self._piece_covered(last, low, high):
            cost += int(self._bounds[last + 1] - self._bounds[last])
        return cost
