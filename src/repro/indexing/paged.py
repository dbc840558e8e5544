"""Disk-resident cracking for paged (out-of-core) columns.

A :class:`PagedCrackerIndex` gives an mmap-backed
:class:`repro.persist.paged_column.PagedColumn` the same adaptive
indexing an in-memory column gets from
:class:`repro.indexing.cracking.CrackerIndex` — without ever holding the
whole column's cracked copy in RAM.  The column's persisted zonemap
partitions it into chunks; each chunk that a predicate actually touches
gets its *own* small cracker over a private copy of that chunk's values,
and only a bounded number of those chunk crackers stay resident:

* **Zonemap pruning first.**  ``chunks_for_predicate`` (conservative
  under NaN) names the candidate chunks; everything else is never read,
  let alone cracked.
* **Per-chunk crackers.**  Each candidate chunk is cracked independently
  with local rowids; global rowids are ``local + chunk_start``.  Because
  chunks are processed in ascending order and each per-chunk result is
  sorted, the concatenated answer is globally sorted with no extra sort.
* **LRU residency with spill-through.**  At most ``max_resident_chunks``
  chunk crackers stay in memory.  When one is evicted and a
  ``spill_store`` (a :class:`repro.persist.diskstore.DiskColumnStore`)
  was provided, its reordered values/rowids are written through the
  store as ordinary stored columns and only the tiny piece structure
  (pivots/bounds) is kept; the next lookup that needs the chunk revives
  the cracker from disk instead of re-cracking from scratch.  Without a
  store the cracked organization is simply dropped and rebuilt on
  demand — still correct, just colder.
* **One value-sorted permutation where the zonemap cannot prune.**  A
  predicate whose candidate set exceeds the residency cap (every range
  over a column not clustered on the key) would thrash the LRU.  Such a
  lookup instead answers from one column-level rowid permutation in value
  order, built by the first of them with one ``np.argsort`` and cut into
  runs of ⌈√n⌉ rowids fenced by their real first/last values: interior
  runs are taken whole, at most two boundary runs are filtered by
  gathering their values, so the cost follows the result, not the column.
  Refinement over such a candidate set does nothing.  Rows merged after
  the build are scanned as a gap until it outgrows
  :data:`PERMUTATION_GAP_SHARE` of the sorted rows; the next such lookup
  then rebuilds.  Under budget pressure the permutation is shed after the
  chunk crackers and rebuilt on demand.

**Deadlock freedom.**  The :class:`repro.indexing.manager.IndexManager`
mutates this index while holding a per-column lock, and the shared
:class:`repro.core.caching.MemoryBudget` must never be charged while
any such lock is held (budget reclaim may need those locks).  The paged
cracker therefore reads chunk data straight off the column's read-only
memmap and append tail (``column.raw_slice``, and ``column.read_batch``
gathers, which charge nothing) — *bypassing* the budget-charging
``ChunkCache`` — and its spill writes are pure file I/O.  The resident
crackers' bytes are themselves accounted to the budget by the manager,
which charges/releases the size delta after dropping the lock.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import StorageError
from repro.indexing.cracking import (
    DEFAULT_MIN_PIECE_ROWS,
    Cracker,
    CrackerIndex,
    CrackerState,
    new_activity_ledger,
)
from repro.storage.column import Column

#: Default cap on simultaneously resident chunk crackers.
DEFAULT_MAX_RESIDENT_CHUNKS = 64
#: Default per-chunk piece cap (chunks are small; a handful of pieces
#: already bounds the scan to a few hundred rows).
DEFAULT_MAX_PIECES_PER_CHUNK = 64
#: How many *new* chunk crackers one refinement pass may build.  Lookups
#: build whatever they need; pure refinement (observe_predicate) must
#: stay cheap for broad predicates.
REFINE_BUILD_BUDGET = 8
#: Rows merged past the value-sorted permutation, as a share of the rows it
#: sorts, beyond which the next over-cap lookup rebuilds it instead of
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


def is_chunked(column: Any) -> bool:
    """Whether ``column`` exposes the paged-column chunk surface.

    Duck-typed (not ``isinstance`` against
    :class:`repro.persist.paged_column.PagedColumn`): the snapshot module
    imports this package for warm starts, so the indexing tier must not
    import the persist package back.
    """
    return hasattr(column, "chunks_for_predicate")


class PagedCrackerIndex(Cracker):
    """Adaptive index over a chunked on-disk column (see module docstring).

    Implements the :class:`~repro.indexing.cracking.Cracker` surface the
    :class:`~repro.indexing.manager.IndexManager` drives; under budget
    pressure ``release_bytes`` spills resident chunk crackers, then drops
    the value-sorted permutation, instead of dropping the whole index, and
    the cracked organisation persists through the spill store rather than
    a snapshot (``export_state`` is ``None``).  Every chunk cracker counts
    into this index's one ledger.
    """

    strategy = "paged-cracker"
    sheds_chunks = True

    def __init__(
        self,
        column: Any,
        *,
        spill_store: Any = None,
        spill_prefix: str = "",
        max_resident_chunks: int = DEFAULT_MAX_RESIDENT_CHUNKS,
        max_pieces_per_chunk: int = DEFAULT_MAX_PIECES_PER_CHUNK,
        min_piece_rows: int = DEFAULT_MIN_PIECE_ROWS,
        stochastic: bool = False,
        seed: int = 0,
    ):
        if not column.is_numeric:
            raise StorageError("cracking requires a numeric column")
        if not is_chunked(column) or column.num_chunks <= 0:
            raise StorageError(
                f"paged cracking requires a chunked column; {column.name!r} has none"
            )
        if max_resident_chunks < 1 or max_pieces_per_chunk < 2:
            raise StorageError("max_resident_chunks must be at least 1, max_pieces_per_chunk 2")
        self.column = column
        self._num_rows = len(column)
        self._chunk_rows = int(column.chunk_rows)
        self._store = spill_store
        self._prefix = spill_prefix or str(column.name)
        self.max_resident_chunks = int(max_resident_chunks)
        self.max_pieces_per_chunk = int(max_pieces_per_chunk)
        self.min_piece_rows = int(min_piece_rows)
        self.stochastic = bool(stochastic)
        self.seed = int(seed)
        # chunk index -> resident CrackerIndex, in LRU order (MRU last)
        self._chunks: OrderedDict[int, CrackerIndex] = OrderedDict()
        # chunk index -> piece metadata for spilled chunk crackers
        self._spilled: dict[int, dict[str, Any]] = {}
        # every chunk index that ever had spill columns written: revived
        # chunks leave their store columns behind (the next spill simply
        # overwrites them), so cleanup must cover this superset
        self._spill_written: set[int] = set()
        # the over-cap lookups' value-sorted permutation (built on demand)
        self._sorted: _SortedRuns | None = None
        self.activity = new_activity_ledger()
        self.chunk_crackers_built = 0

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def num_pieces(self) -> int:
        """Total pieces across resident and spilled chunk crackers."""
        resident = sum(c.num_pieces for c in self._chunks.values())
        spilled = sum(len(meta["bounds"]) - 1 for meta in self._spilled.values())
        return resident + spilled

    @property
    def num_resident_chunks(self) -> int:
        """Chunk crackers currently held in memory."""
        return len(self._chunks)

    @property
    def num_spilled_chunks(self) -> int:
        """Chunk crackers whose arrays live in the spill store."""
        return len(self._spilled)

    @property
    def size_bytes(self) -> int:
        """Bytes held in memory: resident chunk crackers and the permutation."""
        sorted_bytes = 0 if self._sorted is None else self._sorted.nbytes
        return sorted_bytes + sum(c.size_bytes for c in self._chunks.values())

    @property
    def covered_rows(self) -> int:
        """Base rows inside the validity window ``[0, covered_rows)``.

        Frozen when the index is built; rows appended to the column since
        then are outside every chunk cracker and are scanned by the
        manager until :meth:`merge_tail` advances the window.
        """
        return self._num_rows

    # ------------------------------------------------------------------ #
    # chunk cracker lifecycle
    # ------------------------------------------------------------------ #
    def _chunk_span(self, index: int) -> tuple[int, int]:
        start = index * self._chunk_rows
        return start, max(start, min(self._num_rows, start + self._chunk_rows))

    def _chunk_view(self, index: int) -> np.ndarray:
        # straight off the memmap and append tail: no ChunkCache, no budget
        # charge while the manager's column lock is held (see module docstring)
        return self.column.raw_slice(*self._chunk_span(index))

    def _new_chunk_cracker(self, index: int, state: CrackerState | None = None) -> CrackerIndex:
        """A cracker over a private copy of chunk ``index`` — fresh, or revived
        from spilled ``state`` — configured like every other chunk cracker
        and counting into this index's ledger."""
        local = Column(f"{self._prefix}#chunk{index}", np.array(self._chunk_view(index), copy=True))
        cracker = CrackerIndex(local) if state is None else CrackerIndex.from_state(local, state)
        cracker.max_pieces = self.max_pieces_per_chunk
        cracker.min_piece_rows = self.min_piece_rows
        cracker.stochastic = self.stochastic
        cracker._rng = np.random.default_rng((self.seed, index))
        cracker.activity = self.activity
        return cracker

    def _spill_names(self, index: int) -> tuple[str, str]:
        return (
            f"{self._prefix}#spill-c{index}-v",
            f"{self._prefix}#spill-c{index}-r",
        )

    def _revive(self, index: int) -> CrackerIndex | None:
        """Reload a spilled chunk cracker; ``None`` falls back to a build."""
        meta = self._spilled.pop(index)
        if self._store is None:
            return None
        try:
            values = np.array(self._store.open_column(meta["values_store"]).values)
            rowids = np.array(
                self._store.open_column(meta["rowids_store"]).values, dtype=np.int64
            )
            state = CrackerState(
                values=values,
                rowids=rowids,
                pivots=meta["pivots"],
                bounds=meta["bounds"],
                num_valid=meta["num_valid"],
            )
            cracker = self._new_chunk_cracker(index, state)
        except StorageError:
            # spill file gone or stale: rebuild from the base chunk
            return None
        self.activity["spill_loads"] += 1
        return cracker

    def _spill_one(self) -> int:
        """Evict the LRU chunk cracker; returns the bytes freed."""
        index, cracker = self._chunks.popitem(last=False)
        freed = cracker.size_bytes
        if self._store is not None and cracker.num_pieces > 1:  # cracked at all
            state = cracker.export_state()
            values_store, rowids_store = self._spill_names(index)
            self._store.write_column(
                Column(values_store, state.values),
                name=values_store,
                chunk_rows=max(1, len(state.values)),
                replace=True,
            )
            self._store.write_column(
                Column(rowids_store, state.rowids),
                name=rowids_store,
                chunk_rows=max(1, len(state.rowids)),
                replace=True,
            )
            self._spilled[index] = {
                "pivots": state.pivots,
                "bounds": state.bounds,
                "num_valid": state.num_valid,
                "values_store": values_store,
                "rowids_store": rowids_store,
            }
            self._spill_written.add(index)
            self.activity["spills"] += 1
        return freed

    def _enforce_residency(self) -> None:
        while len(self._chunks) > self.max_resident_chunks:
            self._spill_one()

    def _chunk_cracker(self, index: int) -> CrackerIndex:
        """The chunk's cracker, made resident (reviving or building)."""
        cracker = self._chunks.get(index)
        if cracker is not None:
            self._chunks.move_to_end(index)
            return cracker
        cracker = self._revive(index) if index in self._spilled else None
        if cracker is None:
            cracker = self._new_chunk_cracker(index)
            self.chunk_crackers_built += 1
        self._chunks[index] = cracker
        self._enforce_residency()
        return cracker

    def release_bytes(self, nbytes: int) -> int:
        """Spill resident chunk crackers, then drop the permutation, until
        ``nbytes`` are freed.

        Budget-pressure hook: the cracked organization moves to the spill
        store (or is dropped without one) instead of being lost outright;
        the permutation is rebuilt by the next over-cap lookup.  Returns how
        many bytes were actually freed.
        """
        freed = 0
        while freed < nbytes and self._chunks:
            freed += self._spill_one()
        if freed < nbytes and self._sorted is not None:
            freed += self._sorted.nbytes
            self._sorted = None
        return freed

    def export_state(self) -> None:
        """No snapshot state: the organisation persists through the spill store."""
        return None

    def discard_spills(self) -> None:
        """Delete this index's spill columns from the store — including
        leftovers of chunks that were spilled and later revived."""
        if self._store is not None:
            for index in self._spill_written:
                for name in self._spill_names(index):
                    try:
                        self._store.delete_column(name)
                    except StorageError:
                        pass
        self._spill_written.clear()
        self._spilled.clear()

    # ------------------------------------------------------------------ #
    # validity-window maintenance (live appends)
    # ------------------------------------------------------------------ #
    def merge_tail(self) -> int:
        """Advance the validity window over appended rows; returns them.

        Cheap by construction: appended rows either start new chunks
        (whose crackers build lazily on first consult) or top up the one
        logical chunk the old window ended inside — only *that* chunk's
        cracker is stale and gets dropped (resident or spilled); every
        other chunk's cracked organization survives untouched.  The
        value-sorted permutation is not touched either: the merged rows are
        the gap its lookups scan.
        """
        n = len(self.column)
        if n <= self._num_rows:
            return 0
        merged = n - self._num_rows
        if self._num_rows % self._chunk_rows:
            boundary = self._num_rows // self._chunk_rows
            self._chunks.pop(boundary, None)
            self._spilled.pop(boundary, None)
        self._num_rows = n
        self.activity["tail_merges"] += 1
        self.activity["rows_merged_total"] += merged
        return merged

    # ------------------------------------------------------------------ #
    # cracking and lookups
    # ------------------------------------------------------------------ #
    def _candidates(self, low: float, high: float) -> list[int]:
        # chunks_for_predicate is closed-interval and NaN-conservative;
        # for our half-open [low, high) it can only over-include, and the
        # per-chunk crackers restore exactness.  Chunks lying entirely
        # beyond the validity window hold only appended rows — those are
        # the manager's tail scan, not ours.
        return [
            index
            for index in self.column.chunks_for_predicate(low, high)
            if index * self._chunk_rows < self._num_rows
        ]

    def crack_range(self, low: float, high: float) -> None:
        """Refine candidate chunks around ``[low, high)``.

        Builds at most :data:`REFINE_BUILD_BUDGET` new chunk crackers per
        call; beyond that only already-resident chunks are refined, so a
        broad predicate cannot stampede the whole column into memory just
        to record its bounds.  A candidate set over the residency cap is
        answered from the value-sorted permutation, which needs no
        refinement: nothing is built and nothing evicted.
        """
        if high < low:
            raise StorageError("crack_range requires low <= high")
        candidates = self._candidates(low, high)
        if len(candidates) > self.max_resident_chunks:
            return
        builds_left = REFINE_BUILD_BUDGET
        for index in candidates:
            resident = index in self._chunks
            if not resident:
                if builds_left <= 0:
                    continue
                builds_left -= 1
            self._chunk_cracker(index).crack_range(low, high)

    def _sorted_runs(self) -> _SortedRuns:
        """The permutation, (re)built when missing or when the rows merged
        past it outgrow :data:`PERMUTATION_GAP_SHARE` of it.

        One ``np.argsort`` straight off ``raw_slice``: no chunk cache and no
        budget call under the manager's column lock.  argsort parks NaN rows
        last, where they are cut off — no range holds a NaN.
        """
        runs, covered = self._sorted, self._num_rows
        if runs is not None and covered - runs.covered <= runs.covered * PERMUTATION_GAP_SHARE:
            return runs
        values = np.asarray(self.column.raw_slice(0, covered))
        order = np.argsort(values)
        if np.issubdtype(values.dtype, np.floating):
            order = order[: covered - int(np.count_nonzero(np.isnan(values)))]
        n = int(order.size)
        run_rows = math.isqrt(max(n - 1, 0)) + 1  # ceil(sqrt(n))
        starts = np.arange(0, n, run_rows)
        self._sorted = _SortedRuns(
            rowids=order.astype(np.int32 if covered < 2**31 else np.int64),
            run_rows=run_rows,
            lows=values[order[starts]],
            highs=values[order[np.minimum(starts + run_rows, n) - 1]],
            covered=covered,
        )
        return self._sorted

    def _sorted_lookup(self, low: float, high: float) -> np.ndarray:
        """``[low, high)`` from the value-sorted permutation, plus a scan of
        the rows merged since it was built; sorted."""
        runs = self._sorted_runs()
        rowids, size = runs.rowids, runs.run_rows
        # the comparison Predicate.mask and the chunk crackers make, on real
        # values: in value order the matches are one contiguous stretch, so
        # the runs it touches are contiguous and all but the end two whole.
        # An infinite high bounds nothing: +inf rows match GT / GE.
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
                    values = self.column.read_batch(edge)  # one gather, charges nothing
                    self.activity["values_scanned_total"] += int(edge.size)
                    parts.append(edge[(values >= low) & ((values < high) | open_top)])
        gap = np.asarray(self.column.raw_slice(runs.covered, self._num_rows))
        self.activity["values_scanned_total"] += int(gap.size)
        hits = np.flatnonzero((gap >= low) & ((gap < high) | open_top)) + runs.covered
        return np.concatenate([np.sort(np.concatenate(parts)).astype(np.int64), hits])

    def rowids_in_range(
        self, low: float, high: float, crack: bool = True
    ) -> np.ndarray:
        """Base rowids whose values lie in ``[low, high)``, sorted.

        Candidate chunks (by zonemap) answer through their chunk crackers,
        built or revived on demand.  A candidate set over the residency cap
        — a huge predicate, or any range over a column not clustered on the
        key — answers from the value-sorted permutation instead, so it
        neither thrashes the LRU nor visits every chunk.
        """
        if math.isnan(low) or math.isnan(high):
            return np.empty(0, dtype=np.int64)
        if high < low:
            raise StorageError("range lookup requires low <= high")
        candidates = self._candidates(low, high)
        if len(candidates) > self.max_resident_chunks:
            return self._sorted_lookup(low, high)
        if not candidates:
            return np.empty(0, dtype=np.int64)
        # ascending chunk order + sorted per-chunk results = sorted output
        return np.concatenate(
            [
                self._chunk_cracker(index).rowids_in_range(low, high, crack=crack)
                + self._chunk_span(index)[0]
                for index in candidates
            ]
        )
