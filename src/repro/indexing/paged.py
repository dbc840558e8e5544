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
* **Scan-only fallback for huge predicates.**  A predicate whose
  candidate set exceeds the residency cap would thrash the LRU; such
  lookups answer resident chunks through their crackers and raw-scan the
  rest without building anything.

**Deadlock freedom.**  The :class:`repro.indexing.manager.IndexManager`
mutates this index while holding a per-column lock, and the shared
:class:`repro.core.caching.MemoryBudget` must never be charged while
any such lock is held (budget reclaim may need those locks).  The paged
cracker therefore reads chunk data straight off the column's read-only
memmap and append tail (``column.raw_slice``) — *bypassing* the budget-charging
``ChunkCache`` — and its spill writes are pure file I/O.  The resident
crackers' bytes are themselves accounted to the budget by the manager,
which charges/releases the size delta after dropping the lock.
"""

from __future__ import annotations

import math
from collections import OrderedDict
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
    pressure ``release_bytes`` spills resident chunk crackers instead of
    dropping the whole index, and the cracked organisation persists
    through the spill store rather than a snapshot (``export_state`` is
    ``None``).  Every chunk cracker counts into this index's one ledger.
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
        """Bytes held in memory (resident chunk crackers only)."""
        return sum(c.size_bytes for c in self._chunks.values())

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
        """Spill resident chunk crackers until ``nbytes`` are freed.

        Budget-pressure hook: the cracked organization moves to the spill
        store (or is dropped without one) instead of being lost outright.
        Returns how many bytes were actually freed.
        """
        freed = 0
        while freed < nbytes and self._chunks:
            freed += self._spill_one()
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
        other chunk's cracked organization survives untouched.
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
        to record its bounds.
        """
        if high < low:
            raise StorageError("crack_range requires low <= high")
        builds_left = REFINE_BUILD_BUDGET
        for index in self._candidates(low, high):
            resident = index in self._chunks
            if not resident:
                if builds_left <= 0:
                    continue
                builds_left -= 1
            self._chunk_cracker(index).crack_range(low, high)

    def _scan_chunk(self, index: int, low: float, high: float) -> np.ndarray:
        """Raw half-open range scan of one chunk's read-only view: no
        cracker is built and nothing is permuted, so nothing is copied."""
        start, _ = self._chunk_span(index)
        values = np.asarray(self._chunk_view(index))  # plain view: no memmap wrap per ufunc
        self.activity["values_scanned_total"] += int(values.size)
        mask = (values >= low) & (values < high)
        return np.nonzero(mask)[0].astype(np.int64) + start

    def rowids_in_range(
        self, low: float, high: float, crack: bool = True
    ) -> np.ndarray:
        """Base rowids whose values lie in ``[low, high)``, sorted.

        Candidate chunks (by zonemap) answer through their chunk crackers,
        built or revived on demand; when the candidate set exceeds the
        residency cap, non-resident chunks are raw-scanned instead so one
        huge predicate cannot thrash the LRU.
        """
        if math.isnan(low) or math.isnan(high):
            return np.empty(0, dtype=np.int64)
        if high < low:
            raise StorageError("range lookup requires low <= high")
        candidates = self._candidates(low, high)
        thrashing = len(candidates) > self.max_resident_chunks
        parts: list[np.ndarray] = []
        for index in candidates:
            if thrashing and index not in self._chunks:
                part = self._scan_chunk(index, low, high)
            else:
                local = self._chunk_cracker(index).rowids_in_range(low, high, crack=crack)
                part = local + self._chunk_span(index)[0]
            if part.size:
                parts.append(part)
        if not parts:
            return np.empty(0, dtype=np.int64)
        # ascending chunk order + sorted per-chunk results = sorted output
        return np.concatenate(parts)

    def scan_cost_for_range(self, low: float, high: float) -> int:
        """Values a lookup of ``[low, high)`` would scan right now."""
        cost = 0
        for index in self._candidates(low, high):
            cracker = self._chunks.get(index)
            if cracker is not None:
                cost += cracker.scan_cost_for_range(low, high)
            elif index in self._spilled:
                # piece structure is known even while spilled; approximate
                # with the boundary-piece widths a revived cracker would scan
                bounds = self._spilled[index]["bounds"]
                cost += min(
                    bounds[-1], 2 * max(bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1))
                )
            else:
                start, stop = self._chunk_span(index)
                cost += stop - start
        return cost
