"""The adaptive indexing tier: per-column index state in the gesture hot path.

The paper's core bet is that physical organization should adapt as a side
effect of how users touch data.  :class:`IndexManager` is the seam that
wires that bet into the kernel:

* it owns per-``(object, column)`` index state — one
  :class:`repro.indexing.sorted_index.SortedIndex` for every numeric
  column, in memory or out of core (a scan of the chunks a paged column's
  persisted zonemap leaves, where it leaves at most ``SCAN_MAX_CHUNKS``;
  otherwise, and always for an in-memory column, the column's
  value-sorted runs);
* bulk range selections (:meth:`repro.core.kernel.DbTouchKernel.select_where`)
  *consult* the tier via :meth:`select_rowids`, scanning only the
  zonemap-kept chunks or binary-searching the sorted runs instead of the
  whole column, and get back the matching rowids and — from lossless
  runs, a chunk scan and the tail scan — their values, so the kernel
  gathers only what the index did not return; the first consultation
  builds the index;
* indexes are bounded by count alone (``max_crackers``), dropped
  least-recently-consulted first: an index is a side effect of touches, so
  a dropped one costs its next consultation one rebuild and never changes
  an answer; the bytes they hold are read off them (``index_bytes``);
* :meth:`invalidate` drops every index derived from an object whose data
  was replace-reloaded; indexes are never persisted, so after a restart
  each is rebuilt by its column's first consultation;
* live appends go through :meth:`extend_valid_prefix` instead of
  invalidation: indexes keep answering for the prefix they cover (their
  *validity window*) while :meth:`select_rowids` scans the appended tail,
  and :meth:`merge_tails` — run on the background lane — advances the
  windows over the tails, each index sorting only its merged rows into a
  new run (compacting past ``MAX_RUNS`` tail runs, folding them into run
  0 past ``FOLD_SHARE`` of it), so no selection builds, rebuilds or scans
  a gap.

**Concurrency.**  One manager may be shared by every session of a
:class:`repro.service.MultiSessionServer` whose sessions attach the same
base storage by reference; consultations then run on parallel scheduler
workers.  Every index build and lookup happens under a per-column lock;
the manager-level lock only guards the state dictionary and the
LRU/statistics bookkeeping, and is never held while a column lock is
taken.  The cap drops a column's index by atomically unlinking it,
without the column lock — an in-flight lookup keeps its own reference and
completes on the orphaned (still self-consistent) index.

**Exactness.**  Indexed selections must agree bit-for-bit with
``Predicate.mask`` over the base data.  Three guards make that hold: NaN
rows take an image past every range; inclusive bounds are mapped onto
the index's half-open ranges in the dtype the column compares in
(``np.nextafter``, or + 1 for an int operand on an integer column); and
membership is decided by the *same* numpy promotion ``Predicate.mask``
performs — on the column's native values, or on image thresholds found
with that comparison — so int64 columns answer exactly even beyond
2**53, and the values returned are bit-identical to a gather of the rowids.
"""

from __future__ import annotations

import math
import numbers
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, fields

import numpy as np

from repro.engine.filter import Comparison, Predicate
from repro.indexing.sorted_index import SortedIndex
from repro.obs.trace import trace_span
from repro.storage.column import Column


def predicate_range(
    predicate: Predicate, dtype: np.dtype = np.dtype(np.float64)
) -> tuple[float, float] | None:
    """The half-open ``[low, high)`` value range of a range-shaped predicate.

    Inclusive bounds are mapped to half-open form with ``np.nextafter`` so
    the index's ``>= low and < high`` test agrees exactly with
    :meth:`repro.engine.filter.Predicate.mask` over a column of ``dtype``.
    A float32 column compares in float32 (numpy casts a Python float
    operand to the array's dtype), so its bounds step from the operand
    rounded to float32, in float32; integer and float64 columns step in
    float64; an int operand on an integer column stays an exact int (at
    most one past the dtype's range) and steps by 1.  Returns ``None`` for
    predicates that are not a contiguous range (``NE``) or whose operands
    are NaN/infinite — those fall back to a full scan.
    """
    dtype = np.dtype(dtype)
    step = dtype if dtype.kind == "f" else np.dtype(np.float64)

    def exact(value) -> int | float:
        if dtype.kind in "iu" and isinstance(value, numbers.Integral):
            info = np.iinfo(dtype)
            return min(max(int(value), info.min - 1), info.max + 1)
        return float(value)

    def above(value: float) -> float:
        if isinstance(value, int):
            return value + 1
        return float(np.nextafter(step.type(value), step.type(math.inf)))

    operand = exact(predicate.operand)
    if not math.isfinite(operand):
        return None
    comparison = predicate.comparison
    if comparison is Comparison.BETWEEN:
        upper = exact(predicate.upper)
        if not math.isfinite(upper):
            return None
        return operand, above(upper)
    if comparison is Comparison.EQ:
        return operand, above(operand)
    if comparison is Comparison.LT:
        return -math.inf, operand
    if comparison is Comparison.LE:
        return -math.inf, above(operand)
    if comparison is Comparison.GT:
        return above(operand), math.inf
    if comparison is Comparison.GE:
        return operand, math.inf
    return None  # NE is not a contiguous range


@dataclass
class RangeSelection:
    """The result of one bulk range selection (indexed or scanned).

    ``strategy`` records how the rowids were found: ``"index"`` (the
    column's :class:`~repro.indexing.sorted_index.SortedIndex`: a scan of a
    paged column's zonemap-kept chunks, or the value-sorted runs)
    or ``"scan"`` (the kernel's full scan of the base data).
    ``rows_scanned`` is how many values were actually inspected — the
    adaptive win is this number shrinking while ``rowids`` stays exactly
    what a full scan returns.
    """

    object_name: str
    column_name: str | None
    predicate: Predicate
    rowids: np.ndarray
    strategy: str
    rows_scanned: int
    values: np.ndarray | None = None
    selected: dict[str, np.ndarray] | None = None
    duration_s: float = 0.0

    @property
    def matches(self) -> int:
        """Number of qualifying rows."""
        return int(self.rowids.size)


@dataclass
class IndexManagerStats:
    """Counters describing the tier's activity (monotonic, lock-guarded)."""

    consultations: int = 0
    indexed_consultations: int = 0
    tail_merges: int = 0
    rows_merged_total: int = 0
    crackers_built: int = 0
    crackers_dropped: int = 0
    invalidations: int = 0
    prefix_extensions: int = 0

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy of every counter."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class _ColumnIndexState:
    """Index state bound to one concrete column object.

    States are keyed by ``(object, column, id(column))`` — the identity
    dimension lets same-named private columns of different sessions keep
    separate index state under one shared manager instead of thrashing
    each other's indexes.  The column itself is held weakly so a dead
    session's private columns do not pin the manager's bookkeeping; a
    live index keeps its column alive through ``SortedIndex.column``, so
    a state with an index never sees its weakref die.
    """

    key: tuple[str, str | None]
    column_ref: "weakref.ref[Column]"
    lock: threading.RLock = field(default_factory=threading.RLock)
    cracker: SortedIndex | None = None
    cracker_refused: bool = False  # e.g. non-numeric, empty


class IndexManager:
    """Owns, consults and evicts per-column adaptive index state.

    Parameters
    ----------
    max_crackers:
        Upper bound on simultaneously live indexes; beyond it the
        least-recently-consulted index is dropped (and rebuilt on its
        next consult).  This is the one bound on the manager's memory —
        relevant for a long-lived shared manager serving many sessions
        with private columns.
    """

    def __init__(self, max_crackers: int = 64) -> None:
        self.max_crackers = max_crackers
        self.stats = IndexManagerStats()
        self._lock = threading.RLock()
        #: keyed by (object, column, id(column)); insertion/consultation
        #: order doubles as the cap's LRU
        self._states: OrderedDict[
            tuple[str, str | None, int], _ColumnIndexState
        ] = OrderedDict()

    # ------------------------------------------------------------------ #
    # state bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def tracked_keys(self) -> list[tuple[str, str | None]]:
        """Every (object, column) pair the manager currently tracks."""
        with self._lock:
            self._prune_dead_locked()
            seen: list[tuple[str, str | None]] = []
            for state in self._states.values():
                if state.key not in seen:
                    seen.append(state.key)
            return seen

    @property
    def index_bytes(self) -> int:
        """Bytes held by the live crackers: the ``cracker_bytes`` gauge."""
        return self.stats_snapshot()["cracker_bytes"]

    def stats_snapshot(self) -> dict[str, int]:
        """Every activity counter plus point-in-time gauges.

        Gauges (``crackers_live``, ``cracker_bytes``) are read off the live
        indexes without column locks — ``size_bytes`` is a single-attribute
        read of an atomically swapped tuple of runs, so a concurrent build
        can skew the gauge by one index but never tear it.  This is the
        observability surface the session metrics and the fleet ``stats``
        verb expose.
        """
        with self._lock:
            data = self.stats.snapshot()
            crackers = [c for state in self._states.values() if (c := state.cracker) is not None]
        data.update(
            crackers_live=len(crackers),
            cracker_bytes=sum(cracker.size_bytes for cracker in crackers),
        )
        return data

    def cracker_for(
        self, object_name: str, column_name: str | None = None
    ) -> SortedIndex | None:
        """The most recently consulted live index of one pair (or ``None``)."""
        with self._lock:
            for key in reversed(self._states):
                state = self._states[key]
                if state.key == (object_name, column_name) and state.cracker is not None:
                    return state.cracker
            return None

    def _prune_dead_locked(self) -> None:
        """Drop states whose column has been garbage collected.

        Caller holds the manager lock.  A state with a live cracker can
        never be dead (the cracker strongly references its column), so
        pruning drops no cracker.
        """
        doomed = [key for key, state in self._states.items() if state.column_ref() is None]
        for key in doomed:
            del self._states[key]

    def _state_for(self, object_name: str, column_name: str | None, column: Column):
        """Get-or-create the state for one concrete column object.

        Keyed by identity on top of the name pair: sessions sharing base
        storage by reference land on one state (and one cracker), while a
        session with a *private* same-named column gets its own state —
        serving it rowids indexed from different data would be a
        correctness bug, and discarding the peer's cracker on every
        access would be a quadratic performance one.
        """
        key = (object_name, column_name, id(column))
        with self._lock:
            self._prune_dead_locked()
            state = self._states.get(key)
            if state is None:
                state = _ColumnIndexState(
                    key=(object_name, column_name), column_ref=weakref.ref(column)
                )
                self._states[key] = state
            self._states.move_to_end(key)  # LRU refresh
        return state

    def _states_matching(
        self, object_name: str | None, column_name: str | None
    ) -> list[_ColumnIndexState]:
        """Every state of the object (any, if ``None``) and column (likewise)."""
        with self._lock:
            return [
                state
                for key, state in self._states.items()
                if (object_name is None or key[0] == object_name)
                and (column_name is None or key[1] == column_name)
            ]

    def _enforce_cracker_cap(self, keep: _ColumnIndexState) -> None:
        """Drop least-recently-consulted crackers beyond ``max_crackers``.

        The one bound on index memory.  ``keep`` (the state just consulted)
        is never the victim.  Unlinking takes no column lock: a lookup
        holding a reference to the orphaned index completes on it, and the
        next consultation rebuilds.
        """
        with self._lock:
            live = [
                state
                for state in self._states.values()
                if state.cracker is not None and state is not keep
            ]
            excess = (len(live) + 1) - self.max_crackers
            for state in live[:max(0, excess)]:
                state.cracker = None
                self.stats.crackers_dropped += 1

    # ------------------------------------------------------------------ #
    # building indexes
    # ------------------------------------------------------------------ #
    def _ensure_cracker(self, state: _ColumnIndexState, column: Column) -> SortedIndex | None:
        """Build (or return) the state's index.  Caller holds state.lock.

        Returns ``None`` when the column cannot be indexed (non-numeric,
        empty).  ``state.cracker`` is read and written once: a concurrent
        cap drop unlinks it without the column lock, and the caller still
        answers on the reference returned here.
        """
        cracker = state.cracker
        if cracker is not None or state.cracker_refused:
            return cracker
        if not (column.is_numeric and len(column)):
            state.cracker_refused = True
            return None
        cracker = state.cracker = SortedIndex(column)
        with self._lock:
            self.stats.crackers_built += 1
        return cracker

    def observe_predicate(
        self,
        object_name: str,
        column_name: str | None,
        column: Column,
        predicate: Predicate,
    ) -> bool:
        """A no-op kept for callers that report a gesture's predicate:
        the index is built by the first consultation and refined by none,
        so there is nothing to observe.  Always returns ``False``."""
        return False

    # ------------------------------------------------------------------ #
    # consultation (the read side)
    # ------------------------------------------------------------------ #
    def select_rowids(
        self,
        object_name: str,
        column_name: str | None,
        column: Column,
        predicate: Predicate,
    ) -> RangeSelection | None:
        """Rowids satisfying ``predicate``, scanning as little as possible.

        Returns ``None`` when the tier has no strategy for this predicate
        or column (non-range predicate, non-numeric or empty column) —
        the caller then runs the full scan itself.  The returned
        rowids are always sorted and bit-identical to
        ``np.nonzero(predicate.mask(column.values))[0]``; ``values`` holds
        ``column.read_batch(rowids)`` when the index could answer it from
        its own keys or scans, ``None`` when the runs' keys could not give
        them.
        """
        with self._lock:
            self.stats.consultations += 1
        if not column.is_numeric:
            return None
        bounds = predicate_range(predicate, column.dtype.numpy_dtype)
        if bounds is None:
            return None
        state = self._state_for(object_name, column_name, column)
        with state.lock:
            cracker = self._ensure_cracker(state, column)
            if cracker is None:
                return None
            scanned_before = cracker.values_scanned_total
            rowids, values = cracker.rows_in_range(*bounds)
            rows_scanned = cracker.values_scanned_total - scanned_before
            covered = cracker.covered_rows
            n = len(column)
            if covered < n:
                # validity window: the index answers exactly for the
                # prefix it was built over; rows appended since then are
                # scanned with the predicate itself (exact by definition)
                # until merge_tails folds them in.  Tail hits all land at
                # rowids >= covered, so appending them keeps the result
                # sorted.  raw_slice reads a paged column off its mapping
                # and never evicts the gestures' chunks.
                with trace_span("tail_scan", object=object_name, rows=n - covered):
                    tail = np.asarray(column.raw_slice(covered, n))
                    hits = np.flatnonzero(predicate.mask(tail))
                    if hits.size:
                        rowids = np.concatenate([rowids, hits + covered])
                        if values is not None:
                            values = np.concatenate([values, tail[hits]])
                    rows_scanned += int(tail.shape[0])
        self._enforce_cracker_cap(keep=state)
        with self._lock:
            self.stats.indexed_consultations += 1
        return RangeSelection(
            object_name=object_name,
            column_name=column_name,
            predicate=predicate,
            rowids=rowids,
            strategy="index",
            rows_scanned=rows_scanned,
            values=values,
        )

    # ------------------------------------------------------------------ #
    # validity windows (live appends)
    # ------------------------------------------------------------------ #
    def extend_valid_prefix(
        self,
        object_name: str,
        column_name: str | None = None,
        new_length: int | None = None,
    ) -> int:
        """Signal that ``object_name``'s columns *grew* (append, not replace).

        The narrow alternative to :meth:`invalidate` for live ingestion:
        existing indexes are kept — they simply cover a shorter prefix
        (their validity window) and :meth:`select_rowids` scans the
        appended tail until :meth:`merge_tails` folds it in.  A previously
        *refused* column (e.g. one that used to be empty) becomes eligible
        again.
        If any tracked index turns out to cover *more* rows than the
        column now holds, the data did not grow — it was replaced or
        truncated — and the call degrades to a full :meth:`invalidate`.
        Returns how many column states were touched (or dropped, on the
        degraded path).
        """
        states = self._states_matching(object_name, column_name)
        touched = 0
        for state in states:
            column = state.column_ref()
            if column is None:
                continue
            target = len(column) if new_length is None else int(new_length)
            with state.lock:
                cracker = state.cracker
                if cracker is not None and cracker.covered_rows > target:
                    return self.invalidate(object_name)
                state.cracker_refused = False
            touched += 1
        if touched:
            with self._lock:
                self.stats.prefix_extensions += 1
        return touched

    def merge_tails(
        self, object_name: str | None = None, column_name: str | None = None
    ) -> int:
        """Advance every matching live index's validity window over its
        appended tail.

        Returns total rows folded.  This is the background-lane entry
        point; each index sorts its merged rows into a run under its own
        column lock, so lookups on *other* columns never wait.
        """
        merged = 0
        for state in self._states_matching(object_name, column_name):
            with state.lock:
                cracker = state.cracker
                rows = 0 if cracker is None else cracker.merge_tail()
            if rows:
                merged += rows
                with self._lock:
                    self.stats.tail_merges += 1
                    self.stats.rows_merged_total += rows
        return merged

    # ------------------------------------------------------------------ #
    # invalidation
    # ------------------------------------------------------------------ #
    def _drop_states(self, object_name: str | None) -> int:
        """Unlink every state of ``object_name`` (``None``: of every object).

        Returns how many column states were dropped.
        """
        with self._lock:
            doomed = [
                key
                for key, state in self._states.items()
                if object_name is None or state.key[0] == object_name
            ]
            for key in doomed:
                state = self._states.pop(key)
                if state.cracker is not None:
                    self.stats.crackers_dropped += 1
                state.cracker = None
        return len(doomed)

    def invalidate(self, object_name: str) -> int:
        """Drop every index derived from ``object_name`` (its data changed).

        Returns how many column states were discarded.  Called by the
        kernel's replace-reload path; a shared manager invalidates for
        every session at once, which is exactly right — the old data is
        gone for all of them.
        """
        dropped = self._drop_states(object_name)
        if dropped:
            with self._lock:
                self.stats.invalidations += 1
        return dropped

    def clear(self) -> int:
        """Drop all index state (returns how many column states existed)."""
        return self._drop_states(None)
