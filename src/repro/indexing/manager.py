"""The adaptive indexing tier: per-column index state in the gesture hot path.

The paper's core bet is that physical organization should adapt as a side
effect of how users touch data.  :class:`IndexManager` is the seam that
wires that bet into the kernel:

* it owns per-``(object, column)`` index state — a
  :class:`repro.indexing.cracking.CrackerIndex` for in-memory numeric
  columns, a :class:`repro.indexing.paged.PagedCrackerIndex` for
  out-of-core :class:`repro.persist.paged_column.PagedColumn` objects (a
  scan of the chunks the persisted zonemaps leave; where they leave more
  than ``SCAN_MAX_CHUNKS``, one value-sorted rowid permutation of the
  column answers instead);
* every qualifying gesture — a slide whose action carries a range-shaped
  predicate — *refines* the matching cracker via
  :meth:`observe_predicate`, outside the gesture's outcome accounting, so
  ``GestureOutcome`` counters stay bit-identical with indexing on or off;
* bulk range selections (:meth:`repro.core.kernel.DbTouchKernel.select_where`)
  *consult* the tier via :meth:`select_rowids`, scanning only the cracked
  pieces / zonemap-kept chunks / sorted runs that can overlap the predicate
  instead of the whole column;
* crackers are bounded by count alone (``max_crackers``), dropped
  least-recently-consulted first: indexes are a side effect of touches, so
  a dropped one costs its next consultation one rebuild and never changes
  an answer; the bytes they hold are read off them (``index_bytes``);
* :meth:`invalidate` drops every index derived from an object whose data
  was replace-reloaded, and :meth:`adopt_cracker` revives persisted state
  from a :class:`repro.persist.snapshot.StoreCatalog` warm start;
* live appends go through :meth:`extend_valid_prefix` instead of
  invalidation: crackers keep answering for the prefix they cover (their
  *validity window*) while :meth:`select_rowids` scans the appended tail,
  and :meth:`merge_tails` — run on the background lane — folds tails into
  the cracked structure in place (under the column lock, like a crack; cost
  follows the tail, not the column) without ever discarding earned cracks.

**Concurrency.**  One manager may be shared by every session of a
:class:`repro.service.MultiSessionServer` whose sessions attach the same
base storage by reference; refinement and consultation then run on
parallel scheduler workers.  All piece mutation happens under a per-column
lock; the manager-level lock only guards the state dictionary and the
LRU/statistics bookkeeping, and is never held while a column lock is
taken.  The cap drops a column's cracker by atomically unlinking it,
without the column lock — an in-flight lookup keeps its own reference and
completes on the orphaned (still self-consistent) index.

**Exactness.**  Indexed selections must agree bit-for-bit with
``Predicate.mask`` over the base data.  Three guards make that hold: NaN
rows are segregated by the cracker; inclusive/exclusive predicate bounds
are mapped onto the cracker's half-open ranges with ``np.nextafter``; and
cracker arrays preserve the column's native dtype, so piece membership is
decided by the *same* numpy promotion ``Predicate.mask`` performs — int64
columns crack exactly even beyond 2**53, where the old float64-copy design
had to refuse them.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, fields

import numpy as np

from repro.engine.filter import Comparison, Predicate
from repro.indexing.cracking import (
    ACTIVITY_COUNTERS,
    Cracker,
    CrackerIndex,
    CrackerState,
)
from repro.indexing.paged import PagedCrackerIndex, is_chunked
from repro.obs.trace import trace_span
from repro.storage.column import Column


def _with_activity(cracker: Cracker, operation, *args, **kwargs):
    """Run one cracker operation (caller holds the column lock).

    Returns ``(result, did)`` — ``did`` is what the operation added to each
    count of the cracker's activity ledger, for
    :meth:`IndexManagerStats.apply_activity`.
    """
    before = dict(cracker.activity)
    result = operation(*args, **kwargs)
    return result, {name: count - before[name] for name, count in cracker.activity.items()}


def predicate_range(predicate: Predicate) -> tuple[float, float] | None:
    """The half-open ``[low, high)`` value range of a range-shaped predicate.

    Inclusive upper bounds are mapped to half-open form with
    ``np.nextafter`` so the cracker's ``>= low and < high`` test agrees
    exactly with :meth:`repro.engine.filter.Predicate.matches`.  Returns
    ``None`` for predicates that are not a contiguous range (``NE``) or
    whose operands are NaN/infinite — those fall back to a full scan.
    """
    operand = float(predicate.operand)
    if not math.isfinite(operand):
        return None
    comparison = predicate.comparison
    if comparison is Comparison.BETWEEN:
        upper = float(predicate.upper)
        if not math.isfinite(upper):
            return None
        return operand, float(np.nextafter(upper, math.inf))
    if comparison is Comparison.EQ:
        return operand, float(np.nextafter(operand, math.inf))
    if comparison is Comparison.LT:
        return -math.inf, operand
    if comparison is Comparison.LE:
        return -math.inf, float(np.nextafter(operand, math.inf))
    if comparison is Comparison.GT:
        return float(np.nextafter(operand, math.inf)), math.inf
    if comparison is Comparison.GE:
        return operand, math.inf
    return None  # NE is not a contiguous range


@dataclass
class RangeSelection:
    """The result of one bulk range selection (indexed or scanned).

    ``strategy`` records how the rowids were found: ``"cracker"`` (cracked
    pieces), ``"paged-cracker"`` (a paged column's index: a scan of the
    zonemap's candidate chunks, or its value-sorted permutation when those
    outnumber ``SCAN_MAX_CHUNKS``) or ``"scan"``
    (full scan of the base data).  ``rows_scanned`` is how many
    values were actually inspected — the adaptive win is this number
    shrinking while ``rowids`` stays exactly what a full scan returns.
    """

    object_name: str
    column_name: str | None
    predicate: Predicate
    rowids: np.ndarray
    strategy: str
    rows_scanned: int
    refined: bool = False
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
    refinements: int = 0
    cracks_performed: int = 0
    stochastic_cracks: int = 0
    coalesces_performed: int = 0
    pieces_merged: int = 0
    tail_merges: int = 0
    rows_merged_total: int = 0
    rows_moved_total: int = 0
    crackers_built: int = 0
    paged_crackers_built: int = 0
    crackers_adopted: int = 0
    crackers_dropped: int = 0
    invalidations: int = 0
    prefix_extensions: int = 0

    def apply_activity(self, did: dict[str, int]) -> None:
        """Fold what one cracker operation did (:func:`_with_activity`) in."""
        for name in ACTIVITY_COUNTERS:
            setattr(self, name, getattr(self, name) + did[name])

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy of every counter."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class _ColumnIndexState:
    """Index state bound to one concrete column object.

    States are keyed by ``(object, column, id(column))`` — the identity
    dimension lets same-named private columns of different sessions keep
    separate index state under one shared manager instead of thrashing
    each other's crackers.  The column itself is held weakly so a dead
    session's private columns do not pin the manager's bookkeeping; a
    live cracker keeps its column alive through ``CrackerIndex.column``,
    so a state with a cracker never sees its weakref die.
    """

    key: tuple[str, str | None]
    column_ref: "weakref.ref[Column]"
    lock: threading.RLock = field(default_factory=threading.RLock)
    cracker: Cracker | None = None
    cracker_refused: bool = False  # e.g. non-numeric, empty


class IndexManager:
    """Owns, refines, consults and evicts per-column adaptive index state.

    Parameters
    ----------
    max_crackers:
        Upper bound on simultaneously live crackers; beyond it the
        least-recently-consulted cracker is dropped (and rebuilt on its
        next consult).  This is the one bound on the manager's memory —
        relevant for a long-lived shared manager serving many sessions
        with private columns.
    stochastic / crack_seed:
        Enable the MDD1R-style stochastic crack mix on every cracker built
        by this manager; ``crack_seed`` makes the random pivot stream
        deterministic per manager.

    A paged (chunked) column's :class:`~repro.indexing.paged.PagedCrackerIndex`
    takes none of these knobs: it cracks nothing.
    """

    def __init__(
        self,
        max_crackers: int = 64,
        *,
        stochastic: bool = False,
        crack_seed: int = 0,
    ) -> None:
        self.max_crackers = max_crackers
        self.stochastic = bool(stochastic)
        self.crack_seed = int(crack_seed)
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

        Gauges (``crackers_live``, ``piece_count``, ``cracker_bytes``) are
        read off the live crackers without column locks — piece counts and
        ``size_bytes`` are single-attribute reads of atomically swapped
        arrays, so a concurrent crack can skew a gauge by a piece but never
        tear it.  This is the observability surface the session metrics
        and the fleet ``stats`` verb expose.
        """
        with self._lock:
            data = self.stats.snapshot()
            crackers = [c for state in self._states.values() if (c := state.cracker) is not None]
        data.update(
            crackers_live=len(crackers),
            piece_count=sum(cracker.num_pieces for cracker in crackers),
            cracker_bytes=sum(cracker.size_bytes for cracker in crackers),
        )
        return data

    def has_cracker(self, object_name: str, column_name: str | None = None) -> bool:
        """Whether any live cracker exists for the pair."""
        return self.cracker_for(object_name, column_name) is not None

    def cracker_for(
        self, object_name: str, column_name: str | None = None
    ) -> Cracker | None:
        """The most recently consulted live cracker of one pair (or ``None``)."""
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
        serving it rowids cracked from different data would be a
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

        The one bound on index memory.  ``keep`` (the state just consulted
        or adopted) is never the victim.  Unlinking takes no column lock: a
        lookup holding a reference to the orphaned index completes on it,
        and the next consultation rebuilds.
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
    # building / adopting crackers
    # ------------------------------------------------------------------ #
    def _ensure_cracker(
        self, state: _ColumnIndexState, column: Column
    ) -> Cracker | None:
        """Build (or return) the state's cracker.  Caller holds state.lock.

        Returns ``None`` when the column cannot be cracked (non-numeric,
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
        paged = is_chunked(column)  # the one column-kind test: which cracker to build
        if paged:
            cracker = PagedCrackerIndex(column)
        else:
            cracker = CrackerIndex(column, stochastic=self.stochastic, seed=self.crack_seed)
        state.cracker = cracker
        with self._lock:
            self.stats.crackers_built += 1
            self.stats.paged_crackers_built += int(paged)
        return cracker

    def adopt_cracker(
        self,
        object_name: str,
        column_name: str | None,
        column: Column,
        cracker_state: CrackerState,
    ) -> CrackerIndex:
        """Revive persisted cracker state for a live column (warm start).

        Raises :class:`repro.errors.StorageError` when the state does not
        fit the column (length mismatch, malformed piece structure); the
        snapshot attach path treats that as "start cold for this column".
        """
        cracker = CrackerIndex.from_state(column, cracker_state)
        state = self._state_for(object_name, column_name, column)
        with state.lock:
            state.cracker = cracker
            state.cracker_refused = False
        with self._lock:
            self.stats.crackers_adopted += 1
        self._enforce_cracker_cap(keep=state)
        return cracker

    def cracked_states(self) -> list[tuple[tuple[str, str | None], CrackerState]]:
        """Export live cracker state for snapshot persistence.

        At most one export per (object, column) pair: when several column
        identities share a name (private per-session copies), the most
        recently consulted cracker wins.  A kind with no exportable state
        is skipped — a paged cracker's permutation rebuilds on demand.
        """
        with self._lock:
            latest: dict[tuple[str, str | None], _ColumnIndexState] = {}
            for state in self._states.values():  # LRU order: later = fresher
                if state.cracker is not None:
                    latest[state.key] = state
            states = list(latest.values())
        exported = []
        for state in states:
            with state.lock:
                cracker_state = None if state.cracker is None else state.cracker.export_state()
            if cracker_state is not None:
                exported.append((state.key, cracker_state))
        return exported

    # ------------------------------------------------------------------ #
    # refinement (the gesture side effect)
    # ------------------------------------------------------------------ #
    def observe_predicate(
        self,
        object_name: str,
        column_name: str | None,
        column: Column,
        predicate: Predicate,
    ) -> bool:
        """Refine the pair's index around a gesture's predicate bounds.

        This is the touch-driven cracking hook the kernel calls after a
        qualifying gesture executed.  It mutates only index-tier state —
        never the gesture's outcome — and returns whether any new crack
        was performed.
        """
        bounds = predicate_range(predicate)
        if bounds is None or not column.is_numeric:
            return False
        state = self._state_for(object_name, column_name, column)
        with state.lock:
            cracker = self._ensure_cracker(state, column)
            if cracker is None:
                return False
            _, did = _with_activity(cracker, cracker.crack_range, *bounds)
        self._enforce_cracker_cap(keep=state)
        with self._lock:
            self.stats.refinements += 1
            self.stats.apply_activity(did)
        return did["cracks_performed"] > 0

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
        ``np.nonzero(predicate.mask(column.values))[0]``.
        """
        with self._lock:
            self.stats.consultations += 1
        bounds = predicate_range(predicate)
        if bounds is None or not column.is_numeric:
            return None
        low, high = bounds
        state = self._state_for(object_name, column_name, column)
        with state.lock:
            cracker = self._ensure_cracker(state, column)
            if cracker is None:
                return None
            rowids, did = _with_activity(cracker, cracker.rowids_in_range, low, high, crack=True)
            rows_scanned = did["values_scanned_total"]
            covered = cracker.covered_rows
            n = len(column)
            if covered < n:
                # validity window: the cracker answers exactly for the
                # prefix it was built over; rows appended since then are
                # scanned with the predicate itself (exact by definition)
                # until merge_tails folds them in.  Tail hits all land at
                # rowids >= covered, so appending them keeps the result
                # sorted.  raw_slice reads a paged column off its mapping
                # and never evicts the gestures' chunks.
                with trace_span("tail_scan", object=object_name, rows=n - covered):
                    tail = np.asarray(column.raw_slice(covered, n))
                    hits = np.nonzero(predicate.mask(tail))[0].astype(np.int64)
                    if hits.size:
                        rowids = np.concatenate([rowids, hits + covered])
                    rows_scanned += int(tail.shape[0])
        refined = did["cracks_performed"] > 0
        self._enforce_cracker_cap(keep=state)
        with self._lock:
            self.stats.indexed_consultations += 1
            self.stats.apply_activity(did)
            if refined:
                self.stats.refinements += 1
        return RangeSelection(
            object_name=object_name,
            column_name=column_name,
            predicate=predicate,
            rowids=rowids,
            strategy=cracker.strategy,
            rows_scanned=rows_scanned,
            refined=refined,
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
        existing cracked state is kept — the crackers simply cover a
        shorter prefix (their validity window) and :meth:`select_rowids`
        scans the appended tail until :meth:`merge_tails` folds it in.
        A previously *refused* cracker (e.g. the column used to be empty)
        becomes eligible again.
        If any tracked cracker turns out to cover *more* rows than the
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
        """Fold appended tails into every matching live cracker.

        Returns total rows folded.  This is the background-lane entry
        point: gestures keep answering through the validity window while
        the merge runs; each cracker's merge is a single pass under its
        own column lock, so lookups on *other* columns never wait.
        """
        merged = 0
        for state in self._states_matching(object_name, column_name):
            with state.lock:
                cracker = state.cracker
                if cracker is None:
                    continue
                rows, did = _with_activity(cracker, cracker.merge_tail)
                merged += rows
            with self._lock:
                self.stats.apply_activity(did)
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
