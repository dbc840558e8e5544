"""Vectorized batch execution of slide gestures.

The per-touch reference path in :class:`repro.core.kernel.DbTouchKernel`
executes a slide one event at a time: map the touch, detect the stride,
read the value, fold the aggregate, emit the result.
That loop is pure Python and its cost per touch dwarfs the cost of the
actual data access, so a fast digitizer (thousands of events per gesture)
blows the per-touch latency budget on interpreter overhead alone.

:class:`BatchSlideExecutor` runs the same gesture as a handful of numpy
passes over whole arrays:

1. :meth:`repro.core.touch_mapping.TouchMapper.map_batch` converts the
   stream's location arrays to rowid/fraction arrays in one Rule-of-Three
   pass (the stream is arrays from the synthesizer on: no event object);
2. :func:`dedupe_slide_batch` removes paused-finger duplicates and derives
   the per-touch stride sequence from the rowid differences;
3. sample-hierarchy reads, summary windows, predicates and running
   aggregates are applied with the batched APIs
   (:meth:`~repro.storage.sample.SampleHierarchy.read_batch`,
   :meth:`~repro.core.summaries.InteractiveSummarizer.summarize_batch`,
   :meth:`~repro.engine.filter.Predicate.mask`,
   :meth:`~repro.engine.aggregate.RunningAggregate.on_batch`);
4. the displayed values land in the result stream as one
   :class:`~repro.core.result_stream.ResultColumns` chunk, which the
   outcome shares: ``rowids_touched`` is the kept rowid array, and no
   :class:`~repro.core.result_stream.ResultValue` is built until someone
   reads ``outcome.results``.

Every touch reads its own row: a slide's reads are one batched read of
its kept rowids (:meth:`BatchSlideExecutor._read_rows`), with no cache
in front of it — a gather costs less than the bookkeeping that would
avoid it.

The executor produces the same deterministic
:class:`~repro.core.kernel.GestureOutcome` fields as the reference loop —
``rowids_touched``, ``tuples_examined``, ``entries_returned``,
``served_level_counts`` and (for exactly-representable inputs)
``final_aggregate`` — while being an order of magnitude faster on dense
gestures.  Two documented deviations from the reference path: per-touch
wall-clock latencies are amortized (batch time divided by touches, one
value repeated in an array), and
the adaptive optimizer adjusts the summary window once per gesture rather
than once per violating touch — so when the latency budget is actually
violated mid-gesture (a timing-dependent condition no replay can
reproduce bit-exactly), a SUMMARY gesture's window sizes, and with them
``tuples_examined`` and the displayed values, may differ from what the
per-touch loop's touch-by-touch shrinking would have produced.  Counter
parity is exact whenever the budget is honored.

The adaptive index is not part of batch execution: no gesture builds or
refines it (bulk ``select_where`` calls build it), so the counters above
are bit-identical whether the indexing tier is enabled or not — the
invariant the differential gesture harness
(``tests/test_differential_gestures.py``) replays seeded scripts to lock
down.  Slides never *consult* the index either: a select-where slide
reads its where-values with the same ``read_batch`` every other slide
uses.

No step runs Python per touch: under ``sys.settrace``,
``tests/test_slide_arrays.py`` counts the lines this module and the result
stream execute for a 40-touch and a 400-touch slide, and they are equal.
"""

from __future__ import annotations

import math
import time
import weakref

import numpy as np

from repro.core.actions import ActionKind
from repro.touchio.recognizer import GestureType

#: Per-touch latencies are quantized to multiples of 2^-40 s (~1 ps): n
#: such multiples (n * value < 2^53 quanta) sum exactly in float64, so the
#: mean of the constant amortized-latency list equals its max.
_LATENCY_QUANTUM = float(2**40)


def dedupe_slide_batch(
    rowids: np.ndarray,
    last_rowid: int | None,
    current_stride: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Run-deduplicate a mapped slide and derive its stride sequence.

    Mirrors the per-touch rule exactly: a touch reporting the same rowid as
    the previous *processed* touch (including ``last_rowid`` carried over
    from an earlier gesture) is dropped, and each kept touch's stride is
    the absolute rowid distance to its predecessor, with ``current_stride``
    carried into the first touch when no distance is available yet.

    Returns ``(keep_mask, strides)`` where ``keep_mask`` indexes the input
    and ``strides`` aligns with the *kept* touches.
    """
    r = np.asarray(rowids, dtype=np.int64)
    n = r.size
    keep = np.empty(n, dtype=bool)
    if n == 0:
        return keep, np.empty(0, dtype=np.int64)
    keep[0] = last_rowid is None or int(r[0]) != int(last_rowid)
    np.not_equal(r[1:], r[:-1], out=keep[1:])
    kept = r[keep]
    strides = np.empty(kept.size, dtype=np.int64)
    if kept.size == 0:
        return keep, strides
    if kept.size > 1:
        np.abs(kept[1:] - kept[:-1], out=strides[1:])
    first = abs(int(kept[0]) - int(last_rowid)) if last_rowid is not None else 0
    strides[0] = first if first > 0 else max(1, int(current_stride))
    return keep, strides


class BatchSlideExecutor:
    """Executes slide gestures over whole touch arrays at once.

    Owned by a :class:`~repro.core.kernel.DbTouchKernel`; the kernel
    dispatches to :meth:`execute` when ``KernelConfig.batch_execution`` is
    on and :meth:`supports` accepts the object/action combination.  The
    per-touch loop remains the reference implementation for join,
    group-by and attribute-dependent table scans.
    """

    def __init__(self, kernel) -> None:
        # a proxy, not a reference: the kernel owns its executor, and a
        # cycle would keep the kernel's columns and indexes alive past
        # their session until the next full garbage collection
        self._kernel = weakref.proxy(kernel)

    # ------------------------------------------------------------------ #
    # eligibility
    # ------------------------------------------------------------------ #
    def supports(self, state, join) -> bool:
        """Whether this gesture can take the vectorized path."""
        if join is not None:
            return False
        action = state.action
        if action.kind in (ActionKind.SCAN, ActionKind.AGGREGATE, ActionKind.SUMMARY):
            if state.column is None:
                return False  # table scans read a per-touch attribute
            if action.kind is ActionKind.SUMMARY and state.summarizer is None:
                return False
            if action.kind is ActionKind.AGGREGATE and state.aggregate is None:
                return False
            return True
        if action.kind is ActionKind.SELECT_WHERE:
            return state.table is not None and action.where_attribute is not None
        return False

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(self, state, gesture):
        """Execute one recognized slide gesture and return its outcome.

        Always an outcome, for every gesture :meth:`supports` accepted:
        no gesture is handed back to the per-touch loop.
        """
        from repro.core.kernel import GestureOutcome

        kernel = self._kernel
        outcome = GestureOutcome(
            gesture_type=GestureType.SLIDE,
            view_name=gesture.view_name,
            object_name=state.object_name,
            duration_s=gesture.duration,
        )
        started = time.perf_counter()
        batch = kernel.mapper.map_batch(state.view, gesture.stream, active_only=True)
        if len(batch) == 0:
            self._finalize(state, outcome)
            return outcome
        keep, strides = dedupe_slide_batch(
            batch.rowids, state.last_rowid, state.current_stride
        )
        state.last_timestamp = float(batch.timestamps[-1])
        rowids = batch.rowids[keep]
        if rowids.size == 0:
            self._finalize(state, outcome)
            return outcome
        fractions = batch.fractions[keep]
        timestamps = batch.timestamps[keep]
        n = int(rowids.size)

        values, levels, read_rowids = self._serve_values(state, rowids, strides, outcome)
        outcome.rowids_touched = rowids
        self._count_levels(outcome, levels)
        self._apply_action(state, outcome, read_rowids, values, fractions, timestamps)

        state.last_rowid = int(rowids[-1])
        state.current_stride = int(strides[-1])
        elapsed = time.perf_counter() - started
        # amortized per-touch latency, quantized to 2^-40 s so that summing
        # n copies is exact float arithmetic and mean == max holds for the
        # constant latency array (unquantized, the sum can round 1 ulp up)
        per_touch = math.floor((elapsed / n) * _LATENCY_QUANTUM) / _LATENCY_QUANTUM
        outcome.per_touch_latencies_s = np.full(n, per_touch)
        kernel.optimizer.observe_batch(n, per_touch)
        self._finalize(state, outcome)
        return outcome

    @staticmethod
    def _finalize(state, outcome) -> None:
        if state.aggregate is not None:
            outcome.final_aggregate = state.aggregate.current()

    @staticmethod
    def _count_levels(outcome, levels: np.ndarray) -> None:
        counts = np.bincount(levels)
        served = counts.nonzero()[0]
        outcome.served_level_counts = dict(zip(served.tolist(), counts[served].tolist()))

    # ------------------------------------------------------------------ #
    # reading values through samples / summaries / base data
    # ------------------------------------------------------------------ #
    def _serve_values(self, state, rowids, strides, outcome):
        """Serve one value per processed touch, each from its own row, in
        one batched read.  Returns ``(values, levels, rowids_read)`` and
        counts the tuples read into the outcome."""
        if state.action.kind is ActionKind.SUMMARY:
            state.summarizer.k = self._kernel._effective_summary_k(state)
        values, tuples, levels, read_rowids = self._read_rows(state, rowids, strides)
        outcome.tuples_examined += tuples
        return values, levels, read_rowids

    # ------------------------------------------------------------------ #
    # applying the query action
    # ------------------------------------------------------------------ #
    def _apply_action(self, state, outcome, rowids, values, fractions, timestamps):
        """Filter, fold and emit the served values as one batch.

        Reproduces the per-touch action application: the predicate drops
        touches without results, select-where projects the qualifying
        tuples' selected attributes, running aggregates display their
        evolving value, and every displayed value is emitted into the
        result stream at the touch's position and timestamp, tagged with
        the row it was read from (``rowids``).
        """
        action = state.action
        if action.predicate is not None:
            # batch values are always scalars, matching the per-touch
            # np.isscalar guard
            pass_mask = np.asarray(action.predicate.mask(values), dtype=bool)
        else:
            pass_mask = np.ones(rowids.size, dtype=bool)
        if not pass_mask.any():
            return
        pass_rowids = rowids[pass_mask]
        pass_fractions = fractions[pass_mask]
        pass_timestamps = timestamps[pass_mask]
        if action.kind is ActionKind.SELECT_WHERE:
            # dict.fromkeys mirrors the reference path's dict-collapse of
            # duplicate select attributes in the tuples_examined count
            names = list(dict.fromkeys(action.select_attributes))
            selected = [state.table.column(name).read_batch(pass_rowids) for name in names]
            display = [dict(zip(names, row)) for row in zip(*selected)]
            outcome.tuples_examined += len(names) * int(pass_rowids.size)
        elif action.kind is ActionKind.AGGREGATE and state.aggregate is not None:
            display = state.aggregate.on_batch(values[pass_mask])
        else:
            display = values[pass_mask]
        outcome.result_columns = state.results.emit_batch(
            display, pass_rowids, pass_fractions, pass_timestamps
        )
        outcome.entries_returned += int(pass_rowids.size)

    def _read_rows(self, state, rowids, strides):
        """Read values for an array of rowids the way the per-touch path
        would: summaries through the summarizer, select-where through the
        where attribute, column scans through the sample hierarchy.
        Returns ``(values, tuples_read, levels, rowids_read)``,
        ``tuples_read`` the total over the rowids and ``rowids_read`` the
        row each value came from: ``r - r % step`` for a sample level of
        that step, the touched rowid for a summary window."""
        action = state.action
        if action.kind is ActionKind.SUMMARY and state.summarizer is not None:
            values, counts, levels = state.summarizer.summarize_batch(rowids, strides)
            return values, int(counts.sum()), levels, rowids
        m = int(rowids.size)
        if state.hierarchy is not None and self._kernel.config.enable_samples:
            # only column objects carry a hierarchy
            values, levels = state.hierarchy.read_batch(rowids, strides)
            return values, m, levels, rowids - rowids % state.hierarchy.steps[levels]
        # reads go through Column.read_batch (not raw fancy indexing) so
        # out-of-core paged columns gather through mapping *and* append tail
        return state.read_target()[0].read_batch(rowids), m, np.zeros(m, dtype=np.int64), rowids
