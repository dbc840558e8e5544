"""The dbTouch kernel: mapping gestures to query processing.

The kernel sits between the simulated touch OS and the storage engine
(Figure 3 in the paper).  The OS recognizes touches and gestures; the
kernel maps each touch to a tuple identifier, executes the query action
attached to the touched data object, and emits result values that appear
in place and fade away.  It also hosts the adaptive machinery: sample
hierarchies, the per-touch latency budget and incremental layout rotation.
Every touch reads its own row: there is no touched-range cache and no
prefetcher, because a read here is one gather, cheaper than the
bookkeeping that would avoid it.

Slide gestures have two execution strategies.  The per-touch loop
(`_handle_slide` → `_process_touch`) is the reference implementation and
handles every action; when ``KernelConfig.batch_execution`` is on (the
default), eligible slides — column scans, running aggregates, interactive
summaries and select-where plans — are executed by
:class:`repro.core.batch.BatchSlideExecutor`, which maps, deduplicates,
reads, filters and aggregates the whole touch stream as numpy arrays and
produces the same deterministic outcome counters at a fraction of the
per-touch interpreter cost (see :mod:`repro.core.batch` for the two
timing-dependent deviations: amortized per-touch latencies, and summary
windows adapting per gesture rather than per violating touch).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.actions import ActionKind, QueryAction
from repro.core.caching import HashTableCache
from repro.core.optimizer import AdaptiveOptimizer
from repro.core.result_stream import ResultColumns, ResultStream, ResultValue
from repro.core.summaries import InteractiveSummarizer
from repro.core.touch_mapping import MappedTouch, TouchMapper
from repro.engine.aggregate import RunningAggregate, make_aggregate
from repro.engine.filter import Predicate
from repro.engine.groupby import IncrementalGroupBy
from repro.engine.join import SymmetricHashJoin
from repro.errors import ExecutionError, QueryError
from repro.indexing.manager import IndexManager, RangeSelection
from repro.obs.trace import trace_span
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.incremental import IncrementalRotation
from repro.storage.layout import LayoutKind
from repro.storage.sample import SampleHierarchy
from repro.storage.table import Table
from repro.touchio.device import TouchDevice
from repro.touchio.events import TouchEvent, TouchPhase, TouchStream
from repro.touchio.recognizer import GestureRecognizer, GestureType, RecognizedGesture
from repro.touchio.views import View, make_column_view, make_table_view

#: Fraction of a table converted immediately when a rotate gesture triggers
#: an incremental layout change (and per zoom-in while it is in progress).
_ROTATION_SAMPLE_FRACTION = 0.05


@dataclass
class KernelConfig:
    """Tunable behaviour of the dbTouch kernel.

    Attributes
    ----------
    latency_budget_s:
        Maximum per-touch processing time the kernel aims for; the adaptive
        optimizer shrinks the summary window when the budget is violated.
    enable_samples:
        Serve coarse slides from the sample hierarchy (the ablation
        benchmarks switch it off).
    sample_factor:
        Down-sampling factor between consecutive sample-hierarchy levels.
    batch_execution:
        Execute eligible slide gestures as one vectorized batch
        (:class:`repro.core.batch.BatchSlideExecutor`) instead of the
        per-touch Python loop.  On by default; the per-touch loop remains
        the reference path and still serves joins, group-bys and
        attribute-dependent table scans.
    enable_indexing:
        Maintain the adaptive indexing tier
        (:class:`repro.indexing.manager.IndexManager`): bulk
        :meth:`DbTouchKernel.select_where` queries consult the touched
        column's value-sorted index — built by the first of them — instead
        of scanning the whole column.  Gestures never touch it, so
        ``GestureOutcome`` counters are bit-identical with indexing on or
        off.  On by default.  A shared manager is installed after
        construction, through the service's ``adopt_index_manager``
        (serving deployments: ``MultiSessionServer(shared_index=)``).
    """

    latency_budget_s: float = 0.05
    enable_samples: bool = True
    sample_factor: int = 4
    batch_execution: bool = True
    enable_indexing: bool = True


#: The outcome counters, named once — envelopes, session summaries, metric
#: folds and the wire codec iterate these tuples instead of spelling the
#: fields out.  ``DETERMINISTIC_COUNTERS`` depend only on the command
#: sequence (the parity surface); ``OUTCOME_COUNTERS`` adds the two clock
#: readings; ``LINK_COUNTERS`` are the envelope's link accounting, which only
#: a remote backend fills in (zero on the local path).
DETERMINISTIC_COUNTERS = ("entries_returned", "tuples_examined")
OUTCOME_COUNTERS = DETERMINISTIC_COUNTERS + ("duration_s", "max_touch_latency_s")
LINK_COUNTERS = ("remote_requests", "network_seconds")


#: What an outcome that touched nothing holds (shared, read-only).
_NO_ROWIDS = np.empty(0, dtype=np.int64)
_NO_LATENCIES = np.empty(0, dtype=np.float64)
_NO_ROWIDS.flags.writeable = _NO_LATENCIES.flags.writeable = False


@dataclass(eq=False)
class GestureOutcome:
    """Everything a gesture produced, for display and for measurement.

    ``rowids_touched`` is an ``int64`` array.  A batch slide hands over its
    emitted results as ``result_columns`` (the
    :class:`~repro.core.result_stream.ResultColumns` chunk it handed its
    result stream, which keeps only the newest ``max_visible``);
    :attr:`results` is their :class:`ResultValue` view, built on first
    read — the per-touch paths fill it as they emit.  A result's rowid is
    the row its value was read from: at stride > 1 the sample row that
    served it, which ``rowids_touched`` does not report.
    ``per_touch_latencies_s`` is a ``float64`` array: measured per touch on
    the per-touch paths, the one amortized latency per touch on the batch
    path.
    Outcomes compare by identity (arrays have no single truth value);
    compare their fields.
    """

    gesture_type: GestureType
    view_name: str
    object_name: str
    entries_returned: int = 0
    tuples_examined: int = 0
    rowids_touched: np.ndarray = field(default_factory=lambda: _NO_ROWIDS)
    result_columns: ResultColumns | None = None
    duration_s: float = 0.0
    per_touch_latencies_s: np.ndarray = field(default_factory=lambda: _NO_LATENCIES)
    served_level_counts: dict[int, int] = field(default_factory=dict)
    final_aggregate: float | None = None
    join_matches: int = 0
    layout_kind: LayoutKind | None = None
    zoom_scale: float = 1.0
    revealed_tuple: dict[str, object] | None = None
    _results: list[ResultValue] | None = field(default=None, init=False, repr=False)

    #: Always 0: no touch is served from a cache or a prefetch any more.
    #: The ledger (``ledger/harness.py``) is their last reader; they go
    #: together with its ``core.cache_hit_frac`` / ``core.prefetch_hit_frac``.
    cache_hits = cache_misses = prefetch_hits = 0

    @property
    def results(self) -> list[ResultValue]:
        """The displayed results, in emission order."""
        if self._results is None:
            columns = self.result_columns
            self._results = [] if columns is None else list(columns)
        return self._results

    @property
    def max_touch_latency_s(self) -> float:
        """The slowest single touch in this gesture."""
        latencies = self.per_touch_latencies_s
        return float(latencies.max()) if latencies.size else 0.0

    @property
    def mean_touch_latency_s(self) -> float:
        """Mean per-touch processing latency."""
        latencies = self.per_touch_latencies_s
        return float(latencies.mean()) if latencies.size else 0.0

    def counters(self) -> dict[str, float]:
        """The outcome's metric counters, keyed by outcome-envelope field.

        This is the backend-agnostic measurement surface: both the service
        envelopes (:class:`repro.service.OutcomeEnvelope`) and the session's
        incremental :class:`repro.core.session.SessionSummary` consume it,
        so local and remote backends report identical fields.
        """
        return {name: getattr(self, name) for name in OUTCOME_COUNTERS}


@dataclass
class _ObjectState:
    """Kernel-side state attached to one visualized data object."""

    view: View
    object_name: str
    column: Column | None
    table: Table | None
    column_name: str | None = None
    action: QueryAction = field(default_factory=QueryAction)
    hierarchy: SampleHierarchy | None = None
    summarizer: InteractiveSummarizer | None = None
    aggregate: RunningAggregate | None = None
    group_by: IncrementalGroupBy | None = None
    results: ResultStream | None = None
    last_rowid: int | None = None
    last_timestamp: float | None = None
    current_stride: int = 1
    layout_kind: LayoutKind = LayoutKind.COLUMN_STORE
    rotation: IncrementalRotation | None = None

    def read_target(
        self, attribute_index: int | None = None
    ) -> tuple[Column, str | None] | None:
        """The ``(column, column-name)`` a touch reads under this action.

        The one answer every reader shares — the per-touch loop, the batch
        executor and bulk selection.  A column object
        reads itself; a select-where plan reads its where attribute wherever
        the finger is; any other table action reads the attribute under the
        finger — so with no ``attribute_index`` it has no single column, and
        the answer is ``None`` (nothing to index, nothing to select over).
        """
        if self.table is None:
            return self.column, self.column_name
        action = self.action
        if action.kind is ActionKind.SELECT_WHERE and action.where_attribute is not None:
            return self.table.column(action.where_attribute), action.where_attribute
        if attribute_index is None:
            return None
        column = self.table.column_at(attribute_index)
        return column, column.name


class DbTouchKernel:
    """Maps recognized gestures onto touch-driven query processing."""

    def __init__(
        self,
        catalog: Catalog,
        device: TouchDevice,
        config: KernelConfig | None = None,
    ) -> None:
        self.catalog = catalog
        self.device = device
        self.config = config if config is not None else KernelConfig()
        self.recognizer = GestureRecognizer()
        self.mapper = TouchMapper()
        self.hash_table_cache = HashTableCache()
        self.optimizer = AdaptiveOptimizer(
            latency_budget_s=self.config.latency_budget_s,
        )
        self.index_manager: IndexManager | None = (
            IndexManager() if self.config.enable_indexing else None
        )
        self._states: dict[str, _ObjectState] = {}
        self._joins: dict[frozenset[str], SymmetricHashJoin] = {}
        # deferred import: repro.core.batch imports GestureOutcome from here
        from repro.core.batch import BatchSlideExecutor

        self._batch_executor = BatchSlideExecutor(self)

    # ------------------------------------------------------------------ #
    # placing data objects on the screen
    # ------------------------------------------------------------------ #
    def show_column(
        self,
        object_name: str,
        column_name: str | None = None,
        view_name: str | None = None,
        height_cm: float = 10.0,
        width_cm: float = 2.0,
        x: float = 0.0,
        y: float = 0.0,
    ) -> View:
        """Place a column-shaped data object on the device screen."""
        column = self.catalog.resolve_column(object_name, column_name)
        name = view_name if view_name is not None else f"{object_name}-view"
        view = make_column_view(
            name=name,
            object_name=object_name,
            num_tuples=len(column),
            height_cm=height_cm,
            width_cm=width_cm,
            x=x,
            y=y,
            dtype_names=(column.dtype.name,),
            size_bytes=column.size_bytes,
        )
        self.device.add_view(view)
        self._forget_view(name)
        hierarchy = None
        if self.config.enable_samples and column.is_numeric:
            hierarchy = self.catalog.hierarchy_for(
                object_name, column_name, factor=self.config.sample_factor
            )
        self._states[name] = _ObjectState(
            view=view,
            object_name=object_name,
            column=column,
            table=None,
            column_name=column_name,
            hierarchy=hierarchy,
            results=ResultStream(),
        )
        return view

    def show_table(
        self,
        table_name: str,
        view_name: str | None = None,
        height_cm: float = 10.0,
        width_cm: float = 8.0,
        x: float = 0.0,
        y: float = 0.0,
    ) -> View:
        """Place a fat-rectangle table object on the device screen."""
        table = self.catalog.table(table_name)
        name = view_name if view_name is not None else f"{table_name}-view"
        view = make_table_view(
            name=name,
            object_name=table_name,
            num_tuples=len(table),
            num_attributes=table.num_columns,
            height_cm=height_cm,
            width_cm=width_cm,
            x=x,
            y=y,
            dtype_names=tuple(c.dtype.name for c in table.columns),
            size_bytes=table.size_bytes,
        )
        self.device.add_view(view)
        self._forget_view(name)
        self._states[name] = _ObjectState(
            view=view,
            object_name=table_name,
            column=None,
            table=table,
            results=ResultStream(),
        )
        return view

    def state_of(self, view_name: str) -> _ObjectState:
        """Return the kernel state attached to a view (primarily for tests)."""
        if view_name not in self._states:
            raise ExecutionError(f"no data object is shown under view {view_name!r}")
        return self._states[view_name]

    # ------------------------------------------------------------------ #
    # object-data mutation hooks
    # ------------------------------------------------------------------ #
    def refresh_object(self, object_name: str) -> None:
        """Re-bind shown views of ``object_name`` after its data changed.

        Used by the data-reload path: the catalog already holds the new
        table/column under the same name; this re-resolves every shown
        state's storage references and rebuilds sample hierarchies and
        operators, so no touch reads the replaced data.
        """
        self._rebind_object(object_name, grew=False)

    def extend_object(self, object_name: str) -> None:
        """Re-bind shown views after rows were *appended* to ``object_name``.

        The growth twin of :meth:`refresh_object`: appends never mutate
        existing rows, so indexes stay valid over their prefix window
        (:meth:`IndexManager.extend_valid_prefix`) instead of being
        discarded.  Every other effect — hierarchies, joins, operators,
        view properties — is identical to a reload, which is what keeps
        gesture outcomes bit-identical between preloaded and incrementally
        appended data.
        """
        self._rebind_object(object_name, grew=True)

    def _rebind_object(self, object_name: str, grew: bool) -> None:
        # the catalog caches hierarchies per (object, column); they sample
        # the pre-change arrays and must be rebuilt from the new data
        self.catalog.drop_hierarchies_for(object_name)
        # indexes order the pre-change values; serving rowids computed from
        # vanished data would be silent corruption.  Growth is the one safe
        # case: old rows kept their positions, so an index survives as a
        # prefix window over the new length.
        if self.index_manager is not None:
            if grew:
                self.index_manager.extend_valid_prefix(object_name)
            else:
                self.index_manager.invalidate(object_name)
        for view_name, state in self._states.items():
            if state.object_name != object_name:
                continue
            # joins over the old data index values that no longer exist:
            # drop them (and any cached hash tables) without snapshotting,
            # so set_action below rebuilds the join from scratch
            for key in [k for k in self._joins if view_name in k]:
                del self._joins[key]
            self.hash_table_cache.invalidate_participant(view_name)
            properties = state.view.properties
            if state.table is not None:
                state.table = self.catalog.table(object_name)
                # an in-progress incremental rotation was converting the
                # discarded table; drop it, and keep layout reporting
                # paired with the view's orientation (vertical <->
                # COLUMN_STORE everywhere in the kernel)
                state.rotation = None
                state.layout_kind = (
                    LayoutKind.ROW_STORE
                    if properties is not None and properties.orientation == "horizontal"
                    else LayoutKind.COLUMN_STORE
                )
                if properties is not None:
                    properties.num_tuples = len(state.table)
                    properties.num_attributes = state.table.num_columns
                    properties.dtype_names = tuple(
                        c.dtype.name for c in state.table.columns
                    )
                    properties.size_bytes = state.table.size_bytes
            else:
                state.column = self.catalog.resolve_column(
                    object_name, state.column_name
                )
                state.hierarchy = None
                if self.config.enable_samples and state.column.is_numeric:
                    state.hierarchy = self.catalog.hierarchy_for(
                        object_name,
                        state.column_name,
                        factor=self.config.sample_factor,
                    )
                # the touch->rowid mapping works off the view metadata; a
                # reload with a different shape must re-scale it
                if properties is not None:
                    properties.num_tuples = len(state.column)
                    properties.dtype_names = (state.column.dtype.name,)
                    properties.size_bytes = state.column.size_bytes
            # rebuild the action's operators against the new data
            self.set_action(view_name, state.action)

    # ------------------------------------------------------------------ #
    # configuring actions
    # ------------------------------------------------------------------ #
    def set_action(self, view_name: str, action: QueryAction) -> None:
        """Attach a query action to the data object shown in ``view_name``.

        Replacing a JOIN action tears the view's symmetric join down and
        snapshots its hash tables into the :class:`HashTableCache`, so a
        later re-attachment of the join resumes with the tables already
        built (the paper's hash-table reuse across sample copies).  A join
        is a pairwise agreement: tearing it down from either side ends it
        for the partner view too — the partner's slides stop producing
        join matches until one side re-attaches a JOIN action, which
        restores the cached tables.
        """
        state = self.state_of(view_name)
        if state.action.kind is ActionKind.JOIN:
            self._teardown_join(view_name)
        state.action = action
        state.aggregate = None
        state.summarizer = None
        state.group_by = None
        if action.kind is ActionKind.AGGREGATE:
            state.aggregate = make_aggregate(action.aggregate)
        elif action.kind is ActionKind.SUMMARY:
            if state.column is None:
                raise QueryError("interactive summaries require a column object")
            state.summarizer = InteractiveSummarizer(
                state.column,
                k=action.summary_k,
                aggregate=action.aggregate,
                hierarchy=state.hierarchy,
            )
        elif action.kind is ActionKind.GROUP_BY:
            if state.table is None:
                raise QueryError("group-by actions require a table object")
            state.group_by = IncrementalGroupBy(action.aggregate)
        elif action.kind is ActionKind.SELECT_WHERE:
            if state.table is None:
                raise QueryError("select-where plans require a table object")
            missing = [
                name
                for name in (action.where_attribute, *action.select_attributes)
                if name not in state.table
            ]
            if missing:
                raise QueryError(
                    f"table {state.object_name!r} has no attribute(s) {missing}"
                )
        elif action.kind is ActionKind.JOIN:
            partner_view = self._view_for_object(action.join_partner)
            key = frozenset({view_name, partner_view})
            if key not in self._joins:
                # the lexicographically smaller view plays the left input
                # (see _process_touch), so cache lookups use sorted order
                left_name, right_name = sorted((view_name, partner_view))
                cached = self.hash_table_cache.get(left_name, right_name)
                join = SymmetricHashJoin()
                if cached is not None:
                    left, right = cached
                    join._left.update({k: list(v) for k, v in left.items()})
                    join._right.update({k: list(v) for k, v in right.items()})
                self._joins[key] = join

    def _teardown_join(self, view_name: str) -> None:
        """Detach ``view_name``'s join, caching its hash tables for reuse."""
        for key in [k for k in self._joins if view_name in k]:
            join = self._joins.pop(key)
            names = sorted(key)
            if len(names) == 2 and (join.left_cardinality or join.right_cardinality):
                self.hash_table_cache.put(names[0], names[1], join.hash_table_snapshot())

    def _forget_view(self, view_name: str) -> None:
        """Drop the view and join state a re-shown view name replaces.

        The replaced :class:`View` leaves the screen, so the device holds
        one view per name.  Cached hash-table snapshots are keyed by view
        names; when a view name is reused for a different data object,
        both the live joins and the snapshots built from the previously
        shown data would otherwise leak into the next join attached under
        that name.
        """
        if view_name not in self._states:
            return
        self._states[view_name].view.remove_from_master()
        for key in [k for k in self._joins if view_name in k]:
            del self._joins[key]
        self.hash_table_cache.invalidate_participant(view_name)

    def _view_for_object(self, object_name: str | None) -> str:
        for view_name, state in self._states.items():
            if state.object_name == object_name:
                return view_name
        raise QueryError(f"object {object_name!r} is not shown on the screen")

    # ------------------------------------------------------------------ #
    # gesture dispatch
    # ------------------------------------------------------------------ #
    def handle_stream(self, stream: TouchStream) -> GestureOutcome:
        """Recognize the gesture in ``stream`` and execute it."""
        gesture = self.recognizer.recognize(stream)
        return self.handle_gesture(gesture)

    def handle_gesture(self, gesture: RecognizedGesture) -> GestureOutcome:
        """Execute an already recognized gesture.

        The whole dispatch runs under an ambient ``kernel_exec`` span (a
        no-op unless a sampled trace is active on this thread), so the
        deeper ``chunk_fault``/``tail_scan``
        spans attach under one kernel step per gesture.  Tracing measures
        wall time only — outcome counters are untouched.
        """
        state = self.state_of(gesture.view_name)
        with trace_span(
            "kernel_exec",
            gesture=gesture.gesture_type.value,
            view=gesture.view_name,
            object=state.object_name,
        ):
            return self._dispatch_gesture(state, gesture)

    def _dispatch_gesture(
        self, state: "_ObjectState", gesture: RecognizedGesture
    ) -> GestureOutcome:
        if gesture.gesture_type is GestureType.TAP:
            return self._handle_tap(state, gesture)
        if gesture.gesture_type is GestureType.SLIDE:
            return self._handle_slide(state, gesture)
        if gesture.gesture_type in (GestureType.ZOOM_IN, GestureType.ZOOM_OUT):
            return self._handle_zoom(state, gesture)
        if gesture.gesture_type is GestureType.ROTATE:
            return self._handle_rotate(state, gesture)
        if gesture.gesture_type is GestureType.PAN:
            return GestureOutcome(
                gesture_type=GestureType.PAN,
                view_name=gesture.view_name,
                object_name=state.object_name,
                duration_s=gesture.duration,
            )
        raise ExecutionError(f"unsupported gesture type {gesture.gesture_type}")

    # ------------------------------------------------------------------ #
    # tap: reveal one value or one tuple
    # ------------------------------------------------------------------ #
    def _handle_tap(self, state: _ObjectState, gesture: RecognizedGesture) -> GestureOutcome:
        stream = gesture.stream
        x, y = float(stream.xs[-1, 0]), float(stream.ys[-1, 0])
        mapped = self.mapper.map_touch(state.view, x, y)
        outcome = GestureOutcome(
            gesture_type=GestureType.TAP,
            view_name=gesture.view_name,
            object_name=state.object_name,
            rowids_touched=np.array([mapped.rowid], dtype=np.int64),
            duration_s=gesture.duration,
        )
        if state.table is not None:
            revealed = state.table.tuple_at(mapped.rowid)
            outcome.revealed_tuple = revealed
            value: object = revealed
            outcome.tuples_examined += state.table.num_columns
        else:
            value = state.column.value_at(mapped.rowid)
            outcome.tuples_examined += 1
        outcome.entries_returned = 1
        outcome._results = [
            state.results.emit(value, mapped.rowid, mapped.fraction, float(stream.timestamps[-1]))
        ]
        return outcome

    # ------------------------------------------------------------------ #
    # slide: the main query-processing gesture
    # ------------------------------------------------------------------ #
    def _handle_slide(self, state: _ObjectState, gesture: RecognizedGesture) -> GestureOutcome:
        join = self._join_for(gesture.view_name)
        if self.config.batch_execution and self._batch_executor.supports(state, join):
            return self._batch_executor.execute(state, gesture)
        # joins, group-bys and attribute-dependent table scans (and the
        # differential oracle, with batch_execution off): the per-touch loop
        outcome = GestureOutcome(
            gesture_type=GestureType.SLIDE,
            view_name=gesture.view_name,
            object_name=state.object_name,
            duration_s=gesture.duration,
        )
        touched, latencies = [], []
        for event in gesture.events:
            if event.phase is TouchPhase.ENDED or event.phase is TouchPhase.CANCELLED:
                continue
            started = time.perf_counter()
            mapped = self.mapper.map_touch(state.view, event.primary.x, event.primary.y)
            stride = self._update_stride(state, mapped.rowid)
            processed = self._process_touch(state, mapped, event, stride, outcome, join)
            elapsed = time.perf_counter() - started
            if processed:
                touched.append(mapped.rowid)
                latencies.append(elapsed)
                self.optimizer.observe_touch(elapsed)
        outcome.rowids_touched = np.array(touched, dtype=np.int64)
        outcome.per_touch_latencies_s = np.array(latencies, dtype=np.float64)
        if state.aggregate is not None:
            outcome.final_aggregate = state.aggregate.current()
        if join is not None:
            outcome.join_matches = join.num_matches
        return outcome

    # ------------------------------------------------------------------ #
    # adaptive indexing: bulk consultation
    # ------------------------------------------------------------------ #
    def select_where(
        self, view_name: str, predicate: Predicate | None = None
    ) -> RangeSelection:
        """Bulk range selection over the object shown in ``view_name``.

        Where a slide evaluates its predicate touch by touch, this answers
        the whole-object question — "every row where the predicate holds"
        — in one call, consulting the adaptive indexing tier when it is
        enabled (a full scan otherwise, and always for non-range
        predicates).  The returned rowids are bit-identical to the full
        scan's in every strategy.  A paged column scans only the chunks its
        zonemap keeps; where the zonemap cannot prune (a column not
        clustered on the key offers more than ``SCAN_MAX_CHUNKS`` candidate
        chunks), and always on an in-memory column, it answers instead from
        the column's value-sorted runs: run 0, sorted by the first such
        selection, and one run per merged tail (``uint64`` ``(image, rowid)``
        keys whatever the dtype, 8 bytes a row held, 12 at the build's
        peak).  A later selection binary-searches each run and sorts only
        its hits, so its cost follows the result, not the column.

        For a table shown with a SELECT_WHERE action the predicate
        restricts the action's where-attribute and the action's selected
        attributes are projected into ``selected``; for a column object
        the matching values are returned in ``values`` — decoded from the
        index's keys where they keep the whole value, and gathered from the
        column only when the index did not return them.  ``predicate``
        defaults to the one attached to the view's action.
        """
        state = self.state_of(view_name)
        action = state.action
        if predicate is None:
            predicate = action.predicate
        if predicate is None:
            raise QueryError(
                "select_where needs a predicate, either passed explicitly or "
                "attached to the view's action"
            )
        target = state.read_target()
        if target is None:
            raise QueryError(
                "bulk select_where over a table requires a SELECT_WHERE "
                "action naming the where attribute"
            )
        column, column_name = target
        select_names: list[str] = []
        if state.table is not None:
            select_names = list(dict.fromkeys(action.select_attributes))
        started = time.perf_counter()
        selection: RangeSelection | None = None
        if self.index_manager is not None:
            selection = self.index_manager.select_rowids(
                state.object_name, column_name, column, predicate
            )
        if selection is None:
            mask = predicate.mask(column.values)
            selection = RangeSelection(
                object_name=state.object_name,
                column_name=column_name,
                predicate=predicate,
                rowids=np.nonzero(mask)[0].astype(np.int64),
                strategy="scan",
                rows_scanned=len(column),
            )
        if state.table is not None:
            selection.values = None
            if select_names:
                selection.selected = {
                    name: state.table.column(name).read_batch(selection.rowids)
                    for name in select_names
                }
        elif selection.values is None:  # a scan, or runs whose keys lose values
            selection.values = column.read_batch(selection.rowids)
        selection.duration_s = time.perf_counter() - started
        return selection

    def _join_for(self, view_name: str) -> SymmetricHashJoin | None:
        for key, join in self._joins.items():
            if view_name in key:
                return join
        return None

    def _update_stride(self, state: _ObjectState, rowid: int) -> int:
        """The slide stride-detection rule of the per-touch loop (the batch
        paths derive the same sequence in ``dedupe_slide_batch``)."""
        if state.last_rowid is not None:
            stride = abs(rowid - state.last_rowid)
            if stride > 0:
                state.current_stride = stride
        return max(1, state.current_stride)

    def _process_touch(
        self,
        state: _ObjectState,
        mapped: MappedTouch,
        event: TouchEvent,
        stride: int,
        outcome: GestureOutcome,
        join: SymmetricHashJoin | None,
    ) -> bool:
        """Execute the object's action for one touch.  Returns True if the
        touch produced new work (i.e. it was not a duplicate of the previous
        touch position)."""
        if state.last_rowid == mapped.rowid:
            # a paused finger keeps reporting the same position; no new data
            state.last_timestamp = event.timestamp
            return False
        state.last_rowid = mapped.rowid
        state.last_timestamp = event.timestamp

        action = state.action
        value, tuples_read, level, read_rowid = self._read_value(state, mapped, stride)
        outcome.tuples_examined += tuples_read
        outcome.served_level_counts[level] = outcome.served_level_counts.get(level, 0) + 1

        if action.predicate is not None and np.isscalar(value):
            if not action.predicate.matches(value):
                return True

        display_value: object | None = value
        if action.kind is ActionKind.SELECT_WHERE:
            # the predicate already passed on the where-attribute value; fetch
            # the selected attributes of the qualifying tuple
            selected = {
                name: state.table.value_at(mapped.rowid, name)
                for name in action.select_attributes
            }
            outcome.tuples_examined += len(selected)
            display_value = selected
        if action.kind is ActionKind.AGGREGATE and state.aggregate is not None:
            display_value = state.aggregate.on_touch(mapped.rowid, value)
        elif action.kind is ActionKind.GROUP_BY and state.group_by is not None:
            if state.table is None:
                raise QueryError("group-by requires a table object")
            row = state.table.tuple_at(mapped.rowid)
            key = row[action.group_key_attribute]
            measure = row[action.measure_attribute]
            display_value = state.group_by.on_touch(mapped.rowid, (key, measure))
            outcome.tuples_examined += 1
        if join is not None:
            partner = self._partner_view(state.view.name)
            # deterministic side assignment: the lexicographically smaller view
            # name plays the left input of the symmetric join
            if partner is None or state.view.name < partner:
                matches = join.on_left(mapped.rowid, self._join_key(value))
            else:
                matches = join.on_right(mapped.rowid, self._join_key(value))
            display_value = f"{self._join_key(value)} ({len(matches)} matches)"

        if display_value is not None:
            result = state.results.emit(
                display_value, read_rowid, mapped.fraction, event.timestamp
            )
            outcome.results.append(result)
            outcome.entries_returned += 1
        return True

    @staticmethod
    def _join_key(value: object) -> object:
        if isinstance(value, np.generic):
            return value.item()
        return value

    def _partner_view(self, view_name: str) -> str | None:
        for key in self._joins:
            if view_name in key:
                others = [v for v in key if v != view_name]
                return others[0] if others else None
        return None

    def _effective_summary_k(self, state: _ObjectState) -> int:
        """The summary half-window after the optimizer's latency allowance.

        The adaptive optimizer may shrink the summary window while the
        latency budget is being violated; the user's requested k is scaled
        by the optimizer's current allowance.
        """
        allowance = self.optimizer.current_summary_k / max(1, self.optimizer.base_summary_k)
        return max(1, int(round(state.action.summary_k * allowance)))

    def _read_value(
        self,
        state: _ObjectState,
        mapped: MappedTouch,
        stride: int,
    ) -> tuple[object, int, int, int]:
        """Read the data a touch points at, via samples or base data.

        Returns (value, tuples_read, sample_level_served_from, rowid_read):
        a sample level of step ``s`` serves rowid ``r`` from row
        ``r - r % s``; a summary's rowid is the touched one, the centre of
        its window.
        """
        action = state.action
        level, tuples_read, rowid = 0, 1, mapped.rowid
        if action.kind is ActionKind.SUMMARY and state.summarizer is not None:
            state.summarizer.k = self._effective_summary_k(state)
            summary = state.summarizer.summarize_at(mapped.rowid, stride_hint=stride)
            value: object = summary.value
            tuples_read = summary.values_aggregated
            level = summary.served_from_level
        elif state.hierarchy is not None and self.config.enable_samples and stride > 1:
            # only column objects carry a sample hierarchy
            value, sample_level = state.hierarchy.read_at(mapped.rowid, stride)
            level = sample_level.level
            rowid -= rowid % sample_level.step
        else:
            value = state.read_target(mapped.attribute_index)[0].value_at(mapped.rowid)

        return value, tuples_read, level, rowid

    # ------------------------------------------------------------------ #
    # zoom: change the object size, hence the touch granularity
    # ------------------------------------------------------------------ #
    def _handle_zoom(self, state: _ObjectState, gesture: RecognizedGesture) -> GestureOutcome:
        scale = gesture.scale if gesture.scale > 0 else 1.0
        # zoomed objects may extend beyond the visible screen (the OS view
        # scrolls); the paper's Figure 4(b) grows a 10 cm object up to 25 cm
        state.view.resize(scale)
        # a rotated table mid-conversion retrieves more data on zoom-in
        if state.rotation is not None and scale > 1.0 and not state.rotation.progress.complete:
            converted = state.rotation.progress.fraction_converted
            state.rotation.convert_rows_for_sample(
                min(1.0, converted + _ROTATION_SAMPLE_FRACTION)
            )
        return GestureOutcome(
            gesture_type=gesture.gesture_type,
            view_name=gesture.view_name,
            object_name=state.object_name,
            duration_s=gesture.duration,
            zoom_scale=scale,
        )

    # ------------------------------------------------------------------ #
    # rotate: switch physical design
    # ------------------------------------------------------------------ #
    def _handle_rotate(self, state: _ObjectState, gesture: RecognizedGesture) -> GestureOutcome:
        state.view.rotate()
        new_kind = state.layout_kind
        if state.table is not None:
            source = state.layout_kind
            new_kind = (
                LayoutKind.ROW_STORE
                if source is LayoutKind.COLUMN_STORE
                else LayoutKind.COLUMN_STORE
            )
            state.rotation = IncrementalRotation(state.table, source_kind=source)
            state.rotation.convert_rows_for_sample(_ROTATION_SAMPLE_FRACTION)
            state.layout_kind = new_kind
        return GestureOutcome(
            gesture_type=GestureType.ROTATE,
            view_name=gesture.view_name,
            object_name=state.object_name,
            duration_s=gesture.duration,
            layout_kind=new_kind,
        )
