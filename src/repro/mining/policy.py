"""The speculative policy: a mined model driving background warm-ups.

A :class:`SpeculativePolicy` is the live end of the mining loop.  It binds
a trained :class:`repro.mining.model.GestureTransitionModel` into serving:

* every executed command updates a per-object context window and scores
  the previous prediction (the mined hit/miss counters surfaced through
  ``TelemetryRegistry`` and the sharded ``stats`` verb),
* the gesture prefetcher reports gesture *progress* (rowid, direction,
  stride) as it proposes — observation only, proposals are untouched,
* :meth:`speculation_plan` combines the predicted next gesture kind with
  the latest progress into a plan the service layer executes on the
  scheduler's background lane: pre-reading the rows the predicted gesture
  would touch (warming out-of-core columns' mapped pages) and staging likely-next
  sample levels in a policy-private store.

The staging store is deliberately *not* the kernel's sample hierarchy:
materializing a level into the hierarchy renumbers levels and changes
``served_level_counts``, and the correctness contract for every adaptive
side-system in this codebase is bit-identical ``GestureOutcome`` counters
with the feature on or off.  Speculation therefore only warms surfaces
outside the outcome accounting (page cache, this staging area); the
differential harness in ``tests/test_differential_gestures.py`` proves it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import MiningError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mining.model import GestureTransitionModel

#: Predicted kinds a plan can usefully warm for; predictions outside this
#: set (schema gestures, shows) produce no speculative work.
WARMABLE_KINDS = frozenset({"slide", "slide-path", "tap", "zoom-in", "zoom-out"})


@dataclass(frozen=True)
class SpeculationPlan:
    """One unit of speculative work: what to warm, and where the gesture is.

    ``rowid``/``direction``/``stride`` come from the prefetcher's progress
    reports (``rowid`` is -1 when the object has no progress yet);
    ``num_tuples`` bounds the object's rowid range (0 when unknown).
    """

    object_name: str
    predicted_kind: str
    rowid: int = -1
    direction: int = 0
    stride: int = 1
    num_tuples: int = 0


class SpeculativePolicy:
    """Thread-safe runtime state and accounting around a mined model.

    Parameters
    ----------
    model:
        The trained transition model (shared, read-only).
    warm_window:
        Upper bound on rows one speculative job pre-reads.
    max_staged_levels:
        LRU cap on staged sample levels kept per policy.
    """

    def __init__(
        self,
        model: "GestureTransitionModel",
        warm_window: int = 512,
        max_staged_levels: int = 8,
    ) -> None:
        if warm_window < 1:
            raise MiningError("speculation warm_window must be at least 1")
        if max_staged_levels < 1:
            raise MiningError("max_staged_levels must be at least 1")
        self.model = model
        self.warm_window = int(warm_window)
        self.max_staged_levels = int(max_staged_levels)
        self._lock = threading.Lock()
        self._contexts: dict[str, deque[str]] = {}
        self._predictions: dict[str, str] = {}
        self._progress: dict[str, tuple[int, int, int, int]] = {}
        self._staged: OrderedDict[tuple[str, int], np.ndarray] = OrderedDict()
        self._counters = {
            "mined_predictions": 0,
            "mined_hits": 0,
            "mined_misses": 0,
            "progress_reports": 0,
            "speculations_scheduled": 0,
            "speculations_completed": 0,
            "speculation_errors": 0,
            "rows_warmed": 0,
            "levels_staged": 0,
            "staged_level_hits": 0,
        }

    # ------------------------------------------------------------------ #
    # command observation (the mined hit/miss loop)
    # ------------------------------------------------------------------ #
    def observe_command(self, object_name: str, kind: str) -> None:
        """Score the standing prediction and roll the context forward."""
        with self._lock:
            standing = self._predictions.get(object_name)
            if standing is not None:
                if standing == kind:
                    self._counters["mined_hits"] += 1
                else:
                    self._counters["mined_misses"] += 1
            context = self._contexts.get(object_name)
            if context is None:
                context = deque(maxlen=self.model.order)
                self._contexts[object_name] = context
            context.append(kind)
            predicted = self.model.predict(object_name, list(context))
            if predicted is None:
                self._predictions.pop(object_name, None)
            else:
                self._predictions[object_name] = predicted
                self._counters["mined_predictions"] += 1

    def prediction(self, object_name: str) -> str | None:
        """The standing next-gesture prediction for one object."""
        with self._lock:
            return self._predictions.get(object_name)

    # ------------------------------------------------------------------ #
    # gesture progress (reported by the prefetcher, observation only)
    # ------------------------------------------------------------------ #
    def observe_progress(
        self,
        object_name: str,
        rowid: int,
        direction: int,
        stride: int,
        num_tuples: int,
    ) -> None:
        """Record where a gesture currently is, so plans aim their warming."""
        with self._lock:
            self._progress[object_name] = (
                int(rowid),
                int(direction),
                max(1, int(stride)),
                int(num_tuples),
            )
            self._counters["progress_reports"] += 1

    # ------------------------------------------------------------------ #
    # plans and the staging store
    # ------------------------------------------------------------------ #
    def speculation_plan(self, object_name: str) -> SpeculationPlan | None:
        """The next speculative job for one object, or ``None``."""
        with self._lock:
            predicted = self._predictions.get(object_name)
            if predicted is None or predicted not in WARMABLE_KINDS:
                return None
            rowid, direction, stride, num_tuples = self._progress.get(
                object_name, (-1, 0, 1, 0)
            )
            return SpeculationPlan(
                object_name=object_name,
                predicted_kind=predicted,
                rowid=rowid,
                direction=direction,
                stride=stride,
                num_tuples=num_tuples,
            )

    def stage_level(self, object_name: str, stride: int, values: np.ndarray) -> None:
        """Remember one speculatively materialized sample level (LRU-capped)."""
        key = (object_name, max(1, int(stride)))
        with self._lock:
            self._staged.pop(key, None)
            self._staged[key] = values
            self._counters["levels_staged"] += 1
            while len(self._staged) > self.max_staged_levels:
                self._staged.popitem(last=False)

    # ------------------------------------------------------------------ #
    # job accounting (called by the executing service layer)
    # ------------------------------------------------------------------ #
    def note_scheduled(self) -> None:
        with self._lock:
            self._counters["speculations_scheduled"] += 1

    def note_completed(self, rows_warmed: int) -> None:
        with self._lock:
            self._counters["speculations_completed"] += 1
            self._counters["rows_warmed"] += int(rows_warmed)

    def note_error(self) -> None:
        with self._lock:
            self._counters["speculation_errors"] += 1

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def stats_snapshot(self) -> dict[str, int]:
        """Point-in-time counters plus model shape, for stats/telemetry.

        Load-dependent observability — like the index and storage
        snapshots, never part of the counter-parity surface.
        """
        with self._lock:
            snapshot = dict(self._counters)
            snapshot["staged_levels"] = len(self._staged)
            snapshot["tracked_objects"] = len(self._contexts)
        snapshot["model_order"] = self.model.order
        snapshot["model_transitions"] = self.model.transitions_observed
        return snapshot

    @property
    def hit_rate(self) -> float:
        """Mined-prediction hit fraction so far (0.0 before any scoring)."""
        with self._lock:
            hits = self._counters["mined_hits"]
            misses = self._counters["mined_misses"]
        total = hits + misses
        return hits / total if total else 0.0
