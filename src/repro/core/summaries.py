"""Interactive summaries: one aggregate value per touch over a small window.

Instead of returning the single data entry under the finger, dbTouch can
return a *summary* of the ``2k + 1`` entries surrounding the touched tuple
identifier: when position ``p`` maps to rowid ``id_p``, the system scans
``[id_p - k, id_p + k]`` and shows a single aggregate (average by default).
Summaries let each touch inspect more data and expose local patterns and
differences across areas of the same object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ExecutionError
from repro.engine.aggregate import AggregateKind, aggregate_window
from repro.storage.column import CACHE_LINE_VALUES, Column
from repro.storage.sample import SampleHierarchy


@dataclass(frozen=True)
class SummaryResult:
    """The outcome of one interactive-summary touch.

    Attributes
    ----------
    rowid:
        The touched tuple identifier (window centre).
    value:
        The aggregate over the window.
    window_start / window_stop:
        The base-rowid range actually aggregated (half-open).
    values_aggregated:
        How many stored values went into the aggregate.
    served_from_level:
        The sample-hierarchy level that supplied the values (0 = base data).
    """

    rowid: int
    value: float | None
    window_start: int
    window_stop: int
    values_aggregated: int
    served_from_level: int


class InteractiveSummarizer:
    """Compute per-touch summaries over a column.

    Parameters
    ----------
    column:
        The base column being explored.
    k:
        Half-window size: each touch aggregates ``[rowid - k, rowid + k]``.
        The paper's evaluation uses 10 entries per summary; the default k
        covers at least one cache line so a fetched line is fully used.
    aggregate:
        Aggregate kind; the paper's default is the average.
    hierarchy:
        Optional sample hierarchy; when provided and ``stride_hint`` is
        coarse, the window is served from a matching sample level instead
        of the base data.
    """

    def __init__(
        self,
        column: Column,
        k: int = CACHE_LINE_VALUES,
        aggregate: AggregateKind | str = AggregateKind.AVG,
        hierarchy: SampleHierarchy | None = None,
    ) -> None:
        if k < 0:
            raise ExecutionError("summary half-window k must be non-negative")
        if not column.is_numeric:
            raise ExecutionError(
                f"interactive summaries require a numeric column, got {column.dtype.name}"
            )
        self.column = column
        self.k = k
        self.aggregate = aggregate
        self.hierarchy = hierarchy
        self.touches = 0
        self.values_read = 0

    def summarize_at(self, rowid: int, stride_hint: int = 1) -> SummaryResult:
        """Summarize the window centred at ``rowid``.

        ``stride_hint`` is the gesture's current rowid stride; with a sample
        hierarchy attached it selects the level that serves the window.
        """
        if not 0 <= rowid < len(self.column):
            raise ExecutionError(
                f"rowid {rowid} out of range for column of length {len(self.column)}"
            )
        start = max(0, rowid - self.k)
        stop = min(len(self.column), rowid + self.k + 1)
        level = 0
        if self.hierarchy is not None and stride_hint > 1:
            window, sample_level = self.hierarchy.read_window(rowid, self.k, stride_hint)
            level = sample_level.level
        else:
            window = self.column.slice(start, stop)
        value = aggregate_window(self.aggregate, window) if len(window) else None
        self.touches += 1
        self.values_read += int(len(window))
        return SummaryResult(
            rowid=rowid,
            value=value,
            window_start=start,
            window_stop=stop,
            values_aggregated=int(len(window)),
            served_from_level=level,
        )

    # ------------------------------------------------------------------ #
    # batched summaries (the vectorized slide path)
    # ------------------------------------------------------------------ #
    def summarize_batch(
        self, rowids: np.ndarray, stride_hints: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Summarize a whole array of touched rowids in a few numpy passes.

        Semantically equivalent to calling :meth:`summarize_at` per rowid
        (same windows, same sample-level selection), but windows are
        gathered as one index matrix per sample level and aggregated with
        masked reductions, so the cost per touch is a handful of vector
        operations instead of a Python-level window scan.  Sum-like
        aggregates reduce with numpy's pairwise summation, so float results
        can differ from the sequential fold in the last bits.

        Returns ``(values, values_aggregated, served_from_levels)``.
        """
        centers = np.asarray(rowids, dtype=np.int64)
        strides = np.asarray(stride_hints, dtype=np.int64)
        if centers.size == 0:
            empty_f = np.empty(0, dtype=np.float64)
            empty_i = np.empty(0, dtype=np.int64)
            return empty_f, empty_i, empty_i.copy()
        if centers.min() < 0 or centers.max() >= len(self.column):
            raise ExecutionError(
                f"rowid out of range for column of length {len(self.column)}"
            )
        kind = (
            AggregateKind(self.aggregate.lower())
            if isinstance(self.aggregate, str)
            else self.aggregate
        )
        values = np.empty(centers.size, dtype=np.float64)
        counts = np.empty(centers.size, dtype=np.int64)
        levels = np.zeros(centers.size, dtype=np.int64)

        if self.hierarchy is None:
            base = self.column.values
            values[:], counts[:] = _aggregate_windows(base, centers, self.k, kind)
        else:
            # mirror summarize_at: strides of 1 read the base column, coarser
            # strides go through the hierarchy's best-matching level
            sampled = strides > 1
            if np.any(~sampled):
                sel = ~sampled
                values[sel], counts[sel] = _aggregate_windows(
                    self.column.values, centers[sel], self.k, kind
                )
            if np.any(sampled):
                level_indices = self.hierarchy.level_index_for_strides(strides)
                for index in np.bincount(level_indices[sampled]).nonzero()[0]:
                    lvl = self.hierarchy.level(int(index))
                    mask = sampled & (level_indices == index)
                    lvl_centers = np.minimum(lvl.num_rows - 1, centers[mask] // lvl.step)
                    half = self.k // lvl.step if lvl.step > 1 else self.k
                    values[mask], counts[mask] = _aggregate_windows(
                        lvl.column.values, lvl_centers, half, kind
                    )
                    levels[mask] = lvl.level

        self.touches += centers.size
        self.values_read += int(counts.sum())
        return values, counts, levels


#: Cap on the window-index matrix size (touches x window width) so batched
#: summaries with huge half-windows stay within a bounded memory footprint.
_WINDOW_MATRIX_BUDGET = 4_000_000


def _aggregate_windows(
    data: np.ndarray, centers: np.ndarray, half: int, kind: AggregateKind
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate the clamped windows ``[c - half, c + half]`` per center.

    Builds an index matrix of shape (centers, 2*half + 1), masks the
    positions that fall outside the array, and reduces each row with the
    requested aggregate.  Processes the centers in chunks so the matrix
    never exceeds :data:`_WINDOW_MATRIX_BUDGET` cells.
    """
    n = data.shape[0]
    width = 2 * half + 1
    values = np.empty(centers.size, dtype=np.float64)
    counts = np.empty(centers.size, dtype=np.int64)
    offsets = np.arange(-half, half + 1, dtype=np.int64)
    chunk = max(1, _WINDOW_MATRIX_BUDGET // width)
    for start in range(0, centers.size, chunk):
        part = centers[start : start + chunk]
        idx = part[:, None] + offsets[None, :]
        valid = (idx >= 0) & (idx < n)
        window = data[np.minimum(np.maximum(idx, 0), n - 1)].astype(np.float64, copy=False)
        cnt = valid.sum(axis=1)
        safe_cnt = np.maximum(1, cnt)
        if kind is AggregateKind.COUNT:
            val = cnt.astype(np.float64)
        elif kind is AggregateKind.SUM:
            val = np.sum(window, axis=1, where=valid, initial=0.0)
        elif kind is AggregateKind.AVG:
            val = np.sum(window, axis=1, where=valid, initial=0.0) / safe_cnt
        elif kind is AggregateKind.MIN:
            val = np.min(window, axis=1, where=valid, initial=np.inf)
        elif kind is AggregateKind.MAX:
            val = np.max(window, axis=1, where=valid, initial=-np.inf)
        elif kind is AggregateKind.STD:
            # two-pass: center each window on its own mean before squaring,
            # avoiding catastrophic cancellation on large-offset data
            total = np.sum(window, axis=1, where=valid, initial=0.0)
            mean = total / safe_cnt
            centered = window - mean[:, None]
            total_sq = np.sum(centered * centered, axis=1, where=valid, initial=0.0)
            val = np.sqrt(np.maximum(0.0, total_sq / safe_cnt))
        else:  # pragma: no cover - the enum is closed
            raise ExecutionError(f"unsupported summary aggregate {kind!r}")
        values[start : start + chunk] = val
        counts[start : start + chunk] = cnt
    return values, counts
