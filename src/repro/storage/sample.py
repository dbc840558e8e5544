"""Sample hierarchies (Sciborg-style) for granularity-aware data access.

Query processing in dbTouch via slide gestures only ever touches a sample
of the underlying data: the object size and the gesture speed bound how
many touch locations can be registered, hence how many tuples can be
processed.  Reading those few tuples directly from the base data wastes
work at coarse granularities, so the paper proposes storing *hierarchies
of samples* and feeding each gesture from the level whose density best
matches the gesture's effective sampling rate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from repro.errors import SampleError
from repro.storage.column import Column


@dataclass(frozen=True)
class SampleLevel:
    """One level of a sample hierarchy.

    Attributes
    ----------
    level:
        0 is the base data; level ``i`` keeps every ``factor**i``-th tuple.
    step:
        The stride between consecutive base rowids present at this level.
    column:
        The materialized sample column.
    """

    level: int
    step: int
    column: Column

    @property
    def num_rows(self) -> int:
        """Number of tuples materialized at this level."""
        return len(self.column)

    def base_rowid(self, sample_rowid: int) -> int:
        """Map a rowid within this level back to a base-data rowid."""
        return sample_rowid * self.step

    def sample_rowid(self, base_rowid: int) -> int:
        """Map a base-data rowid to the nearest rowid within this level."""
        return min(self.num_rows - 1, base_rowid // self.step) if self.num_rows else 0


class SampleHierarchy:
    """A stack of progressively coarser strided samples of one column.

    Parameters
    ----------
    column:
        The base column (level 0).
    factor:
        The down-sampling factor between consecutive levels (default 4).
    min_rows:
        Stop creating coarser levels once a level would hold fewer rows.
    """

    def __init__(self, column: Column, factor: int = 4, min_rows: int = 64):
        if factor < 2:
            raise SampleError("sample factor must be at least 2")
        if min_rows < 1:
            raise SampleError("min_rows must be at least 1")
        self.base = column
        self.factor = factor
        self.min_rows = min_rows
        self._levels: list[SampleLevel] = [SampleLevel(0, 1, column)]
        self._build()
        #: each level's step, finest (the base's 1) first
        self.steps = np.array([lvl.step for lvl in self._levels], dtype=np.int64)

    def _build(self) -> None:
        step = self.factor
        level = 1
        while len(self.base) // step >= self.min_rows:
            sampled = self.base.take_every(step)
            self._levels.append(SampleLevel(level, step, sampled))
            step *= self.factor
            level += 1

    @classmethod
    def from_levels(
        cls,
        column: Column,
        levels: Iterable[SampleLevel],
        factor: int = 4,
        min_rows: int = 64,
    ) -> "SampleHierarchy":
        """Assemble a hierarchy from already-materialized sample levels.

        This is the warm cold-start path: a
        :class:`repro.persist.snapshot.StoreCatalog` snapshot stores every
        sample level on disk, so reopening a persisted table rebuilds its
        hierarchies by *mapping* the level columns instead of re-striding
        the base data.  ``levels`` need not include the base (it is always
        installed as level 0) and may arrive in any order; duplicate steps
        raise :class:`repro.errors.SampleError`.
        """
        if factor < 2:
            raise SampleError("sample factor must be at least 2")
        hierarchy = cls.__new__(cls)
        hierarchy.base = column
        hierarchy.factor = factor
        hierarchy.min_rows = min_rows
        combined = [SampleLevel(0, 1, column)]
        combined.extend(lvl for lvl in levels if lvl.step > 1)
        combined.sort(key=lambda lvl: lvl.step)
        steps = [lvl.step for lvl in combined]
        if len(set(steps)) != len(steps):
            raise SampleError(f"duplicate sample-level steps: {steps}")
        hierarchy._levels = [
            lvl if lvl.level == i else replace(lvl, level=i)
            for i, lvl in enumerate(combined)
        ]
        hierarchy.steps = np.array(steps, dtype=np.int64)
        return hierarchy

    def share(self) -> "SampleHierarchy":
        """A hierarchy over the same materialized levels, privately listed.

        Multi-session serving attaches one snapshot hierarchy to many
        sessions; ``share`` hands each session its own level list over the
        same (read-only by convention) sample columns — zero data copies,
        and no session holds another's list.
        """
        return SampleHierarchy.from_levels(
            self.base, self._levels[1:], factor=self.factor, min_rows=self.min_rows
        )

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def num_levels(self) -> int:
        """Total number of levels, including the base data."""
        return len(self._levels)

    @property
    def levels(self) -> list[SampleLevel]:
        """All levels, finest (base) first."""
        return list(self._levels)

    def level(self, index: int) -> SampleLevel:
        """Return the level at ``index`` (0 = base data)."""
        if not 0 <= index < self.num_levels:
            raise SampleError(
                f"level {index} out of range; hierarchy has {self.num_levels} levels"
            )
        return self._levels[index]

    @property
    def total_sample_bytes(self) -> int:
        """Extra storage consumed by the sample levels (excluding the base)."""
        return sum(lvl.column.size_bytes for lvl in self._levels[1:])

    # ------------------------------------------------------------------ #
    # level selection
    # ------------------------------------------------------------------ #
    def level_for_stride(self, requested_stride: int) -> SampleLevel:
        """Pick the coarsest level whose step still resolves ``requested_stride``.

        ``requested_stride`` is the distance (in base rowids) between two
        consecutive touches of the current gesture.  A gesture that only
        ever lands every 10 000 rows is served perfectly well by a sample
        whose step divides that stride, and reading the sample touches far
        fewer bytes than striding over the base array.
        """
        if requested_stride < 1:
            requested_stride = 1
        chosen = self._levels[0]
        for lvl in self._levels:
            if lvl.step <= requested_stride:
                chosen = lvl
            else:
                break
        return chosen

    def read_at(self, base_rowid: int, stride_hint: int = 1) -> tuple[object, SampleLevel]:
        """Read the value nearest ``base_rowid`` from the best-matching level.

        Returns the value and the level it was served from, so callers can
        account for how much auxiliary data was read.
        """
        if not 0 <= base_rowid < len(self.base):
            raise SampleError(
                f"base rowid {base_rowid} out of range for column of length {len(self.base)}"
            )
        lvl = self.level_for_stride(stride_hint)
        sample_rowid = lvl.sample_rowid(base_rowid)
        return lvl.column.value_at(sample_rowid), lvl

    def level_index_for_strides(self, strides: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`level_for_stride`: one level index per stride.

        ``steps`` is sorted (the base level has step 1), so the coarsest
        level whose step still resolves each stride is found with one
        ``searchsorted`` pass.
        """
        wanted = np.maximum(1, np.asarray(strides, dtype=np.int64))
        return np.maximum(0, np.searchsorted(self.steps, wanted, side="right") - 1)

    def read_batch(
        self, base_rowids: np.ndarray, stride_hints: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`read_at`: serve a whole rowid array in one pass.

        Each touch selects its own level from its stride hint; rowids are
        then gathered per level with fancy indexing, so a gesture of N
        touches costs one numpy gather per distinct level instead of N
        Python-level reads.  Returns ``(values, level_numbers)``.
        """
        rowids = np.asarray(base_rowids, dtype=np.int64)
        if rowids.size and (rowids.min() < 0 or rowids.max() >= len(self.base)):
            raise SampleError(
                f"base rowid out of range for column of length {len(self.base)}"
            )
        indices = self.level_index_for_strides(stride_hints)
        values = np.empty(rowids.size, dtype=self.base.values.dtype)
        level_numbers = np.empty(rowids.size, dtype=np.int64)
        for index in np.bincount(indices).nonzero()[0]:  # the levels in use
            lvl = self._levels[index]
            mask = indices == index
            sample_rowids = np.minimum(lvl.num_rows - 1, rowids[mask] // lvl.step)
            # read_batch (not raw fancy indexing) so out-of-core paged
            # columns serve the gather through mapping and append tail
            values[mask] = lvl.column.read_batch(sample_rowids)
            level_numbers[mask] = lvl.level
        return values, level_numbers

    def read_window(
        self, base_rowid: int, half_window: int, stride_hint: int = 1
    ) -> tuple[np.ndarray, SampleLevel]:
        """Read the window ``[base_rowid - half_window, base_rowid + half_window]``.

        The window is expressed in base rowids; the values are served from
        the best-matching sample level, so at coarse granularities the
        window may collapse to fewer materialized values.
        """
        lvl = self.level_for_stride(stride_hint)
        center = lvl.sample_rowid(base_rowid)
        half = max(0, half_window // lvl.step) if lvl.step > 1 else half_window
        start = max(0, center - half)
        stop = min(lvl.num_rows, center + half + 1)
        return lvl.column.slice(start, stop), lvl
