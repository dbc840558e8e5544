"""Synthetic data generators with planted, discoverable patterns.

The dbTouch demo loads "alternative data sets with a varying set of
properties and patterns" and asks the audience to discover them by
gesturing.  These generators produce exactly that: columns and tables with
*known*, parameterized patterns (outlier bursts, trends, level shifts,
seasonality, clusters, correlated pairs) so the exploration-contest harness
can check whether an explorer actually found them.

This module also generates *serving traffic*: :func:`make_serving_workload`
builds a deterministic multi-user workload — per-session traces of mixed
slide / zoom / rotate / select-where gesture commands with per-command
think-time — over one shared dataset, for driving a
:class:`repro.service.MultiSessionServer` in either serving mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.core.actions import (
    aggregate_action,
    scan_action,
    select_where_action,
    summary_action,
)
from repro.core.commands import (
    ChooseAction,
    GestureScript,
    Rotate,
    ShowColumn,
    ShowTable,
    Slide,
    Tap,
    TimedCommand,
    ZoomIn,
    ZoomOut,
)
from repro.engine.filter import Comparison, Predicate
from repro.errors import WorkloadError
from repro.storage.column import Column
from repro.storage.table import Table


class PatternKind(Enum):
    """The kinds of planted patterns an explorer can discover."""

    OUTLIER_BURST = "outlier-burst"
    LEVEL_SHIFT = "level-shift"
    TREND = "trend"
    SEASONALITY = "seasonality"
    CLUSTER = "cluster"
    CORRELATION = "correlation"


@dataclass(frozen=True)
class PlantedPattern:
    """Ground truth about one planted pattern.

    Attributes
    ----------
    kind:
        Pattern kind.
    column:
        Name of the column that carries the pattern.
    start_fraction / end_fraction:
        Where the pattern lives, as fractions of the column length (a
        pattern spanning the whole column uses 0.0 and 1.0).
    magnitude:
        How strong the pattern is, in units of the base noise scale.
    """

    kind: PatternKind
    column: str
    start_fraction: float
    end_fraction: float
    magnitude: float


@dataclass
class GeneratedDataset:
    """A generated table together with the ground truth of planted patterns."""

    table: Table
    patterns: list[PlantedPattern] = field(default_factory=list)

    def patterns_in(self, column: str) -> list[PlantedPattern]:
        """The planted patterns carried by ``column``."""
        return [p for p in self.patterns if p.column == column]


def _validate(n: int, base_scale: float) -> None:
    if n <= 0:
        raise WorkloadError("num_rows must be positive")
    if base_scale <= 0:
        raise WorkloadError("base_scale must be positive")


def noisy_baseline(
    n: int, base_level: float, base_scale: float, rng: np.random.Generator
) -> np.ndarray:
    """Gaussian noise around a constant level — the canvas patterns sit on."""
    return rng.normal(base_level, base_scale, size=n)


def plant_outlier_burst(
    values: np.ndarray,
    start_fraction: float,
    width_fraction: float,
    magnitude: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, tuple[float, float]]:
    """Add a burst of extreme values inside a narrow region."""
    n = len(values)
    start = int(start_fraction * n)
    width = max(1, int(width_fraction * n))
    stop = min(n, start + width)
    out = values.copy()
    out[start:stop] += magnitude * np.abs(rng.normal(1.0, 0.25, size=stop - start)) * np.std(values)
    return out, (start / n, stop / n)


def plant_level_shift(
    values: np.ndarray, shift_fraction: float, magnitude: float
) -> tuple[np.ndarray, tuple[float, float]]:
    """Shift the mean of everything after ``shift_fraction``."""
    n = len(values)
    start = int(shift_fraction * n)
    out = values.copy()
    out[start:] += magnitude * np.std(values)
    return out, (start / n, 1.0)


def plant_trend(values: np.ndarray, magnitude: float) -> tuple[np.ndarray, tuple[float, float]]:
    """Add a linear trend over the whole column."""
    n = len(values)
    ramp = np.linspace(0.0, magnitude * np.std(values), n)
    return values + ramp, (0.0, 1.0)


def plant_seasonality(
    values: np.ndarray, cycles: int, magnitude: float
) -> tuple[np.ndarray, tuple[float, float]]:
    """Add a sinusoidal seasonal component with ``cycles`` full periods."""
    if cycles <= 0:
        raise WorkloadError("seasonality needs at least one cycle")
    n = len(values)
    wave = magnitude * np.std(values) * np.sin(np.linspace(0.0, 2 * np.pi * cycles, n))
    return values + wave, (0.0, 1.0)


def make_pattern_column(
    name: str,
    num_rows: int,
    patterns: list[PatternKind],
    base_level: float = 100.0,
    base_scale: float = 10.0,
    seed: int = 17,
) -> tuple[Column, list[PlantedPattern]]:
    """Generate one column carrying the requested patterns, with ground truth."""
    _validate(num_rows, base_scale)
    rng = np.random.default_rng(seed)
    values = noisy_baseline(num_rows, base_level, base_scale, rng)
    planted: list[PlantedPattern] = []
    for i, kind in enumerate(patterns):
        if kind is PatternKind.OUTLIER_BURST:
            start = 0.15 + 0.3 * (i % 3)
            values, (lo, hi) = plant_outlier_burst(values, start, 0.02, 8.0, rng)
            planted.append(PlantedPattern(kind, name, lo, hi, 8.0))
        elif kind is PatternKind.LEVEL_SHIFT:
            values, (lo, hi) = plant_level_shift(values, 0.6, 4.0)
            planted.append(PlantedPattern(kind, name, lo, hi, 4.0))
        elif kind is PatternKind.TREND:
            values, (lo, hi) = plant_trend(values, 5.0)
            planted.append(PlantedPattern(kind, name, lo, hi, 5.0))
        elif kind is PatternKind.SEASONALITY:
            values, (lo, hi) = plant_seasonality(values, 6, 3.0)
            planted.append(PlantedPattern(kind, name, lo, hi, 3.0))
        else:
            raise WorkloadError(f"pattern {kind} needs a multi-column generator")
    return Column(name, values), planted


def make_contest_dataset(
    name: str = "contest",
    num_rows: int = 200_000,
    seed: int = 31,
) -> GeneratedDataset:
    """The default exploration-contest dataset: several columns, several patterns."""
    burst_col, burst_patterns = make_pattern_column(
        "sensor_a", num_rows, [PatternKind.OUTLIER_BURST], seed=seed
    )
    shift_col, shift_patterns = make_pattern_column(
        "sensor_b", num_rows, [PatternKind.LEVEL_SHIFT], seed=seed + 1
    )
    trend_col, trend_patterns = make_pattern_column(
        "sensor_c", num_rows, [PatternKind.TREND], seed=seed + 2
    )
    plain_col, _ = make_pattern_column("sensor_d", num_rows, [], seed=seed + 3)
    table = Table(name, [burst_col, shift_col, trend_col, plain_col])
    return GeneratedDataset(
        table=table,
        patterns=[*burst_patterns, *shift_patterns, *trend_patterns],
    )


# --------------------------------------------------------------------- #
# multi-user serving traffic
# --------------------------------------------------------------------- #


@dataclass
class MultiUserWorkload:
    """A multi-user serving workload: shared data plus per-session traces.

    ``traces`` maps a session identifier to the ordered
    :class:`repro.core.commands.TimedCommand` sequence that session issues;
    ``shared_columns`` / ``shared_tables`` hold the base data every session
    explores (registered once on the server, attached by reference to each
    session — never copied per session).
    """

    name: str
    traces: dict[str, list[TimedCommand]]
    shared_columns: dict[str, Column] = field(default_factory=dict)
    shared_tables: dict[str, Table] = field(default_factory=dict)

    @property
    def num_sessions(self) -> int:
        """How many user sessions the workload drives."""
        return len(self.traces)

    @property
    def total_commands(self) -> int:
        """Total gesture commands across every session."""
        return sum(len(trace) for trace in self.traces.values())

    @property
    def total_think_s(self) -> float:
        """Total user think-time across every session.

        A serial server must wait this entire amount out inline; a
        concurrent scheduler overlaps it across sessions.
        """
        return sum(timed.think_s for trace in self.traces.values() for timed in trace)

    def script_for(self, session_id: str) -> GestureScript:
        """One session's commands as a plain (unpaced) gesture script."""
        if session_id not in self.traces:
            raise WorkloadError(f"workload has no session {session_id!r}")
        return GestureScript(
            name=f"{self.name}:{session_id}",
            commands=[timed.command for timed in self.traces[session_id]],
        )

    def without_think(self) -> "MultiUserWorkload":
        """The same command sequences with every think-time zeroed.

        Shares the data objects; used by stress tests that want maximum
        contention rather than realistic pacing.
        """
        return MultiUserWorkload(
            name=f"{self.name}-nothink",
            traces={
                sid: [TimedCommand(command=t.command, think_s=0.0) for t in trace]
                for sid, trace in self.traces.items()
            },
            shared_columns=self.shared_columns,
            shared_tables=self.shared_tables,
        )

    def install(self, server) -> list[str]:
        """Register the shared data on ``server`` and open every session.

        ``server`` is a :class:`repro.service.MultiSessionServer` (typed
        loosely to keep the workload layer free of service imports).
        Returns the opened session identifiers in trace order.
        """
        for name, column in self.shared_columns.items():
            server.load_shared_column(name, column)
        for name, table in self.shared_tables.items():
            server.load_shared_table(name, table)
        return [server.open_session(sid) for sid in self.traces]


def make_serving_workload(
    num_sessions: int = 8,
    gestures_per_session: int = 12,
    num_rows: int = 200_000,
    mean_think_s: float = 0.02,
    seed: int = 47,
    column_name: str = "telemetry",
    table_name: str = "sensor_grid",
) -> MultiUserWorkload:
    """Mixed multi-user gesture traffic over one shared dataset.

    Every session shows the shared ``column_name`` column (attaching a
    scan / running-aggregate / interactive-summary action) and the shared
    ``table_name`` table (attaching a select-where plan), then issues
    ``gestures_per_session`` weighted-random gestures: column slides,
    select-where table slides, taps, zooms and table rotations.  Each
    command carries a think-time drawn uniformly from
    ``[0.5, 1.5] * mean_think_s`` (the pause before the user issues it).

    Fully deterministic for a given ``seed``: session ``i`` derives its
    own :func:`numpy.random.default_rng` stream from ``(seed, i)``, so the
    same workload can be replayed serially and concurrently and the
    per-session outcome counters compared bit-for-bit.
    """
    if num_sessions < 1:
        raise WorkloadError("a serving workload needs at least one session")
    if gestures_per_session < 1:
        raise WorkloadError("each session needs at least one gesture")
    if mean_think_s < 0:
        raise WorkloadError("mean_think_s cannot be negative")
    _validate(num_rows, 1.0)

    telemetry, _ = make_pattern_column(
        column_name, num_rows, [PatternKind.TREND], seed=seed
    )
    sensor_a, _ = make_pattern_column(
        "sensor_a", num_rows, [PatternKind.OUTLIER_BURST], seed=seed + 1
    )
    sensor_b, _ = make_pattern_column(
        "sensor_b", num_rows, [PatternKind.LEVEL_SHIFT], seed=seed + 2
    )
    sensor_c, _ = make_pattern_column("sensor_c", num_rows, [], seed=seed + 3)
    grid = Table(table_name, [sensor_a, sensor_b, sensor_c])

    col_view = "col-view"
    tab_view = "tab-view"
    where = select_where_action(
        "sensor_a",
        Predicate(Comparison.GT, 100.0),
        ("sensor_b", "sensor_c"),
    )

    traces: dict[str, list[TimedCommand]] = {}
    for i in range(num_sessions):
        rng = np.random.default_rng([seed, i])

        def think() -> float:
            return float(rng.uniform(0.5, 1.5) * mean_think_s)

        column_action = [
            scan_action(),
            aggregate_action("avg"),
            summary_action(k=8),
        ][int(rng.integers(0, 3))]
        trace = [
            TimedCommand(ShowColumn(object_name=column_name, view_name=col_view)),
            TimedCommand(ChooseAction(view=col_view, action=column_action), think()),
            TimedCommand(ShowTable(table_name=table_name, view_name=tab_view), think()),
            TimedCommand(ChooseAction(view=tab_view, action=where), think()),
        ]
        # zoom state machine: one zoom-in, later one zoom-out, then no more.
        # Zoom factors are asymmetric (in x4, out /16), so a second cycle
        # would shrink the view below the two-finger synthesizer's minimum
        # spread and the gesture could no longer be recognized.
        zoom_state = "base"
        for _ in range(gestures_per_session):
            roll = float(rng.random())
            if roll < 0.40:
                start = float(rng.uniform(0.0, 0.55))
                command = Slide(
                    view=col_view,
                    duration=float(rng.uniform(0.3, 0.8)),
                    start_fraction=start,
                    end_fraction=start + float(rng.uniform(0.15, 0.4)),
                )
            elif roll < 0.65:
                start = float(rng.uniform(0.0, 0.5))
                command = Slide(
                    view=tab_view,
                    duration=float(rng.uniform(0.3, 0.7)),
                    start_fraction=start,
                    end_fraction=start + float(rng.uniform(0.2, 0.45)),
                )
            elif roll < 0.80:
                command = Tap(view=col_view, fraction=float(rng.uniform(0.05, 0.95)))
            elif roll < 0.92:
                if zoom_state == "base":
                    command = ZoomIn(view=col_view)
                    zoom_state = "in"
                elif zoom_state == "in":
                    command = ZoomOut(view=col_view)
                    zoom_state = "spent"
                else:
                    command = Tap(view=col_view, fraction=float(rng.uniform(0.05, 0.95)))
            else:
                command = Rotate(view=tab_view)
            trace.append(TimedCommand(command, think()))
        traces[f"user-{i:02d}"] = trace

    return MultiUserWorkload(
        name="serving-mixed",
        traces=traces,
        shared_columns={column_name: telemetry},
        shared_tables={table_name: grid},
    )
