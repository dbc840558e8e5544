"""The exploration contest (Appendix A of the paper).

Two explorers race to find the properties planted in the same dataset:

* the **dbTouch explorer** uses gestures — coarse summary slides to spot a
  suspicious region, then zoom-in and slower slides to localize it;
* the **SQL explorer** uses the monolithic baseline engine — aggregate
  queries over the whole column and then a bisection of positional ranges,
  every step being a full scan.

The harness scripts both users, applies the same "found it" criterion
(report a positional interval that overlaps the planted pattern and is not
hopelessly wide) and reports how much data each had to read and how many
interactions each needed.  This reproduces the demo's contest in a form a
benchmark can run repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baseline.engine import MonolithicEngine
from repro.baseline.sql import SqlInterface
from repro.core.kernel import KernelConfig
from repro.core.session import ExplorationSession
from repro.errors import ContestError
from repro.storage.column import Column
from repro.storage.table import Table
from repro.touchio.device import DeviceProfile, IPAD1
from repro.workloads.generators import GeneratedDataset, PlantedPattern


@dataclass
class ExplorerReport:
    """What one contestant did and whether they found the pattern.

    Attributes
    ----------
    explorer:
        ``"dbtouch"`` or ``"sql"``.
    found:
        Whether the reported interval overlaps the planted pattern.
    reported_interval:
        The positional interval (fractions of the column) the explorer
        reported as containing the pattern.
    tuples_examined:
        Number of stored values the explorer's system had to read.
    interactions:
        Gestures (dbTouch) or SQL statements (baseline) issued.
    """

    explorer: str
    found: bool
    reported_interval: tuple[float, float]
    tuples_examined: int
    interactions: int


@dataclass
class ContestResult:
    """Outcome of one head-to-head exploration contest."""

    pattern: PlantedPattern
    dbtouch: ExplorerReport
    sql: ExplorerReport

    @property
    def winner(self) -> str:
        """The contestant that found the pattern while reading less data."""
        if self.dbtouch.found and not self.sql.found:
            return "dbtouch"
        if self.sql.found and not self.dbtouch.found:
            return "sql"
        if not self.dbtouch.found and not self.sql.found:
            return "none"
        return (
            "dbtouch"
            if self.dbtouch.tuples_examined <= self.sql.tuples_examined
            else "sql"
        )

    @property
    def data_read_ratio(self) -> float:
        """How many times more data the SQL explorer read than dbTouch."""
        if self.dbtouch.tuples_examined == 0:
            return float("inf")
        return self.sql.tuples_examined / self.dbtouch.tuples_examined


def _interval_overlaps(interval: tuple[float, float], pattern: PlantedPattern) -> bool:
    lo, hi = interval
    return not (hi < pattern.start_fraction or lo > pattern.end_fraction)


class DbTouchExplorer:
    """A scripted dbTouch user hunting for an anomalous region in a column."""

    def __init__(
        self,
        column: Column,
        profile: DeviceProfile = IPAD1,
        deviation_threshold: float = 4.0,
        summary_k: int = 10,
    ) -> None:
        if deviation_threshold <= 0:
            raise ContestError("deviation_threshold must be positive")
        self.column = column
        self.profile = profile
        self.deviation_threshold = deviation_threshold
        self.summary_k = summary_k
        # the sample hierarchy is disabled so every summary aggregates the
        # full 2k+1 base entries (low-variance summaries are what lets the
        # explorer spot subtle patterns), and tuples_examined counts the
        # base data the exploration itself read
        self.session = ExplorationSession(
            profile=profile, config=KernelConfig(enable_samples=False)
        )
        self.session.load_column(column.name, column)

    def explore(self, coarse_duration: float = 3.0, fine_duration: float = 3.0) -> ExplorerReport:
        """Run the scripted exploration and report what was found."""
        view = self.session.show_column(self.column.name, height_cm=10.0)
        self.session.choose_summary(view, k=self.summary_k, aggregate="avg")

        # phase 1: one coarse slide over the whole object
        coarse = self.session.slide(view, duration=coarse_duration)
        fractions, values = self._result_series(coarse)
        candidate = self._most_deviant_region(fractions, values)
        if candidate is None:
            summary = self.session.summary()
            return ExplorerReport(
                explorer="dbtouch",
                found=False,
                reported_interval=(0.0, 0.0),
                tuples_examined=summary.tuples_examined,
                interactions=summary.gestures,
            )

        # phase 2: zoom in and re-slide only the suspicious neighbourhood
        self.session.zoom_in(view)
        lo = max(0.0, candidate - 0.1)
        hi = min(1.0, candidate + 0.1)
        fine = self.session.slide(view, duration=fine_duration, start_fraction=lo, end_fraction=hi)
        fine_fracs, fine_values = self._result_series(fine)
        refined = self._most_deviant_region(fine_fracs, fine_values)
        center = refined if refined is not None else candidate
        interval = (max(0.0, center - 0.03), min(1.0, center + 0.03))
        summary = self.session.summary()
        return ExplorerReport(
            explorer="dbtouch",
            found=True,
            reported_interval=interval,
            tuples_examined=summary.tuples_examined,
            interactions=summary.gestures,
        )

    def _result_series(self, outcome) -> tuple[np.ndarray, np.ndarray]:
        fractions = np.asarray([r.position_fraction for r in outcome.results])
        values = np.asarray(
            [r.value for r in outcome.results if isinstance(r.value, (int, float, np.floating))],
            dtype=np.float64,
        )
        if len(values) != len(fractions):
            fractions = fractions[: len(values)]
        return fractions, values

    def _most_deviant_region(self, fractions: np.ndarray, values: np.ndarray) -> float | None:
        """Pick the position of the most suspicious summary, or None.

        Two signals are considered: the summary that deviates most from the
        (robust) centre of all summaries, and the largest jump between two
        consecutive summaries.  The jump localizes transitions — the start of
        an outlier burst or the boundary of a level shift — which is what a
        human explorer would zoom into; the plain deviation covers isolated
        extreme regions.
        """
        if len(values) < 8:
            return None
        median = float(np.median(values))
        mad = float(np.median(np.abs(values - median)))
        # 1.4826 * MAD is a consistent estimator of the standard deviation for
        # Gaussian noise, so the threshold is expressed in sigmas
        scale = 1.4826 * mad if mad > 0 else float(np.std(values)) or 1.0
        deviations = np.abs(values - median) / scale
        worst = int(np.argmax(deviations))
        # the difference of two independent summaries has sqrt(2) times their
        # spread, so jumps are normalized accordingly before thresholding
        jumps = np.abs(np.diff(values)) / (scale * np.sqrt(2.0))
        worst_jump = int(np.argmax(jumps)) if len(jumps) else 0
        max_dev = float(deviations[worst])
        max_jump = float(jumps[worst_jump]) if len(jumps) else 0.0
        if max(max_dev, max_jump) < self.deviation_threshold:
            return None
        if max_jump >= 0.5 * max_dev and max_jump >= self.deviation_threshold:
            # centre the candidate on the transition between the two summaries
            return float((fractions[worst_jump] + fractions[worst_jump + 1]) / 2.0)
        return float(fractions[worst])


class SqlExplorer:
    """A scripted SQL user hunting for the same region with a monolithic DBMS.

    The script mirrors how an analyst localizes an anomaly without knowing
    where it is: global aggregates first, then a positional bisection using
    ``WHERE position BETWEEN a AND b`` aggregate queries — each of which the
    monolithic engine answers with a full scan of the predicate column.
    """

    def __init__(self, column: Column, deviation_threshold: float = 2.0):
        if deviation_threshold <= 0:
            raise ContestError("deviation_threshold must be positive")
        self.column = column
        self.deviation_threshold = deviation_threshold
        self.engine = MonolithicEngine()
        table = Table(
            "contest",
            [Column("position", np.arange(len(column), dtype=np.int64)), column.copy()],
        )
        self.engine.register(table)
        self.sql = SqlInterface(self.engine)

    def explore(self, max_bisections: int = 12) -> ExplorerReport:
        """Run the scripted SQL exploration and report what was found."""
        name = self.column.name
        n = len(self.column)
        baseline_avg = float(self.sql.execute(f"SELECT AVG({name}) FROM contest").scalar())
        baseline_std = float(self.sql.execute(f"SELECT STD({name}) FROM contest").scalar())
        self.sql.execute(f"SELECT MAX({name}) FROM contest")

        lo, hi = 0, n
        found = False
        for _ in range(max_bisections):
            if hi - lo <= max(1, n // 64):
                found = True
                break
            mid = (lo + hi) // 2
            # an analyst hunting anomalies bisects on the half whose extreme
            # and average deviate most from the global baseline; each probe is
            # a full scan for the monolithic engine
            left_dev = self._range_deviation(name, lo, mid, baseline_avg)
            right_dev = self._range_deviation(name, mid, hi, baseline_avg)
            if max(left_dev, right_dev) < self.deviation_threshold * baseline_std / 10.0:
                # neither half looks interesting; this bisection is going
                # nowhere, keep narrowing on the slightly more deviant half
                pass
            if left_dev >= right_dev:
                hi = mid
            else:
                lo = mid
            found = True
        interval = (lo / n, hi / n)
        return ExplorerReport(
            explorer="sql",
            found=found,
            reported_interval=interval,
            tuples_examined=self.engine.total_cells_read,
            interactions=self.sql.statements_executed,
        )

    def _range_deviation(self, name: str, lo: int, hi: int, baseline_avg: float) -> float:
        """How anomalous the positional range [lo, hi) looks to the SQL user."""
        avg_result = self.sql.execute(
            f"SELECT AVG({name}) FROM contest WHERE position BETWEEN {lo} AND {hi - 1}"
        )
        max_result = self.sql.execute(
            f"SELECT MAX({name}) FROM contest WHERE position BETWEEN {lo} AND {hi - 1}"
        )
        avg_value = avg_result.scalar()
        max_value = max_result.scalar()
        avg_dev = abs(float(avg_value) - baseline_avg) if avg_value is not None else 0.0
        max_dev = abs(float(max_value) - baseline_avg) if max_value is not None else 0.0
        return max(avg_dev, max_dev)


def run_contest(
    dataset: GeneratedDataset,
    column_name: str,
    profile: DeviceProfile = IPAD1,
) -> ContestResult:
    """Run both explorers against one planted pattern and compare them."""
    patterns = dataset.patterns_in(column_name)
    if not patterns:
        raise ContestError(f"dataset has no planted pattern in column {column_name!r}")
    pattern = patterns[0]
    column = dataset.table.column(column_name)

    dbtouch_report = DbTouchExplorer(column, profile=profile).explore()
    sql_report = SqlExplorer(column).explore()

    dbtouch_report.found = dbtouch_report.found and _interval_overlaps(
        dbtouch_report.reported_interval, pattern
    )
    sql_report.found = sql_report.found and _interval_overlaps(
        sql_report.reported_interval, pattern
    )
    return ContestResult(pattern=pattern, dbtouch=dbtouch_report, sql=sql_report)
