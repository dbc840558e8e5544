"""Domain scenarios from the paper's introduction.

The paper motivates dbTouch with two running examples: an astronomer who
browses parts of the sky looking for interesting effects, and a data
analyst at an IT business who browses daily monitoring streams to figure
out user-behaviour patterns.  Both produce a daily stream of big data and
both need to "observe something interesting" rather than run precise,
pre-planned queries.  This module builds scaled-down but structurally
faithful versions of those datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.commands import (
    ChooseAction,
    GestureScript,
    ShowColumn,
    Slide,
    Tap,
    ZoomIn,
)
from repro.core.actions import summary_action
from repro.errors import WorkloadError
from repro.storage.column import Column
from repro.storage.table import Table
from repro.workloads.generators import PatternKind, PlantedPattern


@dataclass
class Scenario:
    """A named dataset plus the ground-truth patterns hidden inside it."""

    name: str
    table: Table
    patterns: list[PlantedPattern]
    description: str

    def load_into(self, service) -> None:
        """Load the scenario's columns as standalone objects on a service.

        Works against any backend exposing ``load_column`` (both
        :class:`repro.service.LocalExplorationService` and
        :class:`repro.remote.RemoteExplorationService` do), which is what
        lets the scenario scripts below run locally or remotely unchanged.
        """
        for column in self.table.columns:
            service.load_column(column.name, column.copy())


def sky_survey_scenario(num_objects: int = 500_000, seed: int = 41) -> Scenario:
    """The astronomer's workload: a catalog of observed sky objects.

    Columns: right ascension, declination, apparent magnitude and redshift.
    Planted patterns: a localized cluster of unusually bright objects (a
    "transient event" region in declination) and a magnitude/redshift
    correlation, which is what the astronomer is hoping to spot by sliding
    over the magnitude column and zooming into suspicious regions.
    """
    if num_objects <= 0:
        raise WorkloadError("num_objects must be positive")
    rng = np.random.default_rng(seed)
    right_ascension = rng.uniform(0.0, 360.0, size=num_objects)
    declination = np.sort(rng.uniform(-90.0, 90.0, size=num_objects))
    redshift = np.abs(rng.normal(0.5, 0.3, size=num_objects))
    magnitude = 18.0 + 2.5 * redshift + rng.normal(0.0, 0.6, size=num_objects)

    # transient event: objects between declination fractions 0.42 and 0.45
    # are several magnitudes brighter than the background population
    start = int(0.42 * num_objects)
    stop = int(0.45 * num_objects)
    magnitude[start:stop] -= 4.0
    patterns = [
        PlantedPattern(
            kind=PatternKind.OUTLIER_BURST,
            column="magnitude",
            start_fraction=0.42,
            end_fraction=0.45,
            magnitude=4.0,
        ),
        PlantedPattern(
            kind=PatternKind.CORRELATION,
            column="redshift",
            start_fraction=0.0,
            end_fraction=1.0,
            magnitude=0.8,
        ),
    ]
    table = Table(
        "sky_survey",
        [
            Column("right_ascension", right_ascension),
            Column("declination", declination),
            Column("magnitude", magnitude),
            Column("redshift", redshift),
        ],
    )
    return Scenario(
        name="sky-survey",
        table=table,
        patterns=patterns,
        description=(
            "An astronomer browses a sky-object catalog looking for a bright "
            "transient region and for the magnitude/redshift relation."
        ),
    )


def it_monitoring_scenario(num_events: int = 500_000, seed: int = 43) -> Scenario:
    """The IT analyst's workload: a day of request-monitoring events.

    Columns: timestamp (seconds since midnight), response time in
    milliseconds, bytes served and an integer service identifier.  Planted
    patterns: a latency spike during a deployment window, a daily
    seasonality in traffic volume, and one misbehaving service whose
    response times are systematically higher.
    """
    if num_events <= 0:
        raise WorkloadError("num_events must be positive")
    rng = np.random.default_rng(seed)
    timestamps = np.sort(rng.uniform(0.0, 86_400.0, size=num_events))
    service_ids = rng.integers(0, 8, size=num_events)
    base_latency = rng.lognormal(mean=3.0, sigma=0.4, size=num_events)
    # daily seasonality: traffic volume (bytes) follows a day/night cycle
    bytes_served = (
        5_000.0
        + 4_000.0 * np.sin(2 * np.pi * timestamps / 86_400.0 - np.pi / 2)
        + rng.normal(0.0, 500.0, size=num_events)
    ).clip(min=100.0)
    # deployment window: latencies triple between fractions 0.55 and 0.60
    start = int(0.55 * num_events)
    stop = int(0.60 * num_events)
    latency = base_latency.copy()
    latency[start:stop] *= 3.0
    # misbehaving service 5: +50% latency everywhere
    latency[service_ids == 5] *= 1.5

    patterns = [
        PlantedPattern(
            kind=PatternKind.OUTLIER_BURST,
            column="latency_ms",
            start_fraction=0.55,
            end_fraction=0.60,
            magnitude=3.0,
        ),
        PlantedPattern(
            kind=PatternKind.SEASONALITY,
            column="bytes_served",
            start_fraction=0.0,
            end_fraction=1.0,
            magnitude=4.0,
        ),
        PlantedPattern(
            kind=PatternKind.CLUSTER,
            column="service_id",
            start_fraction=0.0,
            end_fraction=1.0,
            magnitude=1.5,
        ),
    ]
    table = Table(
        "it_monitoring",
        [
            Column("timestamp", timestamps),
            Column("latency_ms", latency),
            Column("bytes_served", bytes_served),
            Column("service_id", service_ids),
        ],
    )
    return Scenario(
        name="it-monitoring",
        table=table,
        patterns=patterns,
        description=(
            "An IT analyst browses a day of monitoring events looking for a "
            "deployment-window latency spike, the daily traffic cycle and a "
            "misbehaving service."
        ),
    )


# --------------------------------------------------------------------- #
# the scenarios as gesture scripts
# --------------------------------------------------------------------- #


def sky_survey_script(summary_k: int = 10) -> GestureScript:
    """The astronomer's exploration of :func:`sky_survey_scenario` as data.

    The canonical browse the paper's introduction describes — slide over
    the whole magnitude column to get the lay of the land, zoom into the
    planted transient region (declination fractions 0.42–0.45, plus a 0.02
    margin), slide slowly across it, and tap to reveal an exact value.
    Load the scenario's columns first (``scenario.load_into(service)``),
    then run the script on any :class:`repro.service.ExplorationService`.
    """
    view, start, end = "magnitude-view", 0.42, 0.45
    return GestureScript(
        name="sky-survey-browse",
        commands=[
            ShowColumn(object_name="magnitude", view_name=view, height_cm=10.0),
            ChooseAction(view=view, action=summary_action(k=summary_k, aggregate="avg")),
            Slide(view=view, duration=2.0),
            ZoomIn(view=view),
            Slide(view=view, duration=1.5, start_fraction=start - 0.02, end_fraction=end + 0.02),
            Tap(view=view, fraction=(start + end) / 2.0),
        ],
    )
