"""Workloads: synthetic generators, domain scenarios and the contest harness."""

from repro.workloads.contest import run_contest
from repro.workloads.generators import (
    GeneratedDataset,
    PatternKind,
    PlantedPattern,
    make_contest_dataset,
    make_serving_workload,
)
from repro.workloads.scenarios import it_monitoring_scenario, sky_survey_scenario

__all__ = [
    "GeneratedDataset",
    "PatternKind",
    "PlantedPattern",
    "it_monitoring_scenario",
    "make_contest_dataset",
    "make_serving_workload",
    "run_contest",
    "sky_survey_scenario",
]
