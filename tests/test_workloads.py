"""Unit tests for workload generators, scenarios and the exploration contest."""

import numpy as np
import pytest

from repro.errors import ContestError, WorkloadError
from repro.workloads.contest import DbTouchExplorer, SqlExplorer, run_contest
from repro.workloads.generators import (
    PatternKind,
    make_contest_dataset,
    make_pattern_column,
)
from repro.workloads.scenarios import it_monitoring_scenario, sky_survey_scenario


class TestPatternColumns:
    def test_outlier_burst_is_localized(self):
        column, patterns = make_pattern_column("c", 50_000, [PatternKind.OUTLIER_BURST])
        assert len(patterns) == 1
        pattern = patterns[0]
        values = column.values
        n = len(values)
        inside = values[int(pattern.start_fraction * n) : int(pattern.end_fraction * n)]
        outside = np.concatenate(
            [values[: int(pattern.start_fraction * n)], values[int(pattern.end_fraction * n) :]]
        )
        assert inside.mean() > outside.mean() + 3 * outside.std()

    def test_level_shift(self):
        column, patterns = make_pattern_column("c", 50_000, [PatternKind.LEVEL_SHIFT])
        n = len(column)
        start = int(patterns[0].start_fraction * n)
        head = column.values[:start]
        assert column.values[start:].mean() > head.mean() + 2 * head.std()

    def test_trend(self):
        column, _ = make_pattern_column("c", 50_000, [PatternKind.TREND])
        third = len(column) // 3
        assert column.values[-third:].mean() > column.values[:third].mean()

    def test_seasonality_has_cycles(self):
        column, _ = make_pattern_column("c", 10_000, [PatternKind.SEASONALITY])
        centered = column.values - column.values.mean()
        spectrum = np.abs(np.fft.rfft(centered))
        # the planted 6-cycle component dominates the low-frequency spectrum
        assert np.argmax(spectrum[1:50]) + 1 == 6

    def test_deterministic_with_seed(self):
        a, _ = make_pattern_column("c", 1000, [PatternKind.TREND], seed=9)
        b, _ = make_pattern_column("c", 1000, [PatternKind.TREND], seed=9)
        assert a == b

    def test_multi_column_pattern_rejected_here(self):
        with pytest.raises(WorkloadError):
            make_pattern_column("c", 100, [PatternKind.CORRELATION])

    def test_validation(self):
        with pytest.raises(WorkloadError):
            make_pattern_column("c", 0, [])
        with pytest.raises(WorkloadError):
            make_pattern_column("c", 10, [], base_scale=0.0)


class TestContestDataset:
    def test_columns_and_patterns(self):
        dataset = make_contest_dataset(num_rows=20_000)
        assert dataset.table.num_columns == 4
        assert {p.column for p in dataset.patterns} == {"sensor_a", "sensor_b", "sensor_c"}
        assert dataset.patterns_in("sensor_d") == []


class TestScenarios:
    def test_sky_survey_shape(self):
        scenario = sky_survey_scenario(num_objects=20_000)
        assert scenario.table.num_columns == 4
        assert len(scenario.table) == 20_000
        assert any(p.column == "magnitude" for p in scenario.patterns)

    def test_sky_survey_transient_is_brighter(self):
        scenario = sky_survey_scenario(num_objects=50_000)
        magnitude = scenario.table.column("magnitude").values
        n = len(magnitude)
        region = magnitude[int(0.42 * n) : int(0.45 * n)]
        rest = magnitude[: int(0.42 * n)]
        assert region.mean() < rest.mean() - 2.0  # smaller magnitude = brighter

    def test_it_monitoring_deployment_spike(self):
        scenario = it_monitoring_scenario(num_events=50_000)
        latency = scenario.table.column("latency_ms").values
        n = len(latency)
        window = latency[int(0.55 * n) : int(0.60 * n)]
        rest = latency[: int(0.55 * n)]
        assert window.mean() > 2.0 * rest.mean()

    def test_scenario_validation(self):
        with pytest.raises(WorkloadError):
            sky_survey_scenario(num_objects=0)
        with pytest.raises(WorkloadError):
            it_monitoring_scenario(num_events=0)


class TestExplorationContest:
    @pytest.fixture(scope="class")
    def contest_result(self):
        dataset = make_contest_dataset(num_rows=40_000)
        return run_contest(dataset, "sensor_a")

    def test_dbtouch_finds_the_pattern(self, contest_result):
        assert contest_result.dbtouch.found

    def test_dbtouch_reads_far_less_data(self, contest_result):
        assert contest_result.data_read_ratio > 50
        assert contest_result.winner == "dbtouch"

    def test_sql_explorer_reads_full_scans(self, contest_result):
        n = 40_000
        assert contest_result.sql.tuples_examined >= 3 * n

    def test_reports_have_interactions(self, contest_result):
        assert contest_result.dbtouch.interactions >= 2
        assert contest_result.sql.interactions >= 3

    def test_contest_requires_planted_pattern(self):
        dataset = make_contest_dataset(num_rows=5_000)
        with pytest.raises(ContestError):
            run_contest(dataset, "sensor_d")

    def test_dbtouch_explorer_gives_up_on_flat_data(self):
        from repro.storage.column import Column

        noise = np.random.default_rng(0).normal(0, 0.1, 20_000)
        flat = Column("flat", np.full(20_000, 7.0) + noise)
        report = DbTouchExplorer(flat).explore()
        assert not report.found

    def test_explorer_validation(self):
        from repro.storage.column import Column

        col = Column("c", np.arange(100))
        with pytest.raises(ContestError):
            DbTouchExplorer(col, deviation_threshold=0.0)
        with pytest.raises(ContestError):
            SqlExplorer(col, deviation_threshold=-1.0)


class TestServingWorkload:
    def test_generator_is_deterministic_per_seed(self):
        from repro.workloads.generators import make_serving_workload

        first = make_serving_workload(num_sessions=3, gestures_per_session=5, num_rows=2_000)
        second = make_serving_workload(num_sessions=3, gestures_per_session=5, num_rows=2_000)
        assert sorted(first.traces) == sorted(second.traces)
        for session_id in first.traces:
            a = [(t.command.to_dict(), t.think_s) for t in first.traces[session_id]]
            b = [(t.command.to_dict(), t.think_s) for t in second.traces[session_id]]
            assert a == b

    def test_sessions_get_distinct_traffic(self):
        from repro.workloads.generators import make_serving_workload

        workload = make_serving_workload(
            num_sessions=4, gestures_per_session=8, num_rows=2_000
        )
        encoded = {
            session_id: [t.command.to_dict() for t in trace]
            for session_id, trace in workload.traces.items()
        }
        assert len({str(commands) for commands in encoded.values()}) > 1

    def test_traffic_mixes_slide_zoom_rotate_select_where(self):
        from repro.workloads.generators import make_serving_workload

        workload = make_serving_workload(
            num_sessions=8, gestures_per_session=12, num_rows=2_000, seed=3
        )
        kinds = {
            timed.command.kind
            for trace in workload.traces.values()
            for timed in trace
        }
        assert {"slide", "zoom-in", "rotate", "choose-action", "tap"} <= kinds
        # every session carries a select-where plan on the shared table
        for trace in workload.traces.values():
            actions = [
                t.command.action.kind.value
                for t in trace
                if t.command.kind == "choose-action"
            ]
            assert "select-where" in actions

    def test_think_time_scales_with_mean(self):
        from repro.workloads.generators import make_serving_workload

        workload = make_serving_workload(
            num_sessions=2, gestures_per_session=6, num_rows=2_000, mean_think_s=0.1
        )
        thinks = [
            t.think_s for trace in workload.traces.values() for t in trace if t.think_s
        ]
        assert all(0.05 <= think <= 0.15 for think in thinks)
        zeroed = workload.without_think()
        assert zeroed.total_think_s == 0.0
        assert zeroed.total_commands == workload.total_commands

    def test_script_for_strips_pacing(self):
        from repro.workloads.generators import make_serving_workload

        workload = make_serving_workload(
            num_sessions=1, gestures_per_session=4, num_rows=2_000
        )
        (session_id,) = workload.traces
        script = workload.script_for(session_id)
        assert len(script) == len(workload.traces[session_id])
        with pytest.raises(WorkloadError):
            workload.script_for("nobody")

    def test_validation(self):
        from repro.workloads.generators import make_serving_workload

        with pytest.raises(WorkloadError):
            make_serving_workload(num_sessions=0)
        with pytest.raises(WorkloadError):
            make_serving_workload(gestures_per_session=0)
        with pytest.raises(WorkloadError):
            make_serving_workload(mean_think_s=-0.1)


class TestTimedCommandAndTraceRecording:
    def test_timed_command_validation(self):
        from repro.core.commands import Slide, TimedCommand
        from repro.errors import CommandError

        with pytest.raises(CommandError):
            TimedCommand("not-a-command")
        with pytest.raises(CommandError):
            TimedCommand(Slide(view="v"), think_s=-1.0)
