"""Integration tests: full exploration sessions across multiple modules."""

import numpy as np
import pytest

from repro.core.session import ExplorationSession
from repro.core.actions import group_by_action, join_action
from repro.baseline import MonolithicEngine, SqlInterface
from repro.metrics.reporting import ExperimentSeries
from repro.remote import RemoteExplorationClient, RemotePolicy, RemoteServer, SimulatedLink, WAN
from repro.storage.column import Column
from repro.touchio.device import DeviceProfile
from repro.viz import assign_colors, render_results, render_screen, shape_from_view
from repro.workloads import it_monitoring_scenario, sky_survey_scenario


PROFILE = DeviceProfile(
    name="integration",
    screen_width_cm=20.0,
    screen_height_cm=15.0,
    sampling_rate_hz=20.0,
    finger_width_cm=0.08,
)


class TestAstronomerWorkflow:
    """The paper's astronomer: browse the sky catalog, find the bright region."""

    def test_slide_zoom_slide_finds_transient(self):
        scenario = sky_survey_scenario(num_objects=100_000)
        session = ExplorationSession(profile=PROFILE)
        session.load_table("sky_survey", scenario.table)
        view = session.show_column("sky_survey", column_name="magnitude", height_cm=10.0)
        session.choose_summary(view, k=10, aggregate="avg")

        coarse = session.slide(view, duration=3.0)
        assert coarse.entries_returned > 20
        values = np.asarray([r.value for r in coarse.results], dtype=np.float64)
        fractions = np.asarray([r.position_fraction for r in coarse.results])
        brightest = fractions[int(np.argmin(values))]
        # the transient lives between fractions 0.42 and 0.45
        assert 0.35 <= brightest <= 0.52

        session.zoom_in(view)
        fine = session.slide(
            view, duration=2.0, start_fraction=max(0.0, brightest - 0.05),
            end_fraction=min(1.0, brightest + 0.05),
        )
        fine_values = np.asarray([r.value for r in fine.results], dtype=np.float64)
        assert fine_values.min() < values.mean() - 2.0

    def test_exploration_touches_only_a_sample(self):
        scenario = sky_survey_scenario(num_objects=100_000)
        session = ExplorationSession(profile=PROFILE)
        session.load_table("sky_survey", scenario.table)
        view = session.show_column("sky_survey", column_name="magnitude")
        session.choose_summary(view, k=10)
        session.slide(view, duration=3.0)
        summary = session.summary()
        assert summary.tuples_examined < 0.05 * len(scenario.table)


class TestAnalystWorkflow:
    """The IT analyst: find the latency spike, then break it down by service."""

    def test_latency_spike_then_group_by(self):
        scenario = it_monitoring_scenario(num_events=100_000)
        session = ExplorationSession(profile=PROFILE)
        session.load_table("it_monitoring", scenario.table)

        latency_view = session.show_column("it_monitoring", column_name="latency_ms", x=0.0)
        session.choose_summary(latency_view, k=10)
        outcome = session.slide(latency_view, duration=3.0)
        values = np.asarray([r.value for r in outcome.results], dtype=np.float64)
        fractions = np.asarray([r.position_fraction for r in outcome.results])
        spike_at = fractions[int(np.argmax(values))]
        assert 0.5 <= spike_at <= 0.65  # deployment window is 0.55-0.60

        table_view = session.show_table("it_monitoring", x=5.0)
        session.choose_action(
            table_view, group_by_action("service_id", "latency_ms", aggregate="avg")
        )
        session.slide(table_view, duration=3.0)
        groups = session.kernel.state_of(table_view.name).group_by.snapshot()
        assert len(groups) >= 6
        worst = max(groups, key=lambda g: g.value or 0.0)
        assert worst.key == 5  # the misbehaving service


class TestJoinAcrossObjects:
    def test_two_column_join_session(self):
        rng = np.random.default_rng(11)
        orders = rng.integers(0, 200, size=5000)
        customers = np.arange(200)
        session = ExplorationSession(profile=PROFILE)
        session.load_column("orders_customer_id", orders)
        session.load_column("customers_id", customers)
        orders_view = session.show_column("orders_customer_id", x=0.0)
        customers_view = session.show_column("customers_id", x=5.0)
        session.choose_action(orders_view, join_action("customers_id"))
        session.choose_action(customers_view, join_action("orders_customer_id"))
        session.slide(customers_view, duration=2.0)
        outcome = session.slide(orders_view, duration=2.0)
        assert outcome.join_matches > 0


class TestDbTouchVersusBaselineCost:
    def test_exploration_reads_less_than_single_full_scan(self):
        n = 200_000
        rng = np.random.default_rng(4)
        data = rng.normal(100, 10, size=n)
        # dbTouch side
        session = ExplorationSession(profile=PROFILE)
        session.load_column("m", data)
        view = session.show_column("m")
        session.choose_summary(view, k=10)
        session.slide(view, duration=2.0)
        session.zoom_in(view)
        session.slide(view, duration=2.0, start_fraction=0.4, end_fraction=0.6)
        dbtouch_reads = session.summary().tuples_examined
        # baseline side: one aggregate query = one full scan
        engine = MonolithicEngine()
        from repro.storage.table import Table

        engine.register(Table.from_arrays("t", {"m": data}))
        sql = SqlInterface(engine)
        sql.execute("SELECT AVG(m) FROM t")
        baseline_reads = engine.total_cells_read
        assert dbtouch_reads < 0.1 * baseline_reads

    def test_results_agree_qualitatively(self):
        n = 100_000
        data = np.linspace(0, 1000, n)
        session = ExplorationSession(profile=PROFILE)
        session.load_column("m", data)
        view = session.show_column("m")
        session.choose_aggregate(view, "avg")
        outcome = session.slide(view, duration=2.0)
        engine = MonolithicEngine()
        from repro.storage.table import Table

        engine.register(Table.from_arrays("t", {"m": data}))
        exact = SqlInterface(engine).execute("SELECT AVG(m) FROM t").scalar()
        assert outcome.final_aggregate == pytest.approx(exact, rel=0.05)


class TestRemoteWorkflow:
    def test_hybrid_exploration_is_interactive_over_wan(self):
        server = RemoteServer()
        server.host_column(Column("remote_data", np.arange(2_000_000, dtype=np.int64)))
        hybrid = RemoteExplorationClient(
            server, SimulatedLink(WAN), "remote_data", policy=RemotePolicy.HYBRID
        )
        naive = RemoteExplorationClient(
            server, SimulatedLink(WAN), "remote_data", policy=RemotePolicy.REMOTE_EVERY_TOUCH
        )
        rowids = list(range(0, 2_000_000, 50_000))
        hybrid.slide(rowids)
        naive.slide(rowids)
        assert hybrid.stats.mean_response_s < 0.25 * naive.stats.mean_response_s


class TestVisualizationIntegration:
    def test_render_session_screen_and_results(self):
        session = ExplorationSession(profile=PROFILE)
        session.load_column("alpha", np.arange(10_000))
        session.load_column("beta", np.arange(10_000) * 2)
        view_a = session.show_column("alpha", x=0.0)
        view_b = session.show_column("beta", x=4.0)
        colors = assign_colors(["alpha", "beta"])
        screen = render_screen(
            [shape_from_view(view_a, colors["alpha"]), shape_from_view(view_b, colors["beta"])]
        )
        assert "alpha" in screen and "beta" in screen
        session.choose_scan(view_a)
        session.slide(view_a, duration=1.0)
        stream = session.kernel.state_of(view_a.name).results
        rendered = render_results(shape_from_view(view_a, "blue"), stream, now=session.device.now)
        assert "visible results" in rendered


class TestReportingIntegration:
    def test_speed_sweep_builds_monotone_series(self):
        session = ExplorationSession(profile=PROFILE)
        session.load_column("c", np.arange(1_000_000))
        view = session.show_column("c")
        session.choose_summary(view, k=10)
        series = ExperimentSeries("speed sweep", "duration_s", ["entries"])
        for duration in (0.5, 1.0, 2.0, 3.0):
            outcome = session.slide(view, duration=duration)
            series.add(duration, entries=outcome.entries_returned)
        assert series.is_monotonic_increasing("entries", tolerance=2)
        assert series.linear_correlation("entries") > 0.9
