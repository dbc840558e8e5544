"""Tests for the backend-agnostic exploration services."""

import numpy as np
import pytest

from repro.core.actions import scan_action, summary_action
from repro.core.commands import (
    AppendCommand,
    ChooseAction,
    GestureScript,
    GroupColumns,
    Pan,
    Rotate,
    ShowColumn,
    ShowTable,
    Slide,
    Tap,
    UngroupTable,
    ZoomIn,
)
from repro.core.kernel import GestureOutcome
from repro.errors import DbTouchError, RemoteError, ServiceError
from repro.remote.client import RemotePolicy
from repro.remote.network import LAN, WAN, SimulatedLink
from repro.remote.server import RemoteServer
from repro.remote.service import RemoteExplorationService
from repro.service import (
    ExplorationService,
    LocalExplorationService,
    MultiSessionServer,
    OutcomeEnvelope,
)
from repro.storage.column import Column
from repro.workloads.scenarios import sky_survey_scenario, sky_survey_script

ROWS = 200_000


def browse_script(view="m-view"):
    return GestureScript(
        name="browse",
        commands=[
            ShowColumn(object_name="m", view_name=view),
            ChooseAction(view=view, action=summary_action(k=10)),
            Slide(view=view, duration=1.0),
            ZoomIn(view=view),
            Slide(view=view, duration=0.8, start_fraction=0.4, end_fraction=0.5),
            Tap(view=view),
        ],
    )


class TestProtocol:
    def test_both_backends_satisfy_the_protocol(self):
        assert isinstance(LocalExplorationService(), ExplorationService)
        assert isinstance(RemoteExplorationService(), ExplorationService)

    def test_unknown_command_rejected(self):
        class Unknown:
            kind = "unknown"

        with pytest.raises(ServiceError):
            LocalExplorationService().execute(Unknown())


class TestLocalService:
    def test_envelope_mirrors_outcome_counters(self):
        service = LocalExplorationService()
        service.load_column("m", np.arange(ROWS))
        envelopes = service.run(browse_script())
        slide = envelopes[2]
        assert slide.backend == "local"
        assert isinstance(slide.payload, GestureOutcome)
        assert slide.entries_returned == slide.payload.entries_returned
        assert slide.tuples_examined == slide.payload.tuples_examined
        assert slide.max_touch_latency_s == slide.payload.max_touch_latency_s
        assert slide.remote_requests == 0 and slide.network_seconds == 0.0

    def test_show_commands_return_views(self):
        service = LocalExplorationService()
        service.load_table("t", {"a": [1, 2, 3], "b": [4, 5, 6]})
        envelope = service.execute(ShowTable(table_name="t"))
        assert envelope.payload.name == "t-view"
        assert envelope.object_name == "t"

    def test_schema_commands_execute(self):
        service = LocalExplorationService()
        service.load_table("t", {"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]})
        service.execute(ShowTable(table_name="t", view_name="tv", x=4.0))
        moved = service.execute(Pan(view="tv", dx_cm=2.0, dy_cm=1.0))
        assert moved.payload.gesture == "pan"
        split = service.execute(UngroupTable(table_view="tv"))
        assert set(split.payload.created_objects) == {"t_a", "t_b"}
        grouped = service.execute(
            GroupColumns(column_object_names=("t_a", "t_b"), table_name="regrouped", x=10.0)
        )
        assert grouped.payload.created_objects == ("regrouped",)

    def test_reset_clears_catalog_and_views(self):
        service = LocalExplorationService()
        service.load_column("m", np.arange(100))
        service.execute(ShowColumn(object_name="m"))
        service.reset()
        assert "m" not in service.catalog
        assert service.device.now == 0.0

    def test_envelope_wire_format_has_no_live_objects(self):
        service = LocalExplorationService()
        service.load_column("m", np.arange(1000))
        envelope = service.execute(ShowColumn(object_name="m"))
        wire = envelope.to_dict()
        assert wire["command_kind"] == "show-column"
        assert "payload" not in wire  # a View stays home
        slide = service.execute(Slide(view=envelope.view_name, duration=0.5))
        assert isinstance(slide.payload, GestureOutcome)
        assert "payload" not in slide.to_dict()
        # plain data is not a live object: an append's row count crosses
        append = service.execute(AppendCommand(object_name="m", values=(1, 2, 3)))
        assert append.to_dict()["payload"] == {"num_rows": 1003}
        assert OutcomeEnvelope.from_dict(append.to_dict()).payload == {"num_rows": 1003}
        assert OutcomeEnvelope.from_dict(slide.to_dict()).payload is None


class TestRemoteService:
    def _loaded(self, policy, **kwargs):
        service = RemoteExplorationService(policy=policy, network_profile=WAN, **kwargs)
        service.load_column("m", np.arange(ROWS, dtype=np.int64))
        return service

    @pytest.mark.parametrize("policy", list(RemotePolicy), ids=lambda p: p.value)
    def test_script_runs_under_every_policy(self, policy):
        service = self._loaded(policy)
        envelopes = service.run(browse_script())
        slides = [e for e in envelopes if e.command_kind == "slide"]
        assert all(e.backend == "remote" for e in envelopes)
        assert all(e.entries_returned > 0 for e in slides)
        if policy is RemotePolicy.LOCAL_ONLY:
            assert sum(e.remote_requests for e in envelopes) == 0
        if policy is RemotePolicy.REMOTE_EVERY_TOUCH:
            assert all(e.remote_requests > 0 for e in slides)
            assert all(e.network_seconds > 0 for e in slides)

    def test_hybrid_tap_refines_remotely_to_the_exact_value(self):
        service = self._loaded(RemotePolicy.HYBRID)
        service.execute(ShowColumn(object_name="m", view_name="v"))
        envelope = service.execute(Tap(view="v", fraction=0.5))
        assert envelope.remote_requests == 1
        assert envelope.entries_returned == 1

    def test_local_vs_remote_parity_on_hybrid_scan(self):
        """Same gestures, same device, same seed: both backends touch the
        same tuples and return the same number of entries."""
        script = GestureScript(
            commands=[
                ShowColumn(object_name="m", view_name="v"),
                Slide(view="v", duration=1.0),
                ZoomIn(view="v"),
                Slide(view="v", duration=0.8, start_fraction=0.4, end_fraction=0.5),
            ]
        )
        local = LocalExplorationService()
        local.load_column("m", np.arange(ROWS, dtype=np.int64))
        remote = self._loaded(RemotePolicy.HYBRID)
        local_envs = local.run(script)
        remote_envs = remote.run(GestureScript.from_json(script.to_json()))
        for local_env, remote_env in zip(local_envs, remote_envs):
            assert local_env.command_kind == remote_env.command_kind
            if local_env.command_kind != "slide":
                continue
            assert local_env.entries_returned == remote_env.entries_returned
            assert (
                local_env.payload.rowids_touched.tolist()
                == remote_env.payload.rowids_touched.tolist()
            )

    def test_remote_summary_values_track_local_summaries(self):
        """Hybrid summaries answer from samples: close to the local answer,
        not wildly off (the column is a linear ramp, so window means are
        predictable)."""
        service = self._loaded(RemotePolicy.HYBRID)
        service.execute(ShowColumn(object_name="m", view_name="v"))
        service.execute(ChooseAction(view="v", action=summary_action(k=10)))
        envelope = service.execute(Slide(view="v", duration=1.0))
        outcome = envelope.payload
        assert outcome.entries_returned > 0
        assert outcome.tuples_examined > 0

    def test_simulated_response_times_follow_the_policy(self):
        fast = self._loaded(RemotePolicy.HYBRID)
        slow = self._loaded(RemotePolicy.REMOTE_EVERY_TOUCH)
        for service in (fast, slow):
            service.execute(ShowColumn(object_name="m", view_name="v"))
            service.execute(Slide(view="v", duration=1.0))
        fast_latency = fast.client_for("v").stats.max_response_s
        slow_latency = slow.client_for("v").stats.max_response_s
        assert slow_latency >= WAN.round_trip_s
        assert fast_latency < WAN.round_trip_s

    def test_table_commands_rejected(self):
        service = self._loaded(RemotePolicy.HYBRID)
        with pytest.raises(RemoteError):
            service.execute(ShowTable(table_name="t"))
        with pytest.raises(RemoteError):
            service.execute(ShowColumn(object_name="m", column_name="a"))

    def test_unknown_view_rejected(self):
        service = self._loaded(RemotePolicy.HYBRID)
        with pytest.raises(RemoteError):
            service.execute(Slide(view="ghost"))

    def test_shared_server_multiple_device_sessions(self):
        """One server, several device-side services — the cloud shape."""
        server = RemoteServer()
        server.host_column(Column("m", np.arange(ROWS, dtype=np.int64)))
        services = [
            RemoteExplorationService(server=server, link=SimulatedLink(LAN))
            for _ in range(3)
        ]
        for service in services:
            envelopes = service.run(browse_script())
            assert sum(e.entries_returned for e in envelopes) > 0
        assert server.requests_served > 0

    def test_rotate_flips_slide_axis(self):
        service = self._loaded(RemotePolicy.LOCAL_ONLY)
        service.execute(ShowColumn(object_name="m", view_name="v"))
        service.execute(Rotate(view="v"))
        envelope = service.execute(Slide(view="v", duration=0.5))
        assert envelope.entries_returned > 0

    def test_scenario_script_runs_remotely(self):
        scenario = sky_survey_scenario(num_objects=50_000)
        service = RemoteExplorationService(policy=RemotePolicy.HYBRID)
        scenario.load_into(service)
        envelopes = service.run(sky_survey_script())
        assert sum(e.entries_returned for e in envelopes) > 0


class TestMultiSessionServer:
    def test_sessions_are_isolated(self):
        server = MultiSessionServer()
        first = server.open_session()
        second = server.open_session()
        server.load_column(first, "m", np.arange(10_000))
        server.load_column(second, "m", np.arange(5_000) * 2)
        server.execute(first, ShowColumn(object_name="m", view_name="v"))
        with pytest.raises(Exception):
            # the second session never showed anything: no view bleed
            server.execute(second, Slide(view="v"))
        assert "m" in server.service(first).catalog
        assert len(server.service(second).catalog.describe_all()) == 1

    def test_identical_sessions_report_identical_metrics(self):
        server = MultiSessionServer()
        script = browse_script()
        ids = []
        for _ in range(4):
            sid = server.open_session()
            server.load_column(sid, "m", np.arange(50_000))
            ids.append(sid)
        # interleave command-by-command across all sessions
        for index in range(len(script)):
            for sid in ids:
                server.execute(sid, script[index])
        entries = {server.metrics(sid).entries_returned for sid in ids}
        tuples_examined = {server.metrics(sid).tuples_examined for sid in ids}
        assert len(entries) == 1 and len(tuples_examined) == 1
        aggregate = server.aggregate_metrics()
        assert aggregate["sessions"] == 4.0
        assert aggregate["entries_returned"] == 4 * entries.pop()
        assert aggregate["commands"] == 4.0 * len(script)

    def test_session_lifecycle(self):
        server = MultiSessionServer()
        sid = server.open_session("alpha")
        assert server.session_ids == ["alpha"]
        with pytest.raises(ServiceError):
            server.open_session("alpha")
        metrics = server.close_session(sid)
        assert metrics.commands == 0
        assert len(server) == 0
        with pytest.raises(ServiceError):
            server.service("alpha")
        with pytest.raises(ServiceError):
            server.metrics("alpha")

    def test_index_stats_surface(self):
        from repro.core.actions import scan_action
        from repro.engine.filter import Comparison, Predicate

        server = MultiSessionServer(shared_index=True)
        server.load_shared_column("m", np.arange(60_000, dtype=np.int64))
        sid = server.open_session()
        server.execute(sid, ShowColumn(object_name="m", view_name="v"))
        server.execute(
            sid,
            ChooseAction(
                view="v",
                action=scan_action(Predicate(Comparison.BETWEEN, 1_000, upper=2_000)),
            ),
        )
        server.execute(sid, Slide(view="v", duration=0.5))
        assert server.index_stats()["crackers_live"] == 0  # a gesture builds nothing
        server.service(sid).select_where("v")  # the selection builds the index
        stats = server.index_stats()
        assert stats is not None
        assert stats["consultations"] == stats["crackers_built"] == 1
        assert stats["crackers_live"] == 1
        assert stats["cracker_bytes"] >= 60_000 * 4
        assert stats["cracker_bytes"] == server.index_manager.index_bytes
        assert stats == server.service(sid).index_stats()
        # the parity surface stays index-free
        assert set(server.metrics(sid).counters_snapshot()) == {
            "commands",
            "entries_returned",
            "tuples_examined",
        }

    def test_index_stats_sums_private_managers(self):
        server = MultiSessionServer()
        first = server.open_session()
        second = server.open_session()
        for sid in (first, second):
            server.load_column(sid, "m", np.arange(10_000, dtype=np.int64))
            server.execute(sid, ShowColumn(object_name="m", view_name="v"))
        stats = server.index_stats()
        assert stats is not None
        # two private managers, nothing selected yet: counters sum to zero
        assert stats["consultations"] == stats["crackers_built"] == 0

    def test_inline_submit_returns_a_resolved_future(self):
        """With no pool ``submit`` runs the command now: its future is done,
        carries what ``execute`` returns for the same sequence, and its
        ``result()`` re-raises the typed error ``execute`` raises."""
        server = MultiSessionServer()
        submitted, executed = server.open_session(), server.open_session()
        for sid in (submitted, executed):
            server.load_column(sid, "m", np.arange(50_000))
        for command in browse_script():
            future = server.submit(submitted, command)
            assert future.done()
            envelope = future.result().to_dict()
            expected = server.execute(executed, command).to_dict()
            for wire in (envelope, expected):
                del wire["max_touch_latency_s"]  # wall time
            assert envelope == expected
        bad = Slide(view="never-shown", duration=0.5)
        with pytest.raises(DbTouchError) as raised:
            server.execute(executed, bad)
        future = server.submit(submitted, bad)
        assert future.done()
        with pytest.raises(type(raised.value)) as again:
            future.result()
        assert str(again.value) == str(raised.value)
        counters = server.metrics(submitted).counters_snapshot()
        assert counters == server.metrics(executed).counters_snapshot()

    def test_remote_factory(self):
        def factory():
            service = RemoteExplorationService(network_profile=LAN)
            service.load_column("m", np.arange(20_000, dtype=np.int64))
            return service

        server = MultiSessionServer(service_factory=factory)
        sid = server.open_session()
        envelopes = server.run(sid, browse_script())
        assert sum(e.entries_returned for e in envelopes) > 0
        assert server.aggregate_metrics()["commands"] == float(len(envelopes))


class TestTapSlideParity:
    def test_tap_does_not_perturb_the_following_slide(self):
        """A tap must leave slide-tracking state untouched on both backends,
        otherwise a slide starting where the tap landed loses its first touch."""
        script = GestureScript(
            commands=[
                ShowColumn(object_name="m", view_name="v"),
                Tap(view="v", fraction=0.5),
                Slide(view="v", duration=0.5, start_fraction=0.5, end_fraction=1.0),
            ]
        )
        local = LocalExplorationService()
        local.load_column("m", np.arange(ROWS, dtype=np.int64))
        remote = RemoteExplorationService(policy=RemotePolicy.HYBRID)
        remote.load_column("m", np.arange(ROWS, dtype=np.int64))
        local_envs = local.run(script)
        remote_envs = remote.run(script)
        assert local_envs[-1].entries_returned == remote_envs[-1].entries_returned
        assert (
            local_envs[-1].payload.rowids_touched.tolist()
            == remote_envs[-1].payload.rowids_touched.tolist()
        )
