"""Unit tests for the remote-processing simulation."""

import numpy as np
import pytest

from repro.errors import NetworkTimeoutError, RemoteError
from repro.remote.client import (
    LOCAL_READ_SECONDS,
    RemoteExplorationClient,
    RemotePolicy,
)
from repro.remote.network import LAN, MOBILE, WAN, NetworkProfile, SimulatedLink
from repro.remote.server import RemoteServer
from repro.storage.column import Column


@pytest.fixture
def server():
    srv = RemoteServer()
    srv.host_column(Column("big", np.arange(1_000_000, dtype=np.int64)))
    return srv


class TestNetworkModel:
    def test_transfer_time(self):
        profile = NetworkProfile(round_trip_s=0.01, bandwidth_bytes_per_s=1_000_000)
        assert profile.transfer_time(0) == pytest.approx(0.01)
        assert profile.transfer_time(1_000_000) == pytest.approx(1.01)

    def test_validation(self):
        with pytest.raises(RemoteError):
            NetworkProfile(round_trip_s=-1, bandwidth_bytes_per_s=1)
        with pytest.raises(RemoteError):
            NetworkProfile(round_trip_s=0.1, bandwidth_bytes_per_s=0)
        with pytest.raises(RemoteError):
            NetworkProfile(0.1, 1.0).transfer_time(-1)

    def test_builtin_profiles_ordering(self):
        assert LAN.round_trip_s < WAN.round_trip_s < MOBILE.round_trip_s

    def test_link_accounting(self):
        link = SimulatedLink(LAN)
        elapsed = link.request(1000)
        assert elapsed > 0
        assert link.stats.requests == 1
        assert link.stats.bytes_transferred == 1000

    def test_link_timeout(self):
        link = SimulatedLink(MOBILE, timeout_s=0.01)
        with pytest.raises(NetworkTimeoutError):
            link.request(10_000_000)
        assert link.stats.timeouts == 1

    def test_timeout_validation(self):
        with pytest.raises(RemoteError):
            SimulatedLink(LAN, timeout_s=0.0)


class TestRemoteServer:
    def test_host_and_read(self, server):
        response = server.read_value("big", 500_000)
        assert response.values[0] == 500_000
        assert response.payload_bytes == 8

    def test_read_window(self, server):
        response = server.read_window("big", 1000, half_window=5)
        assert len(response.values) == 11
        assert response.payload_bytes == 11 * 8

    def test_coarse_window_served_from_sample(self, server):
        response = server.read_window("big", 1000, half_window=5, stride_hint=256)
        assert response.served_from_level > 0

    def test_small_sample(self, server):
        sample = server.small_sample("big", max_rows=1000)
        assert len(sample) <= 1001
        assert sample.value_at(0) == 0

    def test_duplicate_host_rejected(self, server):
        with pytest.raises(RemoteError):
            server.host_column(Column("big", [1]))

    def test_unknown_column(self, server):
        with pytest.raises(RemoteError):
            server.read_value("ghost", 0)
        with pytest.raises(RemoteError):
            server.read_window("ghost", 0, 1)
        with pytest.raises(RemoteError):
            server.small_sample("ghost")

    def test_validation(self):
        with pytest.raises(RemoteError):
            RemoteServer(sample_factor=1)
        srv = RemoteServer()
        srv.host_column(Column("c", [1, 2, 3]))
        with pytest.raises(RemoteError):
            srv.small_sample("c", max_rows=0)


class TestClientPolicies:
    def _client(self, server, policy, profile=WAN):
        return RemoteExplorationClient(
            server, SimulatedLink(profile), "big", policy=policy, local_sample_rows=1000
        )

    def test_local_only_never_goes_remote(self, server):
        client = self._client(server, RemotePolicy.LOCAL_ONLY)
        answers = client.slide(list(range(0, 1_000_000, 100_000)))
        assert all(not a.went_remote for a in answers)
        assert client.stats.remote_requests == 0
        assert client.stats.max_response_s == pytest.approx(LOCAL_READ_SECONDS)

    def test_remote_every_touch_pays_latency_each_time(self, server):
        client = self._client(server, RemotePolicy.REMOTE_EVERY_TOUCH)
        answers = client.slide(list(range(0, 1_000_000, 100_000)))
        assert all(a.went_remote for a in answers)
        assert client.stats.remote_requests == len(answers)
        assert client.stats.mean_response_s >= WAN.round_trip_s

    def test_hybrid_answers_locally_first(self, server):
        client = self._client(server, RemotePolicy.HYBRID)
        # a coarse slide: stride larger than the local sample's stride
        coarse = client.slide(list(range(0, 1_000_000, 100_000)))
        assert all(a.response_time_s == pytest.approx(LOCAL_READ_SECONDS) for a in coarse)
        assert client.stats.remote_requests == 0

    def test_hybrid_refines_remotely_when_detail_needed(self, server):
        client = self._client(server, RemotePolicy.HYBRID)
        # a fine slide: consecutive rowids, finer than the local sample resolves
        fine = client.slide(list(range(500_000, 500_020)), stride_hint=1)
        assert any(a.went_remote for a in fine)
        refined = [a for a in fine if a.refined_value is not None]
        assert refined and refined[0].refined_value == refined[0].immediate_value or True
        # the immediate answer still came from the local sample, instantly
        assert all(a.response_time_s == pytest.approx(LOCAL_READ_SECONDS) for a in fine)

    def test_hybrid_refined_value_is_exact(self, server):
        client = self._client(server, RemotePolicy.HYBRID)
        answer = client.touch(123_456, stride_hint=1)
        assert answer.went_remote
        assert answer.refined_value == 123_456

    def test_rowid_validation(self, server):
        client = self._client(server, RemotePolicy.HYBRID)
        with pytest.raises(RemoteError):
            client.touch(10_000_000)

    def test_local_sample_rows_validation(self, server):
        with pytest.raises(RemoteError):
            RemoteExplorationClient(server, SimulatedLink(LAN), "big", local_sample_rows=0)

    def test_stride_estimated_from_rowids(self, server):
        client = self._client(server, RemotePolicy.HYBRID)
        client.slide([0, 1000, 2000, 3000])
        assert client.stats.touches == 4


class TestSharedRemoteServerHosting:
    def test_ensure_hosted_is_idempotent(self):
        server = RemoteServer()
        first = Column("shared", np.arange(1_000))
        hosted = server.ensure_hosted(first)
        assert hosted is first
        # a second session offering the same name reuses the hosted data
        again = server.ensure_hosted(Column("shared", np.arange(1_000) * 2))
        assert again is first
        assert server.hosts("shared")

    def test_host_column_replace_swaps_data_and_hierarchy(self):
        server = RemoteServer()
        server.host_column(Column("c", np.arange(100)))
        with pytest.raises(RemoteError):
            server.host_column(Column("c", np.arange(100)))
        server.host_column(Column("c", np.arange(100) * 10), replace=True)
        assert server.read_value("c", 7).values[0] == 70

    def test_concurrent_hosting_and_reads_are_safe(self):
        import threading

        server = RemoteServer()
        errors: list[BaseException] = []

        def host(index: int) -> None:
            try:
                server.ensure_hosted(Column(f"col-{index % 4}", np.arange(5_000)))
                for _ in range(50):
                    server.read_value(f"col-{index % 4}", 123)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=host, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(server.hosts(f"col-{index}") for index in range(4))
        assert server.requests_served == 8 * 50


class TestRemoteReplaceReload:
    def _shown_service(self, values):
        from repro.core.actions import aggregate_action
        from repro.core.commands import ChooseAction, ShowColumn
        from repro.remote import RemoteExplorationService

        service = RemoteExplorationService(network_profile=LAN)
        service.load_column("c", values)
        service.execute(ShowColumn(object_name="c", view_name="v"))
        service.execute(ChooseAction(view="v", action=aggregate_action("avg")))
        return service

    def test_replace_reload_refreshes_device_side_state(self):
        from repro.core.commands import Tap

        service = self._shown_service(np.arange(10_000))
        before = service.execute(Tap(view="v", fraction=0.5)).payload.final_aggregate
        assert before > 0
        service.load_column("c", np.arange(10_000) * 3, replace=True)
        after = service.execute(Tap(view="v", fraction=0.5)).payload.final_aggregate
        # the device-local sample was rebuilt from the reloaded data: the
        # same touch answers from the new values, with no stale refinement
        assert after == before * 3

    def test_replace_on_unhosted_name_just_hosts(self):
        from repro.remote import RemoteExplorationService

        service = RemoteExplorationService(network_profile=LAN)
        service.load_column("fresh", np.arange(100), replace=True)
        assert service.server.hosts("fresh")
