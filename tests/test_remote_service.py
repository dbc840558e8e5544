"""The remote backend after its move to ``repro.remote``.

Its device side is the local backend's own front half, so these tests pin
what that reuse must preserve: the three import spellings, front-half
parity with the local backend, the "holds no base data" contract serving
layers rely on, ``reset()``, and the re-bind after a reload or an append.
"""

import subprocess
import sys

import numpy as np
import pytest

import repro
import repro.remote
import repro.service
from repro.core.actions import aggregate_action
from repro.core.commands import (
    AppendCommand,
    ChooseAction,
    Pan,
    Rotate,
    ShowColumn,
    Slide,
    ZoomIn,
    ZoomOut,
)
from repro.errors import RemoteError
from repro.remote.network import LAN
from repro.service import LocalExplorationService, MultiSessionServer

VIEW = "v"


class TestOneHome:
    def test_three_import_spellings_are_one_class(self):
        from repro.remote import RemoteExplorationService

        assert RemoteExplorationService is repro.RemoteExplorationService
        assert RemoteExplorationService is repro.remote.service.RemoteExplorationService
        assert not hasattr(repro.service, "RemoteExplorationService")
        assert RemoteExplorationService.__module__ == "repro.remote.service"

    @pytest.mark.parametrize(
        "first, second",
        [("repro.service", "repro.remote"), ("repro.remote", "repro.service")],
    )
    def test_either_import_order_works_in_a_fresh_interpreter(self, first, second):
        code = (
            f"import {first}, {second}, repro; "
            "assert repro.remote.RemoteExplorationService is repro.RemoteExplorationService"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_service_module_still_rejects_unknown_names(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.service.no_such_name
        with pytest.raises(ImportError):
            from repro.service import no_such_name  # noqa: F401

    def test_service_module_does_not_import_the_remote_package(self):
        source = open(repro.service.__file__).read()
        assert "\nfrom repro.remote" not in source and "\nimport repro.remote" not in source


def front_half_script():
    return [
        ShowColumn(object_name="c", view_name=VIEW, height_cm=7.0, width_cm=1.5, x=1.0, y=2.0),
        ChooseAction(view=VIEW, action=aggregate_action("avg")),
        ZoomIn(view=VIEW),
        Pan(view=VIEW, dx_cm=3.0, dy_cm=1.0),
        Rotate(view=VIEW),
        ZoomOut(view=VIEW),
    ]


class TestFrontHalfParity:
    def test_local_and_remote_place_zoom_pan_and_rotate_alike(self):
        data = np.arange(50_000)
        local = LocalExplorationService(seed=3)
        remote = repro.RemoteExplorationService(seed=3, network_profile=LAN)
        local.load_column("c", data)
        remote.load_column("c", data)
        for command in front_half_script():
            ours, theirs = remote.execute(command), local.execute(command)
            assert ours.backend == "remote" and theirs.backend == "local"
            assert ours.view_name == theirs.view_name == VIEW
            assert ours.duration_s == theirs.duration_s, command.kind
            if isinstance(command, Pan):
                assert ours.payload == theirs.payload
                # the remote pan envelope names its object, the local one none
                assert ours.object_name == "c" and theirs.object_name is None
        here, there = remote.device.view(VIEW), local.device.view(VIEW)
        assert here.frame == there.frame
        assert here.properties.orientation == there.properties.orientation == "horizontal"
        assert here.properties.num_tuples == there.properties.num_tuples == data.size
        assert remote.device.now == local.device.now > 0.0


class TestHoldsNoBaseData:
    def test_remote_session_is_handed_no_shared_storage(self):
        server = MultiSessionServer(
            service_factory=lambda: repro.RemoteExplorationService(network_profile=LAN)
        )
        server.load_shared_column("shared", np.arange(1_000))
        sid = server.open_session()
        service = server.service(sid)
        with pytest.raises(RemoteError):
            server.execute(sid, ShowColumn(object_name="shared"))
        for probe in (
            "catalog",
            "kernel",
            "load_table",
            "select_where",
            "adopt_index_manager",
            "merge_index_tails",
        ):
            assert not hasattr(service, probe), probe


class TestReset:
    def test_reset_keeps_hosted_data_and_drops_the_device_side(self):
        service = repro.RemoteExplorationService(
            policy=repro.remote.RemotePolicy.REMOTE_EVERY_TOUCH, network_profile=LAN
        )
        service.load_column("c", np.arange(20_000))
        service.execute(ShowColumn(object_name="c", view_name=VIEW))
        service.execute(Slide(view=VIEW, duration=0.5))
        assert service.link.stats.requests > 0 and service.device.now > 0.0
        service.reset()
        assert service.server.hosts("c")
        assert service.link.stats.requests == 0 and service.network_seconds == 0.0
        assert service.device.now == 0.0
        with pytest.raises(RemoteError):
            service.execute(Slide(view=VIEW, duration=0.5))
        with pytest.raises(RemoteError):
            service.client_for(VIEW)
        # the hosted data is still there to be shown again
        service.execute(ShowColumn(object_name="c", view_name=VIEW))
        assert service.execute(Slide(view=VIEW, duration=0.5)).entries_returned > 0


def shown_service(rows):
    service = repro.RemoteExplorationService(network_profile=LAN, local_sample_rows=1_000)
    service.load_column("c", np.arange(rows, dtype=np.int64))
    service.execute(ShowColumn(object_name="c", view_name=VIEW))
    service.execute(ChooseAction(view=VIEW, action=aggregate_action("max")))
    return service


class TestRebind:
    def _assert_rebound(self, service, rows):
        properties = service.device.view(VIEW).properties
        column = service.server.column("c")
        assert len(column) == rows
        assert properties.num_tuples == rows
        assert properties.size_bytes == column.size_bytes
        client = service.client_for(VIEW)
        assert client.stats.touches == 0  # a fresh client, not the old one
        assert len(client.local_sample) == len(service.server.small_sample("c", 1_000))
        # stride tracking starts from scratch: the next slide is answered
        # exactly as the first slide of a service that never saw the old data
        again = service.execute(Slide(view=VIEW, duration=0.5))
        fresh = shown_service(rows).execute(Slide(view=VIEW, duration=0.5))
        assert again.remote_requests == fresh.remote_requests == 1  # stride 1 refines
        assert again.payload.rowids_touched.tolist() == fresh.payload.rowids_touched.tolist()
        assert again.payload.final_aggregate == fresh.payload.final_aggregate

    def test_replace_reload_with_a_different_length(self):
        service = shown_service(40_000)
        old_client = service.client_for(VIEW)
        service.execute(Slide(view=VIEW, duration=0.5))
        service.load_column("c", np.arange(90_000, dtype=np.int64), replace=True)
        assert service.client_for(VIEW) is not old_client
        self._assert_rebound(service, 90_000)

    def test_append_command_grows_the_shown_view(self):
        service = shown_service(40_000)
        service.execute(Slide(view=VIEW, duration=0.5))
        envelope = service.execute(
            AppendCommand(object_name="c", values=tuple(range(40_000, 65_000)))
        )
        assert envelope.payload == {"num_rows": 65_000}
        self._assert_rebound(service, 65_000)
