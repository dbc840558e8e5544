"""Integration tests for the sharded multi-process serving tier.

One module-scoped snapshot + server fixture serves most tests (spawning
worker processes is the expensive part); the lifecycle tests that kill
workers or drain the fleet build their own private servers so they cannot
poison the shared one.
"""

import asyncio
import json
import multiprocessing
import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro import (
    ChooseAction,
    GestureScript,
    ShowColumn,
    Slide,
    summary_action,
)
from repro.core.session import ExplorationSession
from repro.errors import (
    AdmissionError,
    DbTouchError,
    ProtocolError,
    ServiceError,
    SnapshotError,
    WorkerCrashedError,
)
from repro.obs.trace import TraceConfig
from repro.persist.diskstore import DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.serving import (
    PROTOCOL_VERSION,
    FrameDecoder,
    Response,
    ShardManager,
    ShardedClient,
    ShardedServer,
    ShardedServerConfig,
    WorkerConfig,
    decode_frame,
    encode_frame,
    shard_for_session,
)
from repro.serving.protocol import PIPE_MAX_BYTES, answer_body, pipe_frame, pipe_messages
from repro.storage.column import Column

NUM_ROWS = 20_000


def make_script(view: str = "v") -> GestureScript:
    return GestureScript(
        [
            ShowColumn(object_name="telemetry", view_name=view, height_cm=10.0),
            ChooseAction(view=view, action=summary_action(k=10)),
            Slide(view=view, duration=1.0, start_fraction=0.1, end_fraction=0.7),
            Slide(view=view, duration=0.8, start_fraction=0.7, end_fraction=0.3),
        ]
    )


@pytest.fixture(scope="module")
def snapshot_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("sharded-snap")
    rng = np.random.default_rng(17)
    catalog = StoreCatalog(DiskColumnStore(root))
    catalog.persist_column(Column("telemetry", rng.normal(size=NUM_ROWS)))
    return root


def server_config(snapshot_root, num_workers: int = 2, **kwargs) -> ShardedServerConfig:
    return ShardedServerConfig(
        num_workers=num_workers,
        worker=WorkerConfig(snapshot_path=str(snapshot_root), scheduler_workers=2),
        **kwargs,
    )


@pytest.fixture(scope="module")
def server(snapshot_root):
    with ShardedServer(server_config(snapshot_root)) as running:
        yield running


class TestConsistentHashing:
    def test_stable_and_in_range(self):
        for n in (1, 2, 4, 7):
            for sid in ("alice", "bob", "session-123", ""):
                shard = shard_for_session(sid, n)
                assert 0 <= shard < n
                assert shard == shard_for_session(sid, n)  # stable across calls

    def test_spreads_sessions(self):
        shards = {shard_for_session(f"user-{i}", 4) for i in range(64)}
        assert shards == {0, 1, 2, 3}

    def test_rejects_empty_fleet(self):
        with pytest.raises(ServiceError):
            shard_for_session("x", 0)


class TestReadOnlySnapshot:
    def test_open_read_only_refuses_mutation(self, snapshot_root):
        catalog = StoreCatalog.open_read_only(snapshot_root)
        assert catalog.read_only
        assert catalog.column_names == ["telemetry"]
        with pytest.raises(SnapshotError, match="read-only"):
            catalog.persist_column(Column("x", np.arange(10)))
        with pytest.raises(SnapshotError, match="read-only"):
            catalog.persist_hierarchy("telemetry")

    def test_open_read_only_requires_manifest(self, tmp_path):
        with pytest.raises(SnapshotError, match="manifest"):
            StoreCatalog.open_read_only(tmp_path / "nowhere")

    def test_many_attachers_share_one_snapshot(self, snapshot_root):
        first = StoreCatalog.open_read_only(snapshot_root)
        second = StoreCatalog.open_read_only(snapshot_root)
        a = first.load_column("telemetry")
        b = second.load_column("telemetry")
        np.testing.assert_array_equal(a.values[:100], b.values[:100])


class TestWireServing:
    def test_hello_reports_topology(self, server):
        with ShardedClient("127.0.0.1", server.port, session_id="hello-1") as client:
            hello = client.hello()
        assert hello["protocol"] == PROTOCOL_VERSION == 2
        assert hello["num_workers"] == 2
        assert hello["alive_workers"] == [0, 1]

    def test_script_over_the_wire(self, server):
        with ShardedClient("127.0.0.1", server.port, session_id="wire-1") as client:
            envelopes = client.run(make_script())
            counters = client.close_session()
        assert len(envelopes) == 4
        assert envelopes[2].entries_returned > 0
        assert counters["commands"] == 4
        assert counters["entries_returned"] == sum(e.entries_returned for e in envelopes)

    def test_execute_single_commands(self, server):
        with ShardedClient("127.0.0.1", server.port, session_id="wire-2") as client:
            for command in make_script():
                envelope = client.execute(command)
                assert envelope.command_kind == command.kind
            client.close_session()

    def test_exploration_session_works_unchanged(self, server):
        with ShardedClient("127.0.0.1", server.port, session_id="wire-3") as client:
            session = ExplorationSession(service=client)
            session.show_column("telemetry", view_name="v", height_cm=10.0)
            session.choose_summary("v", k=10)
            outcome = session.slide("v", duration=1.0, start_fraction=0.2, end_fraction=0.8)
            assert outcome.entries_returned > 0
            summary = session.summary()
            assert summary.gestures == 1
            assert summary.entries_returned == outcome.entries_returned
            client.close_session()

    def test_load_column_by_value(self, server):
        with ShardedClient("127.0.0.1", server.port, session_id="wire-4") as client:
            reply = client.load_column("mine", [float(i) for i in range(500)])
            assert reply == {"name": "mine", "rows": 500}
            envelope = client.execute(ShowColumn(object_name="mine", view_name="m"))
            assert envelope.object_name == "mine"
            client.close_session()

    def test_sessions_are_isolated(self, server):
        with (
            ShardedClient("127.0.0.1", server.port, session_id="iso-a") as a,
            ShardedClient("127.0.0.1", server.port, session_id="iso-b") as b,
        ):
            a.load_column("private", [1.0, 2.0, 3.0])
            a.execute(ShowColumn(object_name="private", view_name="p"))
            with pytest.raises(DbTouchError):
                b.execute(ShowColumn(object_name="private", view_name="p"))
            a.close_session()
            b.close_session()

    def test_counters_match_serial_replay(self, server):
        """The parity contract: wire counters == in-process serial counters."""
        from repro.core.kernel import KernelConfig
        from repro.service import LocalExplorationService

        script = make_script()
        serial = LocalExplorationService(config=KernelConfig(latency_budget_s=1e6))
        snapshot = StoreCatalog.open_read_only(server.config.worker.snapshot_path)
        snapshot.attach(serial.catalog)
        expected = serial.run(script)

        with ShardedClient("127.0.0.1", server.port, session_id="parity-1") as client:
            got = client.run(script)
            client.close_session()
        for wire, local in zip(got, expected):
            assert wire.entries_returned == local.entries_returned
            assert wire.tuples_examined == local.tuples_examined

    def test_stats_aggregates_across_workers(self, server):
        sessions = [f"stats-{i}" for i in range(6)]
        shards_used = {shard_for_session(s, 2) for s in sessions}
        assert shards_used == {0, 1}  # the fixture sessions span both shards
        clients = [
            ShardedClient("127.0.0.1", server.port, session_id=sid) for sid in sessions
        ]
        try:
            for client in clients:
                client.run(make_script())
            stats = clients[0].stats()
            assert set(stats["sessions"]) >= set(sessions)
            for sid in sessions:
                assert stats["sessions"][sid]["commands"] == 4
            assert stats["alive_workers"] == [0, 1]
            assert set(stats["workers"]) == {"0", "1"}
            # the adaptive-index surface rides along, key-summed per shard
            assert isinstance(stats["index"], dict)
            assert {"consultations", "tail_merges", "cracker_bytes"} <= set(
                stats["index"]
            )
            for worker_report in stats["workers"].values():
                assert "index" in worker_report
        finally:
            for client in clients:
                client.close_session()
                client.close()

    def test_typed_errors_cross_the_wire(self, server):
        with ShardedClient("127.0.0.1", server.port, session_id="err-1") as client:
            with pytest.raises(DbTouchError, match="no data object"):
                client.execute(Slide(view="ghost", duration=0.5))
            # the session (and connection) survive the failed gesture
            envelope = client.execute(
                ShowColumn(object_name="telemetry", view_name="v")
            )
            assert envelope.command_kind == "show-column"
            client.close_session()

    def test_reset_recreates_session(self, server):
        with ShardedClient("127.0.0.1", server.port, session_id="reset-1") as client:
            client.run(make_script())
            client.reset()
            # fresh session: the old view is gone
            with pytest.raises(DbTouchError):
                client.execute(Slide(view="v", duration=0.5))
            client.close_session()


class TestAnswerBytes:
    """Every frame the front door writes is ``encode_frame`` of its own
    decoded :class:`Response`, id first, whichever process encoded it."""

    @staticmethod
    def canonical(line: bytes) -> Response:
        response = Response.from_dict(decode_frame(line))
        assert line.startswith(b'{"id":%d,"ok":' % response.id), line
        assert line == encode_frame(response.to_dict())
        return response

    def ask(self, conn, lines, frame: dict, answers: int = 1) -> list[Response]:
        conn.sendall(encode_frame(frame))
        return [self.canonical(lines.readline()) for _ in range(answers)]

    def test_execute_error_and_script_frames(self, server):
        sid = "bytes-1"

        def execute(request_id: int, command) -> dict:
            return {
                "id": request_id,
                "verb": "execute",
                "session": sid,
                "payload": {"command": command.to_dict()},
            }

        script = make_script("w")
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as conn:
            lines = conn.makefile("rb")
            (opened,) = self.ask(conn, lines, {"id": 1, "verb": "open-session", "session": sid})
            assert opened.ok and opened.payload["session"] == sid
            (shown,) = self.ask(conn, lines, execute(2, ShowColumn(object_name="telemetry")))
            assert shown.ok and shown.payload["envelope"]["command_kind"] == "show-column"
            (failed,) = self.ask(conn, lines, execute(3, Slide(view="ghost", duration=0.5)))
            assert not failed.ok and "ghost" in failed.error["message"]
            run = {"id": 4, "verb": "run-script", "session": sid}
            run["payload"] = {"script": script.to_dict()}
            frames = self.ask(conn, lines, run, answers=len(script) + 1)
            assert [frame.id for frame in frames] == [4] * (len(script) + 1)
            assert [frame.payload.get("seq") for frame in frames[:-1]] == list(range(len(script)))
            assert all(frame.payload["partial"] for frame in frames[:-1])
            assert frames[-1].payload == {"done": True, "total": len(script)}
            (closed,) = self.ask(conn, lines, {"id": 5, "verb": "close-session", "session": sid})
            assert closed.payload["counters"]["commands"] == 1 + len(script)

    def test_an_answer_over_the_frame_bound_is_refused_by_id(self, snapshot_root):
        config = server_config(snapshot_root, num_workers=1, max_frame_bytes=240)
        with (
            ShardedServer(config) as fleet,
            socket.create_connection(("127.0.0.1", fleet.port), timeout=10) as conn,
        ):
            lines = conn.makefile("rb")
            self.ask(conn, lines, {"id": 1, "verb": "open-session", "session": "tiny"})
            show = ShowColumn(object_name="telemetry", view_name="v").to_dict()
            request = {"id": 2, "verb": "execute", "session": "tiny", "payload": {"command": show}}
            assert len(encode_frame(request)) <= 240  # the request fits, its answer does not
            (refused,) = self.ask(conn, lines, request)
            assert not refused.ok and refused.error["kind"] == "frame-too-large"
            script = {"id": 3, "verb": "run-script", "session": "tiny"}
            script["payload"] = {"script": GestureScript([Slide(view="v", duration=0.1)]).to_dict()}
            partial, done = self.ask(conn, lines, script, answers=2)
            assert partial.id == 3 and partial.error["kind"] == "frame-too-large"
            assert done.payload == {"done": True, "total": 1}
            (alive,) = self.ask(conn, lines, {"id": 4, "verb": "hello"})
            assert alive.ok and alive.payload["alive_workers"] == [0]


class TestFrontDoorFuzz:
    """Hostile bytes on a live socket: typed replies, workers untouched."""

    def raw(self, server, payload: bytes, timeout: float = 10.0) -> bytes:
        with socket.create_connection(("127.0.0.1", server.port), timeout=timeout) as sock:
            sock.sendall(payload)
            try:
                return sock.recv(1 << 16)
            except TimeoutError:
                return b""  # keepalive-only frames legitimately get no reply

    def test_binary_garbage_gets_typed_reply(self, server):
        reply = self.raw(server, b"\x00\xff\xfe binary trash\n")
        assert b'"kind":"malformed-frame"' in reply

    def test_bad_json_gets_typed_reply(self, server):
        reply = self.raw(server, b"{this is not json}\n")
        assert b'"kind":"malformed-frame"' in reply

    def test_non_object_frame_gets_typed_reply(self, server):
        reply = self.raw(server, b"[1, 2, 3]\n")
        assert b'"kind":"malformed-frame"' in reply

    def test_oversized_frame_gets_typed_reply(self, server):
        reply = self.raw(server, b"x" * (server.config.max_frame_bytes + 2))
        assert b'"kind":"frame-too-large"' in reply

    def test_unknown_verb_answered_by_id(self, server):
        reply = self.raw(server, b'{"id": 41, "verb": "explode"}\n')
        assert b'"id":41' in reply and b'"kind":"unknown-verb"' in reply

    def test_missing_session_gets_typed_reply(self, server):
        reply = self.raw(server, b'{"id": 7, "verb": "execute"}\n')
        assert b'"id":7' in reply and b'"ok":false' in reply

    def test_malformed_command_payload_gets_typed_reply(self, server):
        frame = b'{"id": 8, "verb": "execute", "session": "fz", "payload": {"command": 3}}\n'
        reply = self.raw(server, frame)
        assert b'"id":8' in reply and b'"ok":false' in reply

    def test_nesting_past_the_stack_gets_typed_reply(self, server):
        nested = b"[" * 100_000 + b"]" * 100_000  # past the recursion limit, within the bound
        frame = b'{"id": 9, "verb": "hello", "payload": {"x": %b}}\n' % nested
        assert b'"kind":"malformed-frame"' in self.raw(server, frame)

    def test_workers_survive_the_whole_fuzz_barrage(self, server):
        attacks = [
            b"\n\n\n",
            b'{"id": true, "verb": "hello"}\n',
            b'{"id": -3, "verb": "hello"}\n',
            b'{"id": 1, "verb": 9}\n',
            b'{"verb": "hello"}\n',
            b'{"id": 2, "verb": "run-script", "session": "fz", "payload": {"script": []}}\n',
            b'{"id": 3, "verb": "load-column", "session": "fz", "payload": {"name": 5}}\n',
        ]
        for attack in attacks:
            self.raw(server, attack, timeout=2.0)
        # after all of it: both workers alive, normal service continues
        with ShardedClient("127.0.0.1", server.port, session_id="post-fuzz") as client:
            assert client.hello()["alive_workers"] == [0, 1]
            assert len(client.run(make_script())) == 4
            client.close_session()

    def test_malformed_drain_timeout_is_refused_and_nothing_drains(self, snapshot_root):
        # a private fleet: where a bad timeout does start a drain, the
        # shared server would refuse every later test's work
        bad_timeouts = [b'"soon"', b"[1]", b"true", b"NaN", b"-1", b"1e999"]
        with (
            ShardedServer(server_config(snapshot_root, num_workers=1)) as fleet,
            socket.create_connection(("127.0.0.1", fleet.port), timeout=10.0) as sock,
        ):
            lines = sock.makefile("rb")
            for request_id, timeout in enumerate(bad_timeouts, start=1):
                sock.sendall(
                    b'{"id": %d, "verb": "drain", "payload": {"timeout": %s}}\n'
                    % (request_id, timeout)
                )
                reply = json.loads(lines.readline())
                assert reply["id"] == request_id and not reply["ok"], reply
                assert reply["error"]["kind"] == "malformed-frame", reply
            # same socket, next request: served, and no drain was started
            sock.sendall(b'{"id": 99, "verb": "hello"}\n')
            assert json.loads(lines.readline())["id"] == 99
            with ShardedClient("127.0.0.1", fleet.port, session_id="post-drain") as client:
                assert len(client.run(make_script())) == 4
                client.close_session()


class TestUnencodableRequests:
    """JSON decodes ``NaN`` but the front door cannot encode it: a request
    the front door must re-encode is refused by id, sends nothing, and gives
    back its admission slot and its root span."""

    @staticmethod
    def traced_fleet(snapshot_root) -> ShardedServer:
        config = server_config(snapshot_root, num_workers=1, max_inflight=1, tracing=TraceConfig())
        return ShardedServer(config)

    @staticmethod
    def ask(sock, lines, frame: bytes) -> dict:
        sock.sendall(frame + b"\n")
        return json.loads(lines.readline())

    def test_a_traced_execute_is_refused_and_releases_its_slot(self, snapshot_root):
        show = json.dumps({"command": ShowColumn(object_name="telemetry").to_dict()})
        with (
            self.traced_fleet(snapshot_root) as fleet,
            socket.create_connection(("127.0.0.1", fleet.port), timeout=10.0) as sock,
        ):
            lines = sock.makefile("rb")
            opened = self.ask(sock, lines, b'{"id": 1, "verb": "open-session", "session": "n"}')
            assert opened["ok"], opened
            for request_id in (2, 3):  # each would hold the only slot for good
                frame = b'{"id":%d,"verb":"execute","session":"n","payload":{"command":NaN}}'
                refused = self.ask(sock, lines, frame % request_id)
                assert refused["id"] == request_id and not refused["ok"], refused
                assert refused["error"]["kind"] == "malformed-frame", refused
            frame = b'{"id": 4, "verb": "execute", "session": "n", "payload": %b}'
            shown = self.ask(sock, lines, frame % show.encode())
            assert shown["id"] == 4 and shown["ok"], shown
            assert fleet.inflight == 0
            roots = [trace.root for trace in fleet.tracer.recorder.drain()]
            errors = [root.tags.get("error") for root in roots if root.name == "execute"]
            assert errors == ["MalformedFrameError", "MalformedFrameError", None]

    def test_a_script_with_an_unencodable_command_sends_none(self, snapshot_root):
        show = json.dumps(ShowColumn(object_name="telemetry").to_dict())
        script = b'{"script": {"commands": [%b, NaN]}}' % show.encode()
        with (
            self.traced_fleet(snapshot_root) as fleet,
            socket.create_connection(("127.0.0.1", fleet.port), timeout=10.0) as sock,
        ):
            lines = sock.makefile("rb")
            self.ask(sock, lines, b'{"id": 1, "verb": "open-session", "session": "n"}')
            run = b'{"id": 2, "verb": "run-script", "session": "n", "payload": %b}' % script
            refused = self.ask(sock, lines, run)
            assert refused["id"] == 2 and refused["error"]["kind"] == "malformed-frame", refused
            # the shard's FIFO: a partial of command 0 would come before this
            closed = self.ask(sock, lines, b'{"id": 3, "verb": "close-session", "session": "n"}')
            assert closed["id"] == 3 and closed["payload"]["counters"]["commands"] == 0, closed
            assert fleet.inflight == 0
            roots = [trace.root for trace in fleet.tracer.recorder.drain()]
            assert [(root.name, root.tags.get("error")) for root in roots] == [
                ("run-script", "MalformedFrameError")
            ]


class TestWorkerCrash:
    def test_crash_surfaces_typed_error_and_others_keep_serving(self, snapshot_root):
        with ShardedServer(server_config(snapshot_root)) as server:
            # pick two sessions pinned to different shards
            doomed = next(
                f"crash-{i}" for i in range(100) if shard_for_session(f"crash-{i}", 2) == 0
            )
            survivor = next(
                f"safe-{i}" for i in range(100) if shard_for_session(f"safe-{i}", 2) == 1
            )
            with (
                ShardedClient("127.0.0.1", server.port, session_id=doomed) as dead_client,
                ShardedClient("127.0.0.1", server.port, session_id=survivor) as live_client,
            ):
                dead_client.run(make_script())
                live_client.run(make_script())

                server.shards.workers[0].process.kill()
                deadline = time.monotonic() + 10
                while server.shards.workers[0].alive and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert not server.shards.workers[0].alive

                # the doomed session fails loudly with the typed error...
                with pytest.raises(WorkerCrashedError):
                    dead_client.execute(Slide(view="v", duration=0.5))
                # ...while the surviving shard keeps serving gestures
                outcome = live_client.execute(
                    Slide(view="v", duration=0.5, start_fraction=0.3, end_fraction=0.6)
                )
                assert outcome.entries_returned >= 0
                assert live_client.hello()["alive_workers"] == [1]
                live_client.close_session()

    def test_kill_mid_script_fails_pending_futures(self, snapshot_root):
        with ShardedServer(server_config(snapshot_root)) as server:
            sid = next(
                f"mid-{i}" for i in range(100) if shard_for_session(f"mid-{i}", 2) == 0
            )
            with ShardedClient(
                "127.0.0.1", server.port, session_id=sid, timeout_s=30
            ) as client:
                client.execute(ShowColumn(object_name="telemetry", view_name="v"))
                client.execute(ChooseAction(view="v", action=summary_action(k=10)))
                # long script (~1s of gestures); kill the worker while it runs
                long_script = GestureScript(
                    [
                        Slide(view="v", duration=2.0, start_fraction=0.0, end_fraction=1.0)
                        for _ in range(400)
                    ]
                )
                import threading

                def kill_soon():
                    time.sleep(0.1)
                    server.shards.workers[0].process.kill()

                killer = threading.Thread(target=kill_soon)
                killer.start()
                with pytest.raises((WorkerCrashedError, ServiceError)):
                    client.run(long_script)
                killer.join()

    def test_new_session_on_dead_shard_fails_fast(self, snapshot_root):
        with ShardedServer(server_config(snapshot_root)) as server:
            server.shards.workers[1].process.kill()
            deadline = time.monotonic() + 10
            while server.shards.workers[1].alive and time.monotonic() < deadline:
                time.sleep(0.05)
            sid = next(
                f"late-{i}" for i in range(100) if shard_for_session(f"late-{i}", 2) == 1
            )
            with pytest.raises(WorkerCrashedError):
                ShardedClient("127.0.0.1", server.port, session_id=sid)


class TestFleetThatCannotStart:
    def test_a_worker_setup_error_is_raised_and_leaves_nothing_running(self, tmp_path):
        before = set(threading.enumerate())
        children = set(multiprocessing.active_children())
        missing = tmp_path / "no-snapshot"
        config = ShardedServerConfig(
            num_workers=2, worker=WorkerConfig(snapshot_path=str(missing))
        )
        with pytest.raises(SnapshotError, match="manifest"):
            ShardedServer(config)
        assert [t.name for t in threading.enumerate() if t not in before] == []
        assert set(multiprocessing.active_children()) == children


class TestOneReaderPerPipe:
    """Each pipe has one reader and writer, the fleet's loop, from the ready
    handshake to ``stop`` — so ``stop`` is answered, not forced, whether
    or not the front door ever started."""

    def test_every_worker_answers_stop(self, snapshot_root):
        fleets = [
            ShardedServer(server_config(snapshot_root)).start(),  # the loop reads
            ShardedServer(server_config(snapshot_root)),  # stop() reads, never a loop
        ]
        for fleet in fleets:
            fleet.shutdown()
        exitcodes = [[handle.process.exitcode for handle in f.shards.workers] for f in fleets]
        assert exitcodes == [[0, 0], [0, 0]]

    def test_killed_shard_leaves_the_loop_and_the_survivor_stops_cleanly(self, snapshot_root):
        async def pipes_read_by_the_loop() -> list[bool]:
            watched = asyncio.get_running_loop()._selector.get_map()
            return [handle._conn.fileno() in watched for handle in (dead, survivor)]

        def read_by_the_loop() -> list[bool]:
            probe = pipes_read_by_the_loop()
            return asyncio.run_coroutine_threadsafe(probe, server._loop).result(10)

        # one-thread workers: the killed shard ran its gestures on its pipe thread
        worker = WorkerConfig(snapshot_path=str(snapshot_root), scheduler_workers=1)
        server = ShardedServer(ShardedServerConfig(num_workers=2, worker=worker)).start()
        dead, survivor = server.shards.workers
        try:
            assert read_by_the_loop() == [True, True]
            dead.process.kill()
            deadline = time.monotonic() + 10
            while dead.alive and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not dead.alive
            assert read_by_the_loop() == [False, True]
            stats = server.shards.stats()
            assert stats["alive_workers"] == [1]
            assert stats["workers"]["1"]["worker"] == 1
        finally:
            server.shutdown()
        assert survivor.process.exitcode == 0
        assert dead.process.exitcode == -signal.SIGKILL

    @pytest.mark.parametrize("scheduler_workers", [1, 2])
    def test_a_long_script_finishes(self, snapshot_root, scheduler_workers):
        """5,000 gestures fill both pipes: the worker's replies pile up while
        the front door still has requests to write.  The loop never blocks
        writing a pipe, so it keeps reading the replies and the run ends."""
        worker = WorkerConfig(snapshot_path=str(snapshot_root), scheduler_workers=scheduler_workers)
        server = ShardedServer(ShardedServerConfig(num_workers=1, worker=worker)).start()
        script = GestureScript([Slide(view="v", duration=0.1) for _ in range(5000)])
        try:
            with ShardedClient("127.0.0.1", server.port, timeout_s=30) as client:
                client.execute(ShowColumn(object_name="telemetry", view_name="v"))
                assert len(client.run(script)) == 5000
        except BaseException:
            server.shards.workers[0].process.kill()  # unblocks a stuck send
            raise
        finally:
            server.shutdown()

    def test_the_loop_answers_while_a_big_request_waits_for_a_stopped_worker(self, snapshot_root):
        """A stopped worker reads nothing, so a ~0.5 MB request waits for
        room in the pipe; the loop that would write it goes on serving."""
        worker = WorkerConfig(snapshot_path=str(snapshot_root), scheduler_workers=1)
        server = ShardedServer(ShardedServerConfig(num_workers=1, worker=worker)).start()
        pid = server.shards.workers[0].process.pid
        values = [i + 0.5 for i in range(60_000)]
        answers: dict[int, dict] = {}

        def read_until(conn, decoder, request_id: int) -> None:
            while request_id not in answers:
                for reply in decoder.feed(conn.recv(1 << 16)):
                    assert reply["ok"], reply
                    answers[reply["id"]] = reply["payload"]

        try:
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as conn:
                decoder = FrameDecoder()
                conn.sendall(encode_frame({"id": 1, "verb": "open-session", "session": "big"}))
                read_until(conn, decoder, 1)
                os.kill(pid, signal.SIGSTOP)
                load = {"id": 2, "verb": "load-column", "session": "big"}
                load["payload"] = {"name": "big", "values": values}
                conn.sendall(encode_frame(load) + encode_frame({"id": 3, "verb": "hello"}))
                read_until(conn, decoder, 3)  # answered with the worker stopped
                assert 2 not in answers
                os.kill(pid, signal.SIGCONT)
                read_until(conn, decoder, 2)
        finally:
            os.kill(pid, signal.SIGCONT)
            server.shutdown()
        assert answers[2] == {"name": "big", "rows": 60_000}

    def test_a_big_request_behind_a_long_script_finishes(self, snapshot_root):
        """A ~0.5 MB ``load-column`` queued on a one-thread shard behind a
        1,000-gesture script: the request waits for room in the pipe while
        the worker writes a reply per queued gesture, and the loop, which
        never blocks on the write, reads those replies until both finish."""
        worker = WorkerConfig(snapshot_path=str(snapshot_root), scheduler_workers=1)
        server = ShardedServer(ShardedServerConfig(num_workers=1, worker=worker)).start()
        script = GestureScript(
            [ShowColumn(object_name="telemetry", view_name="v")]
            + [Slide(view="v", duration=0.1) for _ in range(999)]
        )
        values = [i + 0.5 for i in range(60_000)]
        frames = [
            {"id": 1, "verb": "open-session", "session": "long"},
            {"id": 2, "verb": "open-session", "session": "big"},
            {
                "id": 3,
                "verb": "run-script",
                "session": "long",
                "payload": {"script": script.to_dict()},
            },
            {
                "id": 4,
                "verb": "load-column",
                "session": "big",
                "payload": {"name": "big", "values": values},
            },
        ]
        partials, answers = 0, {}
        try:
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as conn:
                conn.sendall(b"".join(encode_frame(frame) for frame in frames))
                decoder = FrameDecoder()
                while len(answers) < 4:
                    for reply in decoder.feed(conn.recv(1 << 16)):
                        assert reply["ok"], reply
                        if reply["payload"].get("partial"):
                            partials += 1
                        else:
                            answers[reply["id"]] = reply["payload"]
        except BaseException:
            server.shards.workers[0].process.kill()  # unblocks a stuck send
            raise
        finally:
            server.shutdown()
        assert partials == 1000
        assert answers[3] == {"done": True, "total": 1000}
        assert answers[4] == {"name": "big", "rows": 60_000}


def cut_answer_worker(conn, worker_id, config) -> None:
    """A stand-in worker: it answers its first request in three writes cut
    after the id and inside the body, half its second, then exits."""
    conn.sendall(pipe_frame(-1, answer_body({"worker": worker_id})))
    decoder, requests = FrameDecoder(max_bytes=PIPE_MAX_BYTES), []
    while len(requests) < 2:
        requests += pipe_messages(decoder.lines(conn.recv(1 << 16)))
    (first, _), (second, _) = requests
    whole = pipe_frame(first, answer_body({"pieces": 3}))
    for piece in (whole[:1], whole[1:12], whole[12:]):
        conn.sendall(piece)
        time.sleep(0.05)
    conn.sendall(pipe_frame(second, answer_body({"never": "whole"}))[:-4])
    conn.close()


class TestSplitPipeFrames:
    def test_a_cut_answer_lands_once_whole_and_eof_mid_answer_fails_the_rest(self, monkeypatch):
        monkeypatch.setattr("repro.serving.shards.worker_main", cut_answer_worker)
        fleet = ShardManager(num_workers=1)
        try:
            handle = fleet.workers[0]
            first, second = handle.submit("ping"), handle.submit("ping")
            assert first.result(timeout=10) == {"pieces": 3}
            with pytest.raises(WorkerCrashedError, match="died mid-request"):
                second.result(timeout=10)
            assert not handle.alive
        finally:
            fleet.shutdown()


class TestDrainAndAdmission:
    def test_drain_completes_inflight_then_refuses(self, snapshot_root):
        with ShardedServer(server_config(snapshot_root)) as server:
            with ShardedClient("127.0.0.1", server.port, session_id="drain-1") as client:
                client.run(make_script())
                assert client.drain(timeout=30) is True
                # post-drain: admission is closed, shed as AdmissionError
                with pytest.raises(AdmissionError):
                    client.execute(Slide(view="v", duration=0.2))

    def test_drain_waits_for_queued_gestures(self, snapshot_root):
        """Counters prove every pre-drain gesture executed before drain won."""
        with ShardedServer(server_config(snapshot_root)) as server:
            sid = "drain-queue"
            with ShardedClient("127.0.0.1", server.port, session_id=sid) as client:
                client.run(make_script())
                assert client.drain(timeout=30) is True
                stats = server.shards.stats()
                assert stats["sessions"][sid]["commands"] == 4

    def test_front_door_sheds_when_full(self, snapshot_root):
        config = server_config(snapshot_root, max_inflight=0)
        with ShardedServer(config) as server:
            with pytest.raises(AdmissionError, match="in-flight limit"):
                ShardedClient("127.0.0.1", server.port, session_id="shed-1")


class TestClientRobustness:
    def test_client_rejects_wrong_protocol(self, snapshot_root):
        # a raw TCP server speaking the wrong version (an unknown one, then
        # generation 1, whose run-script reply this client could not read)
        import json as _json
        import threading

        def fake_server(sock):
            for peer_protocol in (99, 1):
                conn, _ = sock.accept()
                data = conn.recv(4096)
                frame = _json.loads(data.decode().splitlines()[0])
                reply = {"id": frame["id"], "ok": True, "payload": {"protocol": peer_protocol}}
                conn.sendall((_json.dumps(reply) + "\n").encode())
                conn.close()

        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        thread = threading.Thread(target=fake_server, args=(listener,), daemon=True)
        thread.start()
        try:
            for peer_protocol in (99, 1):
                with pytest.raises(ProtocolError, match=f"protocol {peer_protocol},"):
                    ShardedClient("127.0.0.1", port, session_id="v-1")
        finally:
            listener.close()

    def test_closed_client_refuses_calls(self, server):
        client = ShardedClient("127.0.0.1", server.port, session_id="closed-1")
        client.close_session()
        client.close()
        with pytest.raises(ServiceError, match="closed"):
            client.hello()


class TestLiveIngestionOverTheWire:
    """Appends as commands and per-gesture streaming, end to end."""

    def test_append_verb_grows_session_column(self, server):
        with ShardedClient("127.0.0.1", server.port, session_id="ing-1") as client:
            client.load_column("mine", [float(i) for i in range(500)])
            assert client.append_rows("mine", values=[500.0, 501.0, 502.0]) == 503
            envelope = client.execute(ShowColumn(object_name="mine", view_name="m"))
            assert envelope.object_name == "mine"
            # the appended rows are served: slide across the full column
            outcome = client.execute(
                Slide(view="m", duration=0.5, start_fraction=0.9, end_fraction=1.0)
            )
            assert outcome.entries_returned > 0
            client.close_session()

    def test_execute_append_command_routes_through_verb(self, server):
        from repro.core.commands import AppendCommand

        with ShardedClient("127.0.0.1", server.port, session_id="ing-2") as client:
            client.load_column("mine", [1.0, 2.0, 3.0])
            envelope = client.execute(
                AppendCommand(object_name="mine", values=(4.0, 5.0))
            )
            assert envelope.command_kind == "append"
            assert envelope.payload == {"num_rows": 5}
            client.close_session()

    def test_session_facade_appends_over_the_wire(self, server):
        with ShardedClient("127.0.0.1", server.port, session_id="ing-3") as client:
            session = ExplorationSession(service=client)
            session.load_column("mine", [float(i) for i in range(100)])
            assert session.append("mine", values=[100.0, 101.0]) == 102
            client.close_session()

    def test_ingest_errors_cross_the_wire_typed(self, server):
        from repro.errors import IngestError

        with ShardedClient("127.0.0.1", server.port, session_id="ing-4") as client:
            with pytest.raises(IngestError):
                client.append_rows("no-such-object", values=[1.0])
            client.load_column("mine", [1.0, 2.0])
            with pytest.raises(IngestError):  # standalone column, not a table
                client.append_rows("mine", columns={"a": [1.0]})
            # the session survives the refusals
            assert client.append_rows("mine", values=[3.0]) == 3
            client.close_session()

    def test_script_with_append_streams_per_gesture(self, server):
        from repro.core.commands import AppendCommand

        with ShardedClient("127.0.0.1", server.port, session_id="ing-5") as client:
            client.load_column("mine", [float(i) for i in range(1_000)])
            script = GestureScript(
                [
                    ShowColumn(object_name="mine", view_name="s", height_cm=10.0),
                    ChooseAction(view="s", action=summary_action(k=10)),
                    AppendCommand(
                        object_name="mine", values=tuple(float(i) for i in range(50))
                    ),
                    Slide(view="s", duration=0.8, start_fraction=0.1, end_fraction=0.9),
                ]
            )
            kinds = []
            for envelope in client.run_stream(script):
                kinds.append(envelope.command_kind)
            assert kinds == ["show-column", "choose-action", "append", "slide"]
            client.close_session()

    def test_run_stream_matches_non_streaming_run(self, server):
        script = make_script()
        with ShardedClient("127.0.0.1", server.port, session_id="ing-6") as client:
            streamed = list(client.run_stream(script))
            client.reset()
            batched = client.run(script)
            client.close_session()
        assert len(streamed) == len(batched) == 4
        for a, b in zip(streamed, batched):
            assert a.command_kind == b.command_kind
            assert a.entries_returned == b.entries_returned
            assert a.tuples_examined == b.tuples_examined

    def test_run_stream_empty_script(self, server):
        with ShardedClient("127.0.0.1", server.port, session_id="ing-7") as client:
            assert list(client.run_stream(GestureScript([]))) == []
            client.close_session()

    def test_run_stream_surfaces_first_error(self, server):
        script = GestureScript(
            [
                ShowColumn(object_name="telemetry", view_name="v", height_cm=10.0),
                Slide(view="ghost", duration=0.5),  # no such view: fails
                Slide(view="v", duration=0.5),
            ]
        )
        with ShardedClient("127.0.0.1", server.port, session_id="ing-8") as client:
            received = []
            with pytest.raises(DbTouchError):
                for envelope in client.run_stream(script):
                    received.append(envelope.command_kind)
            assert received == ["show-column"]
            # the connection survives an aborted stream
            assert client.hello()["alive_workers"] == [0, 1]
            client.close_session()

    def test_malformed_append_frames_get_typed_replies(self, server):
        fuzz = TestFrontDoorFuzz()
        # there is no append verb: an append is an execute of an AppendCommand
        retired = b'{"id": 20, "verb": "append", "session": "fz2", "payload": {"name": "x"}}\n'
        reply = fuzz.raw(server, retired)
        assert b'"id":20' in reply and b'"kind":"unknown-verb"' in reply
        malformed = [
            ({"values": [1.0], "columns": {"a": [1.0]}}, b'"kind":"ingest"'),  # both
            ({}, b'"kind":"ingest"'),  # neither
            ({"columns": 7}, b'"kind":"command"'),
            ({"values": 7}, b'"kind":"command"'),
        ]
        with ShardedClient("127.0.0.1", server.port, session_id="fz2") as client:
            client.load_column("x", [1.0, 2.0])
            for request_id, (fields, kind) in enumerate(malformed, start=30):
                command = {"kind": "append", "object_name": "x", **fields}
                frame = {
                    "id": request_id,
                    "verb": "execute",
                    "session": "fz2",
                    "payload": {"command": command},
                }
                reply = fuzz.raw(server, json.dumps(frame).encode() + b"\n")
                assert b'"id":%d' % request_id in reply and b'"ok":false' in reply, reply
                assert kind in reply, reply
            # the session survives the refusals
            assert client.append_rows("x", values=[3.0]) == 3
            client.close_session()
        bad_stream = (
            b'{"id": 23, "verb": "run-script", "session": "fz2",'
            b' "payload": {"stream": true, "script": {"commands": 7}}}\n'
        )
        reply = fuzz.raw(server, bad_stream)
        assert b'"id":23' in reply and b'"ok":false' in reply
