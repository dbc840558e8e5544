"""Distributed tracing and the ``telemetry`` verb across a sharded fleet.

The acceptance story of the telemetry plane: a gesture sent to a 2-shard
fleet produces ONE stitched trace that crosses the wire — front-door root,
worker-side ``queue_wait``/gesture/``kernel_exec`` spans (plus
``chunk_fault`` when the paged tier is touched) — while
outcome counters stay bit-identical to a serial, untraced replay.
"""

import asyncio
import re
import socket
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro import ChooseAction, GestureScript, LocalExplorationService, ShowColumn, Slide, Tap
from repro.core.actions import summary_action
from repro.errors import WorkerCrashedError
from repro.obs import TraceConfig, stitch_traces
from repro.persist.diskstore import DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.serving import (
    ShardedClient,
    ShardedServer,
    ShardedServerConfig,
    WorkerConfig,
)
from repro.serving.protocol import FrameDecoder, encode_frame
from repro.serving import server as server_module
from repro.serving import shards
from repro.serving.shards import ShardManager
from repro.storage.column import Column

NUM_ROWS = 50_000


def make_script(view: str = "v") -> GestureScript:
    return GestureScript(
        [
            ShowColumn(object_name="cold", view_name=view, height_cm=10.0),
            Slide(view=view, duration=1.0, start_fraction=0.05, end_fraction=0.6),
            Slide(view=view, duration=0.8, start_fraction=0.6, end_fraction=0.2),
        ]
    )


@pytest.fixture(scope="module")
def snapshot_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("telemetry-snap")
    catalog = StoreCatalog(DiskColumnStore(root))
    catalog.persist_column(Column("cold", np.arange(NUM_ROWS, dtype=np.int64)))
    return root


@pytest.fixture(scope="module")
def server(snapshot_root):
    config = ShardedServerConfig(
        num_workers=2,
        worker=WorkerConfig(
            snapshot_path=str(snapshot_root),
            scheduler_workers=2,
            trace_sample_rate=1.0,
            cache_bytes=1 << 20,
        ),
        tracing=TraceConfig(),
    )
    with ShardedServer(config) as running:
        yield running


def drain_stitched(client: ShardedClient):
    report = client.telemetry()
    return report, stitch_traces(report["traces"])


class TestDistributedTracing:
    def test_one_stitched_trace_crosses_the_wire(self, server):
        with ShardedClient("127.0.0.1", server.port, session_id="tracy") as client:
            client.execute(ShowColumn(object_name="cold", view_name="v"))
            client.execute(
                Slide(view="v", duration=1.0, start_fraction=0.1, end_fraction=0.5)
            )
            report, traces = drain_stitched(client)
            slides = [
                t
                for t in traces
                if t.root is not None
                and t.root.name == "execute"
                and t.find("slide")
            ]
            assert len(slides) == 1, [t.to_dict() for t in traces]
            trace = slides[0]
            # the trace crosses the wire: front door -> worker -> kernel
            assert trace.root.site == "front-door"
            sites = {span.site for span in trace.spans}
            assert any(site.startswith("worker-") for site in sites)
            (slide,) = trace.find("slide")
            assert slide.parent_id == trace.root.span_id
            assert trace.find("kernel_exec")
            assert trace.find("queue_wait")
            assert all(span.duration_s >= 0.0 for span in trace.spans)
            assert trace.root.duration_s >= slide.duration_s

    def test_cold_slide_traces_storage_spans(self, server):
        with ShardedClient("127.0.0.1", server.port, session_id="cold-reader") as client:
            # a slide gathers through the mapping, past the chunk cache; the
            # tap after it reads one value, which faults its chunk in
            client.run(make_script("vv"))
            client.execute(Tap(view="vv", fraction=0.9))
            _, traces = drain_stitched(client)
            spans = [span for trace in traces for span in trace.spans]
            names = {span.name for span in spans}
            assert "chunk_fault" in names, names
            faults = [s for s in spans if s.name == "chunk_fault"]
            for fault in faults:
                assert fault.tags["column"] == "cold"
                assert fault.duration_s >= 0.0

    def test_script_is_one_trace(self, server):
        with ShardedClient("127.0.0.1", server.port, session_id="scripter") as client:
            script = make_script("sv")
            assert len(client.run(script)) == len(script)
            _, traces = drain_stitched(client)
            runs = [
                t for t in traces if t.root is not None and t.root.name == "run-script"
            ]
            assert len(runs) == 1
            trace = runs[0]
            # every command's gesture span hangs off the one script root
            kinds = [child["span"].name for child in trace.tree()[0]["children"]]
            assert kinds.count("slide") == 2 and "show-column" in kinds

    def test_streamed_script_is_one_trace(self, server):
        with ShardedClient("127.0.0.1", server.port, session_id="streamer") as client:
            assert len(list(client.run_stream(make_script("wv")))) == 3
            _, traces = drain_stitched(client)
            runs = [
                t for t in traces if t.root is not None and t.root.name == "run-script"
            ]
            assert len(runs) == 1
            assert len(runs[0].find("slide")) == 2

    def test_counters_parity_with_tracing_enabled(self, server):
        """Bit-identical outcomes, tracing on (over the wire) vs off
        (serial in-process replay) — spans must never touch counters."""
        from repro.core.kernel import KernelConfig

        script = make_script("pv")
        serial = LocalExplorationService(config=KernelConfig(latency_budget_s=1e6))
        snapshot = StoreCatalog.open_read_only(server.config.worker.snapshot_path)
        snapshot.attach(serial.catalog)
        expected = serial.run(script)
        with ShardedClient("127.0.0.1", server.port, session_id="parity") as client:
            got = client.run(script)
            client.close_session()
        for wire, local in zip(got, expected):
            assert wire.entries_returned == local.entries_returned
            assert wire.tuples_examined == local.tuples_examined

    def test_failed_gesture_tags_the_front_door_root(self, server):
        with ShardedClient("127.0.0.1", server.port, session_id="crasher") as client:
            with pytest.raises(Exception):
                client.execute(Slide(view="missing", duration=0.2))
            _, traces = drain_stitched(client)
            failed = [
                t
                for t in traces
                if t.root is not None and t.root.tags.get("error")
            ]
            assert failed, [t.to_dict() for t in traces]


class TestTelemetryVerb:
    def test_report_shape_and_merged_metrics(self, server):
        with ShardedClient("127.0.0.1", server.port, session_id="scraper") as client:
            client.run(make_script("mv"))
            report = client.telemetry()
            assert report["num_workers"] == 2
            metrics = report["metrics"]
            assert metrics["tracer_traces_finished"] >= 1
            assert metrics["frontdoor_num_workers"] == 2
            assert any(key.startswith("storage_") for key in metrics)
            assert set(report["workers"]) <= {"0", "1"}
            for detail in report["workers"].values():
                assert "exposition" in detail and "metrics" in detail
            assert "front_door" in report

    def test_draining_is_destructive(self, server):
        with ShardedClient("127.0.0.1", server.port, session_id="drainer") as client:
            client.execute(ShowColumn(object_name="cold", view_name="dv"))
            first = client.telemetry()
            assert first["traces"]
            again = client.telemetry()
            assert again["traces"] == []  # drained on the first scrape

    def test_exposition_is_well_formed(self, server):
        """Every line of the fleet exposition must parse as Prometheus
        text format — the same check CI's smoke step applies."""
        with ShardedClient("127.0.0.1", server.port, session_id="prom") as client:
            client.run(make_script("ev"))
            report = client.telemetry()
            metric_line = re.compile(
                r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
                r'|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? '
                r"(-?[0-9.eE+-]+|\+Inf|-Inf|NaN))$"
            )
            texts = [report["exposition"], report["front_door"]["exposition"]]
            texts += [
                detail["exposition"]
                for detail in report["workers"].values()
                if "exposition" in detail
            ]
            for text in texts:
                assert text.strip()
                for line in text.strip().splitlines():
                    assert metric_line.match(line), f"malformed line: {line!r}"

    def test_stats_verb_aggregates_storage(self, server):
        with ShardedClient("127.0.0.1", server.port, session_id="statter") as client:
            client.run(make_script("tv"))  # scan slides: gathered rows
            # a tap's stride-1 summary window: a range read through the chunks
            client.run(
                GestureScript(
                    [
                        ChooseAction(view="tv", action=summary_action(k=10)),
                        Tap(view="tv", fraction=0.3),
                    ]
                )
            )
            stats = client.stats()
            storage = stats["storage"]
            assert storage is not None
            assert storage["rows_gathered"] > 0
            assert storage["chunk_misses"] > 0
            assert storage["chunk_budget_bytes"] == 2 * (1 << 20)  # summed
            for report in stats["workers"].values():
                assert "storage" in report


    def test_stats_sections_equal_telemetry_metrics(self, server):
        """One plane: what ``stats`` sums per island is what ``telemetry``
        flattens, key for key, when nothing runs between the two scrapes."""
        with ShardedClient("127.0.0.1", server.port, session_id="mirror") as client:
            client.run(make_script("mirror-v"))
            stats = client.stats()
            metrics = client.telemetry()["metrics"]
            for island in ("index", "storage"):
                assert stats[island], island
                for key, value in stats[island].items():
                    assert metrics[f"{island}_{key}"] == value, (island, key)


class _StubHandle:
    """A worker handle that answers from a canned reply (no process);
    ``None`` never answers."""

    alive = True

    def __init__(self, worker_id: int, reply):
        self.worker_id = worker_id
        self.reply = reply
        self.requests: list[tuple] = []

    def submit(self, op, session=None, payload=None) -> Future:
        self.requests.append((op, payload))
        future: Future = Future()
        if isinstance(self.reply, Exception):
            future.set_exception(self.reply)
        elif self.reply is not None:
            future.set_result(self.reply)
        return future


@pytest.fixture
def stub_fleet():
    """Builds fleets of stub handles, each served by a loop of its own the
    way a real fleet is, so the blocking calls run their coroutine on it."""
    served = []

    def build(*replies) -> ShardManager:
        fleet = ShardManager.__new__(ShardManager)  # skip __init__: nothing forks
        fleet.workers = [_StubHandle(i, reply) for i, reply in enumerate(replies)]
        fleet.loop = asyncio.new_event_loop()
        thread = threading.Thread(target=fleet.loop.run_forever, daemon=True)
        thread.start()
        served.append((fleet.loop, thread))
        return fleet

    yield build
    for loop, thread in served:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        assert not thread.is_alive()
        loop.close()


class TestFanOut:
    def test_stats_merges_whatever_sections_workers_report(self, stub_fleet):
        fleet = stub_fleet(
            {"worker": 0, "sessions": {"a": {"commands": 1}}, "demo": {"x": 2}, "index": None},
            {"worker": 1, "sessions": {"b": {"commands": 3}}, "demo": {"x": 2}, "index": None},
            WorkerCrashedError("worker 2 died mid-request"),
        )
        stats = fleet.stats()
        assert stats["demo"] == {"x": 4}  # an island shards.py never heard of
        assert stats["sessions"] == {"a": {"commands": 1}, "b": {"commands": 3}}
        assert stats["index"] is None and stats["storage"] is None
        assert "speculation" not in stats  # no default for an island nobody registers
        assert stats["num_workers"] == 3
        # the failing shard is reported as data and skipped by the merge
        assert stats["workers"]["2"] == {"error": "worker 2 died mid-request"}
        assert stats["workers"]["0"]["demo"] == {"x": 2}

    def test_dead_shards_are_not_asked(self, stub_fleet):
        fleet = stub_fleet({"worker": 0}, {"worker": 1})
        fleet.workers[1].alive = False
        assert fleet.call(fleet.gather("ping")) == {"0": {"worker": 0}}
        assert fleet.workers[1].requests == []

    def test_drain_and_telemetry_share_the_gather(self, stub_fleet):
        fleet = stub_fleet({"drained": True}, {"drained": True})
        assert fleet.drain(timeout=1.5) is True
        assert fleet.workers[0].requests == [("drain", {"timeout": 1.5})]
        assert stub_fleet({"drained": True}, {"drained": False}).drain() is False
        assert stub_fleet({"drained": True}, WorkerCrashedError("gone")).drain() is False
        report = stub_fleet(
            {"metrics": {"index_cracks": 1}, "traces": [{"id": "t"}], "slow_traces": []},
            {"metrics": {"index_cracks": 2}, "traces": ["mangled"], "slow_traces": [{"id": "s"}]},
            WorkerCrashedError("gone"),
        ).telemetry()
        assert report["metrics"] == {"index_cracks": 3}
        assert report["traces"] == [{"id": "t"}]
        assert report["slow_traces"] == [{"id": "s"}]
        assert report["workers"]["2"] == {"error": "gone"}


class _FakeClock:
    """Stands in for the serving code's clock and waits: a wait returns at
    once and, if anything it waits on is pending, moves the clock on by
    its whole timeout, the most a real wait could take."""

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now

    async def wait_all(self, futures, timeout) -> None:
        if timeout is not None and not all(future.done() for future in futures):
            self.now += timeout


@pytest.fixture
def clock(monkeypatch) -> _FakeClock:
    fake = _FakeClock()
    for module in (shards, server_module):
        monkeypatch.setattr(module, "monotonic", fake.monotonic)
        monkeypatch.setattr(module, "wait_all", fake.wait_all)
    return fake


class TestOneBudget:
    """A timeout is one deadline for a whole fan-out or drain, however many
    shards stay silent: counted on a fake clock, not timed."""

    @pytest.mark.parametrize("silent", [1, 3])
    def test_a_fan_out_waits_once(self, stub_fleet, clock, silent):
        fleet = stub_fleet(*[None] * silent)
        stats = fleet.stats(timeout=0.2)
        telemetry = fleet.telemetry(timeout=0.2)
        drained = fleet.drain(timeout=0.2)
        assert clock.now == pytest.approx(3 * 0.2)  # 0.2 per call, not per shard
        assert drained is False
        for worker in map(str, range(silent)):
            for report in (stats, telemetry):
                assert report["workers"][worker] == {
                    "error": f"worker {worker} did not answer in time"
                }

    @pytest.mark.parametrize("silent", [1, 3])
    @pytest.mark.parametrize("inflight, shard_budget", [(0, 0.3), (1, 0.0)])
    def test_a_drain_shares_its_budget_with_the_idle_wait(
        self, stub_fleet, clock, monkeypatch, silent, inflight, shard_budget
    ):
        fleet = stub_fleet(*[None] * silent)
        monkeypatch.setattr(server_module, "ShardManager", lambda **kwargs: fleet)
        server = ShardedServer(ShardedServerConfig(num_workers=silent))
        server._inflight = inflight  # a request that never finishes
        assert server.drain(timeout=0.3) is False
        assert clock.now == pytest.approx(0.3)
        # each shard is told what is left of the budget, not the whole of it
        for handle in fleet.workers:
            assert handle.requests == [("drain", {"timeout": shard_budget})]


class TestBackCompat:
    def raw(self, server, payload: dict, timeout: float = 10.0) -> dict:
        with socket.create_connection(("127.0.0.1", server.port), timeout=timeout) as s:
            s.sendall(encode_frame(payload))
            decoder = FrameDecoder()
            while True:
                frames = decoder.feed(s.recv(64 * 1024))
                if frames:
                    return frames[0]

    def test_mangled_trace_field_degrades_to_untraced(self, server):
        reply = self.raw(
            server,
            {
                "id": 1,
                "verb": "open-session",
                "session": "mangler",
                "trace": "not-a-capsule",
            },
        )
        assert reply["ok"], reply
        reply = self.raw(
            server,
            {
                "id": 2,
                "verb": "execute",
                "session": "mangler",
                "payload": {
                    "command": ShowColumn(object_name="cold", view_name="bc").to_dict()
                },
                "trace": [1, 2, 3],
            },
        )
        assert reply["ok"], reply

    def test_traceless_requests_still_serve(self, snapshot_root):
        """An untraced fleet (the default config) ignores the telemetry
        plane entirely and serves byte-identical wire responses."""
        config = ShardedServerConfig(
            num_workers=1,
            worker=WorkerConfig(snapshot_path=str(snapshot_root), scheduler_workers=2),
        )
        with ShardedServer(config) as plain:
            with ShardedClient("127.0.0.1", plain.port, session_id="old") as client:
                envelopes = client.run(make_script("ov"))
                assert len(envelopes) == 3
                report = client.telemetry()
                assert report["traces"] == []
                assert report["metrics"]["tracer_traces_finished"] == 0
