"""The hand-offs of a fleet gesture, counted rather than timed.

A gesture on the sharded path crosses the front door's one event loop,
which serves the client sockets *and* the worker pipes (``stats``,
``telemetry`` and ``drain`` await their fan-out there too), and a worker with
``scheduler_workers=1`` runs it on its own pipe thread.  These tests count
the threads and the stats sections that design leaves, so a return of a
per-shard reader thread or of a one-thread worker pool fails here by
name, whatever the host's speed; and the threads that touch a pipe, so a
caller that reads or writes one itself, before the loop starts or after
it stops, fails here too.  They count the codec passes too: the
client encodes a request and decodes its answer, the front door decodes
the request once and relays the worker's answer undecoded, and nothing
is pickled on the way.
"""

import json
import pickle
import threading
from collections import Counter
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro import ChooseAction, ShowColumn, Slide, Tap, summary_action
from repro.errors import ServiceError
from repro.persist.diskstore import DiskColumnStore
from repro.persist.snapshot import StoreCatalog
from repro.serving import (
    ShardedClient,
    ShardedServer,
    ShardedServerConfig,
    WorkerConfig,
    shard_for_session,
)
from repro.serving.shards import WorkerHandle
from repro.storage.column import Column

GESTURES = 200


@pytest.fixture(scope="module")
def snapshot_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("handoff-snap")
    values = np.random.default_rng(5).normal(size=20_000)
    StoreCatalog(DiskColumnStore(root)).persist_column(Column("telemetry", values))
    return root


def fleet_config(snapshot_root, scheduler_workers: int) -> ShardedServerConfig:
    worker = WorkerConfig(
        snapshot_path=str(snapshot_root),
        scheduler_workers=scheduler_workers,
    )
    return ShardedServerConfig(num_workers=2, worker=worker)


def session_on(shard: int) -> str:
    return next(f"hop-{i}" for i in range(100) if shard_for_session(f"hop-{i}", 2) == shard)


def new_threads(before: set[threading.Thread]) -> list[str]:
    return sorted(thread.name for thread in threading.enumerate() if thread not in before)


def test_the_front_door_adds_one_thread_and_no_pipe_reader(snapshot_root):
    before = set(threading.enumerate())
    with ShardedServer(fleet_config(snapshot_root, scheduler_workers=1)) as server:
        # the loop thread is the only one: it reads the sockets and the pipes
        assert new_threads(before) == ["repro-sharded-server"]
        names = [thread.name for thread in threading.enumerate()]
        assert not [name for name in names if name.startswith("repro-shard-")]
        clients = [
            ShardedClient("127.0.0.1", server.port, session_id=session_on(shard))
            for shard in (0, 1)
        ]
        try:
            for client in clients:
                client.execute(ShowColumn(object_name="telemetry", view_name="v"))
                client.execute(ChooseAction(view="v", action=summary_action(k=10)))
            for i in range(GESTURES - 2 * len(clients)):
                gesture = Tap(view="v", fraction=0.5) if i % 3 else Slide(view="v", duration=0.1)
                clients[i % 2].execute(gesture)
            # the fan-out verbs await the shards' replies on the loop too
            sessions = clients[0].stats()["sessions"]
            assert sum(counters["commands"] for counters in sessions.values()) == GESTURES
            assert clients[1].telemetry()["alive_workers"] == [0, 1]
            assert clients[0].drain(timeout=10.0) is True
            assert new_threads(before) == ["repro-sharded-server"]
        finally:
            for client in clients:
                client.close()


def test_every_pipe_is_read_and_written_on_the_loop_from_handshake_to_stop(
    snapshot_root, monkeypatch
):
    """No caller reads or writes a pipe itself: before ``start()``, during
    traffic and the fan-out verbs, in the blocking calls and at ``stop``,
    every pipe call runs on the one loop thread."""
    threads: Counter = Counter()
    for name in ("read_ready", "send", "flush"):

        def recorded(self, *args, _original=getattr(WorkerHandle, name), **kwargs):
            threads[threading.current_thread().name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(WorkerHandle, name, recorded)
    server = ShardedServer(fleet_config(snapshot_root, scheduler_workers=1))
    try:
        assert server.shards.stats()["alive_workers"] == [0, 1]  # before start()
        server.start()
        clients = [
            ShardedClient("127.0.0.1", server.port, session_id=session_on(shard))
            for shard in (0, 1)
        ]
        try:
            for client in clients:
                client.execute(ShowColumn(object_name="telemetry", view_name="v"))
            for i in range(GESTURES - len(clients)):
                clients[i % 2].execute(Tap(view="v", fraction=0.5))
            assert len(clients[0].stats()["sessions"]) == 2
            assert clients[1].telemetry()["alive_workers"] == [0, 1]
            assert clients[0].drain(timeout=10.0) is True
        finally:
            for client in clients:
                client.close()
        assert server.shards.stats()["alive_workers"] == [0, 1]
        assert server.drain(timeout=10.0) is True
    finally:
        server.shutdown()
    assert list(threads) == ["repro-sharded-server"]
    assert threads["repro-sharded-server"] > 2 * GESTURES


def count_codec_calls(monkeypatch) -> Counter:
    """Count every JSON encode / decode and pickle call, by thread name."""
    calls: Counter = Counter()
    codecs = [
        (json.JSONEncoder, "encode", "encode"),
        (json.JSONDecoder, "decode", "decode"),
        (pickle, "dumps", "pickle"),
        (pickle, "loads", "pickle"),
        (ForkingPickler, "dumps", "pickle"),
        (ForkingPickler, "loads", "pickle"),
    ]
    for owner, name, kind in codecs:

        def counted(*args, _original=getattr(owner, name), _kind=kind, **kwargs):
            calls[threading.current_thread().name, _kind] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_fleet_gesture_makes_five_codec_passes(snapshot_root, monkeypatch):
    with ShardedServer(fleet_config(snapshot_root, scheduler_workers=1)) as server:
        clients = [
            ShardedClient("127.0.0.1", server.port, session_id=session_on(shard))
            for shard in (0, 1)
        ]
        try:
            for client in clients:
                client.execute(ShowColumn(object_name="telemetry", view_name="v"))
            calls = count_codec_calls(monkeypatch)
            for i in range(GESTURES):
                clients[i % 2].execute(Tap(view="v", fraction=0.5))
            monkeypatch.undo()
        finally:
            for client in clients:
                client.close()
    # the other two passes are the worker's, in its own process
    assert dict(calls) == {
        ("MainThread", "encode"): GESTURES,
        ("MainThread", "decode"): GESTURES,
        ("repro-sharded-server", "decode"): GESTURES,
    }


@pytest.mark.parametrize("scheduler_workers, pooled", [(1, False), (2, True)])
def test_only_a_multi_thread_worker_has_a_scheduler(snapshot_root, scheduler_workers, pooled):
    with ShardedServer(fleet_config(snapshot_root, scheduler_workers)) as server:
        stats = server.shards.stats()
        assert ["scheduler" in stats["workers"][w] for w in ("0", "1")] == [pooled, pooled]
        assert ("scheduler" in stats) is pooled


def test_a_one_thread_worker_refuses_the_pool_bounds():
    for bound in ("max_pending", "max_session_pending"):
        with pytest.raises(ServiceError, match=bound):
            WorkerConfig(scheduler_workers=1, **{bound: 8})
        assert getattr(WorkerConfig(scheduler_workers=2, **{bound: 8}), bound) == 8
