"""Sharded multi-process serving over a real wire protocol.

This package is the network front door of the reproduction: an asyncio
TCP server (:class:`~repro.serving.server.ShardedServer`) that speaks
newline-delimited JSON frames (:mod:`repro.serving.protocol`), pins each
exploration session to one of N worker *processes* by consistent hash of
the session id (:mod:`repro.serving.shards`), and streams typed responses
back per connection.  Each worker process
(:mod:`repro.serving.worker`) attaches the published
:class:`repro.persist.snapshot.StoreCatalog` snapshot read-only via mmap
and hosts a :class:`repro.service.MultiSessionServer` in scheduler mode —
so aggregate gesture throughput scales with cores instead of being
GIL-bound in one interpreter, while per-session
:class:`repro.core.kernel.GestureOutcome` counters stay bit-identical to
a single-process serial replay.

:class:`~repro.serving.client.ShardedClient` mirrors
:class:`repro.remote.RemoteExplorationService`'s service surface, so an
:class:`repro.ExplorationSession` works unchanged over the wire.
"""

from repro.serving.client import ShardedClient
from repro.serving.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    Request,
    Response,
    decode_frame,
    encode_frame,
    error_payload,
    exception_from_payload,
)
from repro.serving.server import ShardedServer, ShardedServerConfig
from repro.serving.shards import ShardManager, shard_for_session
from repro.serving.worker import WorkerConfig, worker_main

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "FrameDecoder",
    "Request",
    "Response",
    "ShardManager",
    "ShardedClient",
    "ShardedServer",
    "ShardedServerConfig",
    "WorkerConfig",
    "decode_frame",
    "encode_frame",
    "error_payload",
    "exception_from_payload",
    "shard_for_session",
    "worker_main",
]
