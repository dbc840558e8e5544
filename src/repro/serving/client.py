"""The blocking wire client: the service protocol over one TCP socket.

:class:`ShardedClient` implements the same service surface every other
backend does — ``execute`` / ``run`` / ``load_column`` / ``reset`` — so a
:class:`repro.ExplorationSession` drives a remote shard exactly the way
it drives a :class:`repro.service.LocalExplorationService`:

>>> client = ShardedClient(host, port, session_id="alice")   # doctest: +SKIP
>>> session = ExplorationSession(service=client)             # doctest: +SKIP
>>> session.execute(ShowColumn())                            # doctest: +SKIP

The client is deliberately simple: one socket, one request in flight at a
time, responses matched by id (the id check still matters — a drain or
stats response from an earlier timeout must not be misread as this
request's answer).  Server-side errors come back as data and are re-raised
as the same typed exceptions (:func:`repro.serving.protocol.exception_from_payload`),
so ``AdmissionError`` / ``WorkerCrashedError`` handling code works
unchanged whether the service is in-process or across the wire.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Iterable, Iterator

import numpy as np

from repro.core.commands import AppendCommand, GestureCommand, GestureScript, encode_value
from repro.core.kernel import DETERMINISTIC_COUNTERS, GestureOutcome
from repro.errors import MalformedFrameError, ProtocolError, ServiceError
from repro.obs.trace import current_trace_context
from repro.touchio.recognizer import GestureType
from repro.serving.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    Request,
    Response,
    encode_frame,
)
from repro.service import OutcomeEnvelope


class ShardedClient:
    """One session's connection to a :class:`ShardedServer`.

    Parameters
    ----------
    host / port:
        The front door's listen address.
    session_id:
        The session this client speaks for; the server pins it to a shard
        by consistent hash.  Opened on the server at construction unless
        ``open_on_connect=False``.
    timeout_s:
        Socket timeout for each blocking receive.
    """

    backend = "sharded"

    def __init__(
        self,
        host: str,
        port: int,
        session_id: str = "session-0",
        timeout_s: float = 60.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        open_on_connect: bool = True,
    ) -> None:
        self.session_id = session_id
        self.max_frame_bytes = max_frame_bytes
        self._lock = threading.RLock()  # a suspended run_stream holds it
        self._decoder = FrameDecoder(max_bytes=max_frame_bytes)
        self._next_id = 0
        self._closed = False
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        try:
            hello = self.hello()
            if hello.get("protocol") != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"server speaks protocol {hello.get('protocol')!r}, "
                    f"this client speaks {PROTOCOL_VERSION}"
                )
            if open_on_connect:
                self.open_session()
        except BaseException:
            self._sock.close()
            raise

    # ------------------------------------------------------------------ #
    # the wire
    # ------------------------------------------------------------------ #
    def _responses(
        self, verb: str, payload: dict | None = None, session: str | None = None
    ) -> Iterator[dict[str, Any]]:
        """Send one request; yield the payload of every response answering it
        (stale frames are skipped by id, an ``ok:false`` one raises its typed
        error).  The caller holds the lock for as long as it iterates.

        When the calling thread has an ambient active trace (see
        :mod:`repro.obs.trace`), its context rides along as the request's
        ``trace`` field, so server-side spans stitch under the caller's
        trace.  Untraced callers pay one context-variable read.
        """
        ctx = current_trace_context()
        if self._closed:
            raise ServiceError("client is closed")
        request_id = self._next_id
        self._next_id += 1
        request = Request(
            id=request_id,
            verb=verb,
            session=session,
            payload=payload if payload is not None else {},
            trace=ctx.to_dict() if ctx is not None else None,
        )
        self._sock.sendall(encode_frame(request.to_dict(), max_bytes=self.max_frame_bytes))
        while True:
            for frame in self._decoder.feed(self._recv()):
                response = Response.from_dict(frame)
                if response.id == request_id:  # else: stale, from an abandoned request
                    yield response.raise_if_error()

    def _round_trip(
        self, verb: str, payload: dict | None = None, session: str | None = None
    ) -> dict[str, Any]:
        """Send one request, wait for its matching response, return/raise."""
        with self._lock:
            return next(self._responses(verb, payload, session))

    def _recv(self) -> bytes:
        try:
            data = self._sock.recv(64 * 1024)
        except socket.timeout as exc:
            raise ServiceError("timed out waiting for the server") from exc
        if not data:
            self._closed = True
            raise ServiceError("server closed the connection")
        return data

    def _session_call(self, verb: str, payload: dict | None = None) -> dict[str, Any]:
        return self._round_trip(verb, payload=payload, session=self.session_id)

    # ------------------------------------------------------------------ #
    # protocol verbs
    # ------------------------------------------------------------------ #
    def hello(self) -> dict[str, Any]:
        """Handshake: the server's protocol version and topology."""
        return self._round_trip("hello")

    def open_session(self) -> dict[str, Any]:
        """Open this client's session on its pinned shard."""
        return self._session_call("open-session")

    def close_session(self) -> dict[str, int]:
        """Close the session; returns its final outcome counters."""
        reply = self._session_call("close-session")
        counters = reply.get("counters", {})
        return {str(k): int(v) for k, v in counters.items()}

    def stats(self) -> dict[str, Any]:
        """Fleet-wide stats aggregated across every live shard."""
        return self._round_trip("stats")

    def telemetry(self) -> dict[str, Any]:
        """Fleet-wide telemetry: merged metrics, exposition text, and the
        drained traces/slow traces of every site (front door + workers).

        Draining is destructive by design — each call returns the traces
        completed since the last one.  Stitch the partial-trace dicts with
        :func:`repro.obs.trace.stitch_traces` to reassemble one span tree
        per gesture.
        """
        return self._round_trip("telemetry")

    def drain(self, timeout: float | None = None) -> bool:
        """Ask the server to finish all in-flight gestures fleet-wide."""
        payload = {} if timeout is None else {"timeout": timeout}
        return bool(self._round_trip("drain", payload=payload).get("drained"))

    # ------------------------------------------------------------------ #
    # the service protocol (what ExplorationSession needs)
    # ------------------------------------------------------------------ #
    def execute(self, command: GestureCommand) -> OutcomeEnvelope:
        """Execute one gesture command on the session's shard."""
        reply = self._session_call("execute", {"command": command.to_dict()})
        return _envelope_of(reply, "execute response")

    def run(self, script: GestureScript) -> list[OutcomeEnvelope]:
        """Execute a whole script in order; every envelope, once all are in."""
        return list(self.run_stream(script))

    def run_stream(self, script: GestureScript) -> Iterator[OutcomeEnvelope]:
        """Execute a script, yielding each gesture's envelope as it completes.

        The server answers ``run-script`` with one ``partial`` frame per
        completed gesture plus a terminal ``done`` frame; the first failing
        gesture instead ends the stream with its typed error.  Other
        threads wait for the stream (it holds the client's lock); this one
        may abandon it — leftover frames are skipped by id.
        """
        with self._lock:
            for payload in self._responses(
                "run-script", {"script": script.to_dict()}, self.session_id
            ):
                if payload.get("done"):
                    return
                yield _envelope_of(payload, "run-script frame")

    def load_column(self, name: str, values: Iterable, replace: bool = False):
        """Ship a session-private column by value (small columns only —
        big base data belongs in the published snapshot, not on the wire).
        """
        return self._session_call(
            "load-column",
            {"name": name, "values": encode_value(list(values)), "replace": replace},
        )

    def append_rows(
        self,
        object_name: str,
        values: Iterable | None = None,
        columns: Any = None,
    ) -> int:
        """Append rows to a loaded object on the session's shard.

        Mirrors :meth:`repro.service.LocalExplorationService.append_rows`:
        ``values`` grows a standalone column, ``columns`` a table (every
        attribute, equal lengths).  Values must be finite numerics — the
        JSON wire refuses NaN/inf.  A convenience over :meth:`execute` with
        an :class:`repro.core.commands.AppendCommand` (the shard schedules
        the tail merge); returns the object's new row count.
        """
        command = AppendCommand.of(object_name, values, columns)
        return int(self.execute(command).payload["num_rows"])

    def reset(self) -> None:
        """Recreate the session server-side: close it, then reopen fresh."""
        self._session_call("close-session")
        self.open_session()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the socket (the server-side session stays until closed)."""
        with self._lock:
            if not self._closed:
                self._closed = True
                try:
                    self._sock.close()
                except OSError:
                    pass

    def __enter__(self) -> "ShardedClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False


#: Touch-gesture command kinds whose envelopes reconstruct an outcome.
_GESTURE_TYPES = {
    "tap": GestureType.TAP,
    "slide": GestureType.SLIDE,
    "slide-path": GestureType.SLIDE,
    "zoom-in": GestureType.ZOOM_IN,
    "zoom-out": GestureType.ZOOM_OUT,
    "rotate": GestureType.ROTATE,
    "pan": GestureType.PAN,
}


def _envelope_of(payload: dict[str, Any], what: str) -> OutcomeEnvelope:
    """The envelope a response payload carries, with a counters-only
    :class:`GestureOutcome` rebuilt for touch gestures.

    Live outcome objects never cross the wire, but
    :class:`repro.core.session.ExplorationSession` accounts history and
    summaries off ``envelope.payload`` — so the client reconstructs the
    measurement surface (counters, latency) from the envelope.  Row-level
    detail (rowids, result values) stays server-side by design.
    """
    wire = payload.get("envelope")
    if not isinstance(wire, dict):
        raise MalformedFrameError(f"{what} carried no envelope")
    envelope = OutcomeEnvelope.from_dict(wire)
    gesture_type = _GESTURE_TYPES.get(envelope.command_kind)
    if gesture_type is None:
        return envelope
    outcome = GestureOutcome(
        gesture_type=gesture_type,
        view_name=envelope.view_name or "",
        object_name=envelope.object_name or "",
        duration_s=envelope.duration_s,
        **{name: getattr(envelope, name) for name in DETERMINISTIC_COUNTERS},
    )
    if envelope.max_touch_latency_s > 0:
        outcome.per_touch_latencies_s = np.array([envelope.max_touch_latency_s])
    envelope.payload = outcome
    return envelope
