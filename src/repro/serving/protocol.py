"""The serving wire protocol: newline-delimited JSON frames.

One frame is one JSON object on one line, terminated by ``\\n``.  Frames
carry the *existing* serializable payloads of the command protocol —
:meth:`repro.core.commands.GestureCommand.to_dict`,
:meth:`repro.core.commands.GestureScript.to_dict`,
:meth:`repro.service.OutcomeEnvelope.to_dict` — wrapped in typed
request/response envelopes with request ids, so responses can be matched
to requests and errors arrive as data instead of dropped connections:

* request:  ``{"id": 7, "verb": "execute", "session": "u1", "payload": {...}}``
* success:  ``{"id": 7, "ok": true, "payload": {...}}``
* failure:  ``{"id": 7, "ok": false, "error": {"kind": "admission", "message": "..."}}``

Each request gets one response, except ``run-script``: one success frame
per executed command (``{"partial": true, "seq": i, "envelope": {...}}``),
closed by ``{"done": true, "total": n}`` or the first failing command's
typed error.  Whatever the command vocabulary can say — live ingestion
included (:class:`repro.core.commands.AppendCommand`) — travels as a
command: session work has no verbs beyond ``execute`` and ``run-script``.

Every decoding failure is a *typed* exception from the
:class:`repro.errors.ProtocolError` hierarchy — oversized frames, bad
JSON, non-object frames and malformed envelopes each have their own class
— which is what lets the front door turn hostile bytes into error
responses instead of crashing a worker (see
``tests/test_serving_protocol.py`` for the fuzz suite).  The ``error.kind``
string maps back to the same exception classes on the client side via
:func:`exception_from_payload`, so a :class:`repro.errors.AdmissionError`
shed at the front door is raised as an ``AdmissionError`` in the client
process too.

Behind the front door, a shard's pipe carries the same JSON, one line a
message under its id (:func:`pipe_frame`, read back through a
:class:`FrameDecoder` by :func:`pipe_messages`).  A request body is the
request's wire form, so the front door forwards a client's frame
as it arrived; an answer body is a response without its id, encoded once
by the worker, which the front door writes out under the client's request
id without decoding it (:func:`answer_frame`).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    AdmissionError,
    CommandError,
    DbTouchError,
    FrameTooLargeError,
    IngestError,
    MalformedFrameError,
    ProtocolError,
    ServiceError,
    SnapshotError,
    UnknownVerbError,
    WorkerCrashedError,
)

#: Version tag carried by ``hello`` responses; a client refuses to talk to
#: a server speaking a different protocol generation (2: appends travel as
#: ``execute`` commands, every ``run-script`` is answered as a stream).
PROTOCOL_VERSION = 2

#: Default upper bound on one encoded frame (request or response).
DEFAULT_MAX_FRAME_BYTES = 1 << 20

#: The request vocabulary of the sharded serving protocol.
VERBS = frozenset(
    {
        "hello",  # protocol handshake: server version + topology
        "open-session",  # create a session (pinned to a shard)
        "close-session",  # tear a session down, returning final counters
        "execute",  # one GestureCommand (appends included) -> one OutcomeEnvelope
        "run-script",  # a GestureScript -> one partial frame per envelope, then done
        "load-column",  # host a small session-private column by value
        "stats",  # aggregate per-worker SessionMetrics + scheduler stats
        "telemetry",  # merged metrics snapshot + drained gesture traces
        "drain",  # finish all in-flight gestures, then refuse new work
    }
)

#: ``error.kind`` wire tags for the typed errors the protocol can carry.
#: The mapping is deliberately explicit (no ``__name__`` reflection): wire
#: tags are a compatibility surface and must not drift with refactors.
_ERROR_KINDS: dict[str, type[DbTouchError]] = {
    "protocol": ProtocolError,
    "malformed-frame": MalformedFrameError,
    "frame-too-large": FrameTooLargeError,
    "unknown-verb": UnknownVerbError,
    "admission": AdmissionError,
    "worker-crashed": WorkerCrashedError,
    "command": CommandError,
    "snapshot": SnapshotError,
    "ingest": IngestError,
    "service": ServiceError,
    "error": DbTouchError,
}
_KIND_BY_TYPE: dict[type[DbTouchError], str] = {
    cls: kind for kind, cls in reversed(_ERROR_KINDS.items())
}


def error_payload(exc: BaseException) -> dict[str, str]:
    """Encode an exception as a wire error: most-specific known kind wins.

    Unknown exception types degrade to the generic ``"error"`` kind rather
    than leaking arbitrary class names onto the wire.
    """
    for cls in type(exc).__mro__:
        kind = _KIND_BY_TYPE.get(cls)
        if kind is not None:
            return {"kind": kind, "message": str(exc)}
    return {"kind": "error", "message": f"{type(exc).__name__}: {exc}"}


def exception_from_payload(payload: Any) -> DbTouchError:
    """Rebuild the typed exception an ``error`` payload describes."""
    if not isinstance(payload, dict):
        return DbTouchError(f"malformed error payload: {payload!r}")
    kind = payload.get("kind")
    message = str(payload.get("message", ""))
    cls = _ERROR_KINDS.get(kind, DbTouchError)
    return cls(message)


# --------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------- #


_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def encode_json(payload: dict[str, Any]) -> bytes:
    """Encode one JSON object compactly, with no newline."""
    try:
        return _ENCODER.encode(payload).encode("utf-8")
    except (TypeError, ValueError, RecursionError) as exc:
        raise MalformedFrameError(f"payload is not JSON-encodable: {exc}") from exc


def bounded(frame: bytes, max_bytes: int) -> bytes:
    """``frame``, unless it is longer than ``max_bytes``."""
    if len(frame) > max_bytes:
        raise FrameTooLargeError(f"encoded frame is {len(frame)} bytes (limit {max_bytes})")
    return frame


def encode_frame(payload: dict[str, Any], max_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """Encode one JSON object as a newline-terminated frame."""
    return bounded(encode_json(payload) + b"\n", max_bytes)


def decode_frame(line: bytes | str) -> dict[str, Any]:
    """Decode one frame line into a JSON object (newline optional)."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedFrameError(f"frame is not valid UTF-8: {exc}") from exc
    try:
        payload = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested past the stack
        raise MalformedFrameError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise MalformedFrameError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


class FrameDecoder:
    """Incremental frame decoder for a byte stream.

    Feed it whatever the transport produced — half a frame, three frames,
    a frame split across ten TCP segments — and it yields complete decoded
    objects in order.  A partial frame simply stays buffered (truncated
    input never errors until the peer disconnects mid-frame), while a
    frame that grows past ``max_bytes`` without a newline raises
    :class:`repro.errors.FrameTooLargeError` *before* buffering unbounded
    garbage, which is the protocol's memory-safety property.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        if max_bytes < 2:
            raise ProtocolError("max_bytes must allow at least one byte plus newline")
        self.max_bytes = max_bytes
        self._buffer = bytearray()
        self._scanned = 0  # leading buffered bytes known to hold no newline

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered waiting for their frame's newline."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        """Buffer ``data`` and return every frame it completed."""
        return [decode_frame(line) for line in self.lines(data)]

    def lines(self, data: bytes) -> list[bytes]:
        """Buffer ``data`` and return every frame line it completed, undecoded
        (keep-alive newlines dropped)."""
        buffer = self._buffer
        buffer += data
        frames: list[bytes] = []
        start, scan = 0, self._scanned  # a big frame's every read scans only its own bytes
        while (newline := buffer.find(b"\n", scan)) >= 0:
            line = bytes(buffer[start:newline])
            start = scan = newline + 1
            if len(line) > self.max_bytes:
                del buffer[:start]
                self._scanned = 0
                raise FrameTooLargeError(f"frame is {len(line)} bytes (limit {self.max_bytes})")
            if line.strip():  # else a bare keep-alive newline
                frames.append(line)
        del buffer[:start]  # one shift a read, however many lines it held
        self._scanned = len(buffer)
        if len(buffer) > self.max_bytes:
            buffer.clear()
            self._scanned = 0
            raise FrameTooLargeError(f"frame exceeded {self.max_bytes} bytes without a newline")
        return frames


# --------------------------------------------------------------------- #
# envelopes
# --------------------------------------------------------------------- #


def _require_str(payload: dict, key: str, optional: bool = False) -> str | None:
    value = payload.get(key)
    if value is None and optional:
        return None
    if not isinstance(value, str) or not value:
        raise MalformedFrameError(f"envelope field {key!r} must be a non-empty string")
    return value


def _require_id(payload: dict) -> int:
    value = payload.get("id")
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise MalformedFrameError("envelope field 'id' must be a non-negative integer")
    return value


@dataclass(frozen=True)
class Request:
    """One client request: a verb plus its payload, tagged with an id.

    ``trace`` is the optional distributed-tracing capsule
    (:meth:`repro.obs.trace.TraceContext.to_dict`): a caller that wants
    this request's server-side spans stitched into its own trace sends
    one.  The field is strictly additive — servers that predate it ignore
    unknown envelope keys, and a malformed capsule degrades to untraced
    rather than erroring, so tracing can never fail a request.
    """

    id: int
    verb: str
    session: str | None = None
    payload: dict[str, Any] = field(default_factory=dict)
    trace: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        """The request's wire form."""
        wire: dict[str, Any] = {"id": self.id, "verb": self.verb}
        if self.session is not None:
            wire["session"] = self.session
        if self.payload:
            wire["payload"] = self.payload
        if self.trace is not None:
            wire["trace"] = self.trace
        return wire

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Request":
        """Validate and rebuild a request envelope from wire data.

        Raises :class:`repro.errors.MalformedFrameError` for structural
        problems and :class:`repro.errors.UnknownVerbError` for a
        well-formed envelope naming a verb outside :data:`VERBS` — the
        distinction matters to the front door, which can still answer an
        unknown verb *by id* but must drop an envelope with no usable id.
        """
        request_id = _require_id(payload)
        verb = _require_str(payload, "verb")
        body = payload.get("payload", {})
        if not isinstance(body, dict):
            raise MalformedFrameError("request 'payload' must be an object")
        session = _require_str(payload, "session", optional=True)
        if verb not in VERBS:
            raise UnknownVerbError(f"unknown verb {verb!r} (request id {request_id})")
        trace = payload.get("trace")
        if not isinstance(trace, dict):
            trace = None  # absent or mangled: untraced, never an error
        return cls(id=request_id, verb=verb, session=session, payload=body, trace=trace)


@dataclass(frozen=True)
class Response:
    """One server response: success payload or a typed error, by request id."""

    id: int
    ok: bool
    payload: dict[str, Any] = field(default_factory=dict)
    error: dict[str, str] | None = None

    def to_dict(self) -> dict[str, Any]:
        """The response's wire form."""
        wire: dict[str, Any] = {"id": self.id, "ok": self.ok}
        if self.ok:
            wire["payload"] = self.payload
        else:
            wire["error"] = self.error if self.error is not None else {}
        return wire

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Response":
        """Validate and rebuild a response envelope from wire data."""
        response_id = _require_id(payload)
        ok = payload.get("ok")
        if not isinstance(ok, bool):
            raise MalformedFrameError("response field 'ok' must be a boolean")
        if ok:
            body = payload.get("payload", {})
            if not isinstance(body, dict):
                raise MalformedFrameError("response 'payload' must be an object")
            return cls(id=response_id, ok=True, payload=body)
        error = payload.get("error")
        if not isinstance(error, dict):
            raise MalformedFrameError("error response must carry an 'error' object")
        return cls(id=response_id, ok=False, error=error)

    @classmethod
    def success(cls, request_id: int, payload: dict[str, Any] | None = None) -> "Response":
        """A success response for ``request_id``."""
        return cls(id=request_id, ok=True, payload=payload if payload is not None else {})

    @classmethod
    def failure(cls, request_id: int, exc: BaseException) -> "Response":
        """A typed error response for ``request_id``."""
        return cls(id=request_id, ok=False, error=error_payload(exc))

    def raise_if_error(self) -> dict[str, Any]:
        """Return the payload, or raise the typed error this response carries."""
        if self.ok:
            return self.payload
        raise exception_from_payload(self.error)


# --------------------------------------------------------------------- #
# the shard pipe
# --------------------------------------------------------------------- #

#: A pipe message has no size bound: both of its ends are this program.
PIPE_MAX_BYTES = sys.maxsize
_OK = b'{"ok":true,'
_ENVELOPE = b'{"ok":true,"payload":{"envelope":'


def pipe_frame(ident: int, body: bytes) -> bytes:
    """One pipe message: its id (``-1`` is a worker's ready handshake), a
    space, the body and a newline.  A body is one line of compact JSON —
    a client's frame split off at its newline, or :func:`encode_json`'s
    output — so it holds no raw newline."""
    return b"%d %b\n" % (ident, body)


def pipe_messages(lines: list[bytes]) -> list[tuple[int, bytes]]:
    """The ``(id, body)`` of each pipe line a :class:`FrameDecoder` completed."""
    return [(int(ident), body) for ident, _, body in (line.partition(b" ") for line in lines)]


def request_body(
    verb: str, session: str | None = None, payload: dict | None = None, trace: Any = None
) -> bytes:
    """A pipe request the front door makes itself, in the wire's form."""
    return encode_json(Request(0, verb, session, payload or {}, trace).to_dict())


def answer_body(payload: dict[str, Any]) -> bytes:
    """A success answer; a payload JSON cannot carry becomes its typed error."""
    try:
        return encode_json({"ok": True, "payload": payload})
    except ProtocolError as exc:
        return error_body(exc)


def error_body(exc: BaseException) -> bytes:
    """A typed failure answer."""
    return encode_json({"ok": False, "error": error_payload(exc)})


def answer_error(body: bytes) -> DbTouchError | None:
    """The typed error an answer carries (decoded only if it is one)."""
    if body.startswith(_OK):
        return None
    return exception_from_payload(decode_frame(body).get("error"))


def answer_payload(body: bytes) -> dict[str, Any]:
    """An answer's payload, or raise the typed error it carries."""
    return Response.from_dict({**decode_frame(body), "id": 0}).raise_if_error()


def answer_frame(request_id: int, body: bytes) -> bytes:
    """The wire frame of an answer: its body under ``request_id``, id first —
    the bytes ``encode_frame`` makes of the same :class:`Response`."""
    return b'{"id":%d,%b\n' % (request_id, body[1:])


def partial_frame(request_id: int, seq: int, body: bytes) -> bytes:
    """A ``run-script`` partial frame made from an ``execute`` success answer."""
    envelope = body[len(_ENVELOPE) :]
    return b'{"id":%d,"ok":true,"payload":{"partial":true,"seq":%d,"envelope":%b\n' % (
        request_id,
        seq,
        envelope,
    )
