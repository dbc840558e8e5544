"""Wire-protocol unit tests plus the malformed-frame fuzz suite.

The fuzz classes are the armor-plating proof for the sharded serving
tier: truncated frames, oversized payloads, binary garbage, bad JSON,
non-object frames and unknown verbs must all surface as *typed*
:class:`repro.errors.ProtocolError` subclasses (or typed error responses
on a live socket) — never as a crashed worker or an unhandled exception
in the front door.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commands import GestureCommand, GestureScript, Slide
from repro.errors import (
    AdmissionError,
    CommandError,
    DbTouchError,
    FrameTooLargeError,
    MalformedFrameError,
    ProtocolError,
    UnknownVerbError,
    WorkerCrashedError,
)
from repro.serving.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    PIPE_MAX_BYTES,
    VERBS,
    FrameDecoder,
    Request,
    Response,
    answer_body,
    answer_error,
    answer_frame,
    decode_frame,
    encode_frame,
    error_body,
    error_payload,
    exception_from_payload,
    partial_frame,
    pipe_frame,
    pipe_messages,
)


class TestFraming:
    def test_encode_decode_round_trip(self):
        payload = {"id": 3, "verb": "execute", "payload": {"x": [1, 2.5, "s", None]}}
        assert decode_frame(encode_frame(payload)) == payload

    def test_encoded_frame_is_one_line(self):
        data = encode_frame({"id": 1, "verb": "hello"})
        assert data.endswith(b"\n") and data.count(b"\n") == 1

    def test_encode_rejects_oversized(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame({"blob": "x" * DEFAULT_MAX_FRAME_BYTES})

    def test_encode_rejects_unencodable(self):
        with pytest.raises(MalformedFrameError):
            encode_frame({"obj": object()})
        with pytest.raises(MalformedFrameError):
            encode_frame({"nan": float("nan")})  # NaN is not JSON

    def test_decode_rejects_bad_json(self):
        with pytest.raises(MalformedFrameError):
            decode_frame(b"{not json")

    def test_decode_rejects_non_object(self):
        for line in (b"[1,2,3]", b'"str"', b"17", b"null", b"true"):
            with pytest.raises(MalformedFrameError):
                decode_frame(line)

    def test_decode_rejects_bad_utf8(self):
        with pytest.raises(MalformedFrameError):
            decode_frame(b'\xff\xfe{"id":1}')


class TestFrameDecoder:
    def test_split_frame_reassembly(self):
        decoder = FrameDecoder()
        wire = encode_frame({"id": 1}) + encode_frame({"id": 2})
        frames = []
        for i in range(0, len(wire), 3):  # drip-feed 3 bytes at a time
            frames.extend(decoder.feed(wire[i : i + 3]))
        assert [f["id"] for f in frames] == [1, 2]
        assert decoder.pending_bytes == 0

    def test_truncated_frame_stays_buffered(self):
        decoder = FrameDecoder()
        assert decoder.feed(b'{"id": 1, "verb": "hel') == []
        assert decoder.pending_bytes > 0  # waiting for the newline, no error

    def test_oversized_without_newline_raises_before_buffering_forever(self):
        decoder = FrameDecoder(max_bytes=64)
        with pytest.raises(FrameTooLargeError):
            decoder.feed(b"x" * 65)
        assert decoder.pending_bytes == 0  # buffer dropped, decoder reusable
        assert decoder.feed(encode_frame({"id": 1}, max_bytes=64)) == [{"id": 1}]

    def test_bare_newlines_are_keepalives(self):
        decoder = FrameDecoder()
        assert decoder.feed(b"\n\n  \n") == []

    def test_decoder_min_size(self):
        with pytest.raises(ProtocolError):
            FrameDecoder(max_bytes=1)


class TestPipeFraming:
    MESSAGES = [(7, b'{"verb":"ping"}'), (-1, b"{}"), (2**40, b'{"ok":true,"payload":{"b":[2]}}')]

    def test_a_message_cut_anywhere_comes_out_once_whole(self):
        stream = b"".join(pipe_frame(ident, body) for ident, body in self.MESSAGES)

        def read(*pieces: bytes) -> list[tuple[int, bytes]]:
            decoder = FrameDecoder(max_bytes=PIPE_MAX_BYTES)
            return [m for piece in pieces for m in pipe_messages(decoder.lines(piece))]

        for cut in range(len(stream) + 1):  # inside an id, a body, or between
            assert read(stream[:cut], stream[cut:]) == self.MESSAGES
        assert read(*(stream[i : i + 1] for i in range(len(stream)))) == self.MESSAGES

    def test_a_read_of_many_lines_shifts_its_buffer_once(self):
        decoder = FrameDecoder(max_bytes=64)
        stream = b"".join(encode_frame({"id": i}) for i in range(200))
        lines = decoder.lines(stream + b'{"id"')
        assert [decode_frame(line)["id"] for line in lines] == list(range(200))
        assert decoder.pending_bytes == 5
        assert decoder.feed(b":7}\n") == [{"id": 7}]
        with pytest.raises(FrameTooLargeError, match="limit 64"):  # whole, but too long
            decoder.lines(b"x" * 65 + b"\n" + b'{"id":8}\n')
        assert decoder.feed(b"") == [{"id": 8}]  # what followed it still reads

    def test_spliced_answers_are_the_encoded_responses(self):
        envelope = {"command_kind": "slide", "entries_returned": 3, "duration_s": 0.5}
        body = answer_body({"envelope": envelope})
        assert answer_error(body) is None
        assert answer_frame(12, body) == encode_frame(
            Response.success(12, {"envelope": envelope}).to_dict()
        )
        partial = {"partial": True, "seq": 4, "envelope": envelope}
        assert partial_frame(12, 4, body) == encode_frame(Response.success(12, partial).to_dict())
        refused = AdmissionError("full")
        assert answer_frame(3, error_body(refused)) == encode_frame(
            Response.failure(3, refused).to_dict()
        )
        assert isinstance(answer_error(error_body(refused)), AdmissionError)

    def test_an_answer_json_cannot_carry_is_a_typed_error(self):
        error = answer_error(answer_body({"x": float("nan")}))
        assert isinstance(error, MalformedFrameError)


class TestEnvelopes:
    def test_request_round_trip(self):
        request = Request(id=5, verb="execute", session="u1", payload={"k": 1})
        assert Request.from_dict(request.to_dict()) == request

    def test_request_requires_non_negative_int_id(self):
        for bad_id in (-1, "7", 1.5, True, None):
            with pytest.raises(MalformedFrameError):
                Request.from_dict({"id": bad_id, "verb": "hello"})

    def test_request_unknown_verb_is_typed_separately(self):
        # well-formed envelope, unknown verb: answerable by id
        with pytest.raises(UnknownVerbError):
            Request.from_dict({"id": 1, "verb": "self-destruct"})

    def test_request_rejects_bad_shapes(self):
        with pytest.raises(MalformedFrameError):
            Request.from_dict({"id": 1, "verb": "execute", "payload": [1]})
        with pytest.raises(MalformedFrameError):
            Request.from_dict({"id": 1, "verb": "execute", "session": 9})
        with pytest.raises(MalformedFrameError):
            Request.from_dict({"id": 1})  # no verb

    def test_all_verbs_accepted(self):
        for verb in VERBS:
            assert Request.from_dict({"id": 0, "verb": verb}).verb == verb

    def test_response_success_round_trip(self):
        response = Response.success(9, {"ok": 1})
        rebuilt = Response.from_dict(response.to_dict())
        assert rebuilt.raise_if_error() == {"ok": 1}

    def test_response_failure_raises_typed(self):
        response = Response.failure(4, AdmissionError("shed"))
        rebuilt = Response.from_dict(response.to_dict())
        with pytest.raises(AdmissionError, match="shed"):
            rebuilt.raise_if_error()

    def test_response_rejects_bad_shapes(self):
        with pytest.raises(MalformedFrameError):
            Response.from_dict({"id": 1, "ok": "yes"})
        with pytest.raises(MalformedFrameError):
            Response.from_dict({"id": 1, "ok": False})  # failure without error


class TestErrorKinds:
    @pytest.mark.parametrize(
        "exc,kind",
        [
            (MalformedFrameError("x"), "malformed-frame"),
            (FrameTooLargeError("x"), "frame-too-large"),
            (UnknownVerbError("x"), "unknown-verb"),
            (ProtocolError("x"), "protocol"),
            (AdmissionError("x"), "admission"),
            (WorkerCrashedError("x"), "worker-crashed"),
            (CommandError("x"), "command"),
            (DbTouchError("x"), "error"),
        ],
    )
    def test_most_specific_kind_wins_and_round_trips(self, exc, kind):
        payload = error_payload(exc)
        assert payload["kind"] == kind
        assert type(exception_from_payload(payload)) is type(exc)

    def test_unknown_exception_degrades_to_generic(self):
        payload = error_payload(ValueError("boom"))
        assert payload["kind"] == "error"
        assert "boom" in payload["message"]
        assert isinstance(exception_from_payload(payload), DbTouchError)

    def test_malformed_error_payload_degrades_to_generic(self):
        assert isinstance(exception_from_payload(None), DbTouchError)
        assert isinstance(exception_from_payload({"kind": "???"}), DbTouchError)


class TestCommandDeserializationHardening:
    """Garbage into the command layer must come out as CommandError."""

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            "slide",
            {"kind": None},
            {"kind": "no-such-kind"},
            {"kind": "choose-action", "view": "v", "action": "not-a-dict"},
            {"kind": "choose-action", "view": "v", "action": {"kind": "???"}},
            {
                "kind": "choose-action",
                "view": "v",
                "action": {"kind": "scan", "predicate": {"comparison": "??"}},
            },
            {
                "kind": "choose-action",
                "view": "v",
                "action": {"kind": "scan", "predicate": "nope"},
            },
            {"kind": "slide-path", "view": "v", "segments": "zig"},
            {"kind": "slide-path", "view": "v", "segments": [{"bogus_field": 1}]},
            {"kind": "slide-path", "view": "v", "segments": [17]},
        ],
    )
    def test_garbage_command_payloads(self, payload):
        with pytest.raises((CommandError, DbTouchError)):
            GestureCommand.from_dict(payload)

    @pytest.mark.parametrize("payload", [None, [], {"commands": "zig"}, {"commands": [17]}])
    def test_garbage_script_payloads(self, payload):
        with pytest.raises(CommandError):
            GestureScript.from_dict(payload)

    def test_valid_command_still_round_trips(self):
        command = Slide(view="v", duration=1.5, start_fraction=0.2, end_fraction=0.9)
        assert GestureCommand.from_dict(command.to_dict()) == command


class TestFrameFuzz:
    """Property fuzzing: the decode path never raises anything untyped."""

    @given(st.binary(max_size=4096))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_never_crash_decoder(self, data):
        decoder = FrameDecoder(max_bytes=2048)
        try:
            decoder.feed(data)
        except ProtocolError:
            pass  # typed: exactly what the front door handles

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=8), children, max_size=4),
            max_leaves=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_json_never_crashes_envelope_validation(self, value):
        line = json.dumps(value).encode()
        try:
            frame = decode_frame(line)
        except ProtocolError:
            return
        try:
            Request.from_dict(frame)
        except (MalformedFrameError, UnknownVerbError):
            pass  # typed rejection is the contract

    @given(
        st.dictionaries(
            st.text(max_size=12),
            st.none() | st.booleans() | st.integers() | st.text(max_size=16),
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_dicts_never_crash_command_decode(self, payload):
        try:
            GestureCommand.from_dict(payload)
        except DbTouchError:
            pass  # CommandError or a sibling: typed, catchable, survivable
