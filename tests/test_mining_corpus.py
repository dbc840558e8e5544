"""Trace-corpus storage: round-trips, torn writes, garbage, versioning.

Fleet corpora are append-only files written by many processes, so the
reader's contract is the one the wire protocol tests establish for
frames: any defect — truncated line, binary garbage, foreign version,
malformed command — surfaces as the typed
:class:`repro.errors.TraceCorpusError` (never a bare ``KeyError`` or
``JSONDecodeError``), and the tolerant mode skips-and-counts instead of
dying.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commands import ShowColumn, Slide, Tap, TimedCommand
from repro.errors import DbTouchError, MiningError, TraceCorpusError
from repro.mining import TraceCorpus, mine_corpus
from repro.mining.corpus import RECORD_VERSION, CorpusReadReport, decode_record, encode_record


def timed(command, think_s: float = 0.1) -> TimedCommand:
    return TimedCommand(command=command, think_s=think_s)


def sample_trace(obj: str = "data") -> list[TimedCommand]:
    view = f"{obj}-v"
    return [
        timed(ShowColumn(object_name=obj, view_name=view)),
        timed(Slide(view=view, duration=0.4, start_fraction=0.2, end_fraction=0.8)),
        timed(Tap(view=view, fraction=0.5)),
    ]


# --------------------------------------------------------------------- #
# the decode fuzz: arbitrary bytes must map to the typed error
# --------------------------------------------------------------------- #


@given(st.binary(max_size=2048))
@settings(max_examples=300, deadline=None)
def test_decode_arbitrary_bytes_raises_only_corpus_error(blob):
    """decode_record never leaks an untyped exception, whatever the bytes."""
    try:
        decode_record(blob)
    except TraceCorpusError:
        pass


@given(
    line=st.text(max_size=512),
    cut=st.integers(min_value=0, max_value=512),
)
@settings(max_examples=300, deadline=None)
def test_decode_truncated_valid_record_raises_only_corpus_error(line, cut):
    """Any prefix of a valid record (a torn write) fails with the typed error."""
    valid = encode_record("t0", 0, sample_trace()[1])
    torn = (valid + line)[:cut]
    try:
        record = decode_record(torn)
    except TraceCorpusError:
        return
    assert record.trace_id == "t0"


@given(
    mutation=st.fixed_dictionaries(
        {},
        optional={
            "version": st.one_of(st.none(), st.integers(-3, 9), st.text(max_size=4)),
            "trace": st.one_of(st.none(), st.integers(), st.just("")),
            "seq": st.one_of(st.none(), st.booleans(), st.integers(-9, -1), st.text()),
            "command": st.one_of(
                st.none(),
                st.integers(),
                st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
            ),
        },
    )
)
@settings(max_examples=300, deadline=None)
def test_decode_structured_mutations_raise_only_corpus_error(mutation):
    """Field-level corruption of a valid record stays inside the typed error."""
    record = json.loads(encode_record("t0", 3, sample_trace()[2]))
    record.update(mutation)
    try:
        decoded = decode_record(json.dumps(record))
    except TraceCorpusError:
        return
    # the untouched record (empty mutation) must still decode
    assert decoded.seq == record["seq"]


def test_decode_round_trips_a_timed_command():
    original = sample_trace()[1]
    record = decode_record(encode_record("trace-9", 4, original))
    assert record.trace_id == "trace-9"
    assert record.seq == 4
    assert record.timed == original


def test_error_hierarchy():
    """The corpus error is a MiningError is a DbTouchError."""
    assert issubclass(TraceCorpusError, MiningError)
    assert issubclass(MiningError, DbTouchError)


# --------------------------------------------------------------------- #
# file-level corruption: tolerant skip accounting, strict raising
# --------------------------------------------------------------------- #


def test_append_and_read_round_trip(tmp_path):
    corpus = TraceCorpus(tmp_path / "corpus")
    first = corpus.append_trace(sample_trace("a"))
    second = corpus.append_trace(sample_trace("b"))
    assert (first, second) == ("t0", "t1")
    traces, report = corpus.read_traces()
    assert list(traces) == ["t0", "t1"]
    assert traces["t0"] == sample_trace("a")
    assert traces["t1"] == sample_trace("b")
    assert (report.files, report.records, report.skipped) == (1, 6, 0)
    assert len(corpus) == 2
    # trace numbering resumes after reopening the same directory
    reopened = TraceCorpus(tmp_path / "corpus")
    assert reopened.append_trace(sample_trace("c")) == "t2"


def test_interleaved_multi_writer_records_reassemble(tmp_path):
    """Out-of-order sequence numbers across files regroup per trace."""
    corpus = TraceCorpus(tmp_path / "corpus")
    trace = sample_trace()
    lines_a = [encode_record("tx", 2, trace[2]), encode_record("ty", 0, trace[0])]
    lines_b = [encode_record("tx", 0, trace[0]), encode_record("tx", 1, trace[1])]
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "a.jsonl").write_text("\n".join(lines_a) + "\n")
    (tmp_path / "corpus" / "b.jsonl").write_text("\n".join(lines_b) + "\n")
    traces, report = corpus.read_traces()
    assert traces["tx"] == trace
    assert traces["ty"] == trace[:1]
    assert report.files == 2 and report.records == 4


def test_missing_directory_raises_typed_error(tmp_path):
    corpus = TraceCorpus(tmp_path / "never-created")
    with pytest.raises(TraceCorpusError):
        corpus.files()
    with pytest.raises(TraceCorpusError):
        corpus.read_traces()


@given(
    garbage=st.lists(
        st.one_of(
            st.binary(max_size=64).filter(lambda b: b.strip()),
            st.just(b'{"version": 2, "trace": "t9", "seq": 0}'),
            st.just(b'["not", "an", "object"]'),
            st.just(b"\xff\xfe garbage"),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=100, deadline=None)
def test_tolerant_read_skips_and_counts_garbage_lines(tmp_path_factory, garbage):
    """Good records survive; each bad line is skipped and accounted once."""
    root = tmp_path_factory.mktemp("corpus")
    corpus = TraceCorpus(root)
    corpus.append_trace(sample_trace())
    bad = 0
    with (root / "traces.jsonl").open("ab") as handle:
        for line in garbage:
            written = line.replace(b"\n", b" ")
            try:
                decode_record(written)
            except TraceCorpusError:
                bad += 1
            handle.write(written + b"\n")
    traces, report = corpus.read_traces(strict=False)
    assert traces["t0"] == sample_trace()
    assert report.skipped == bad
    assert report.records == 3 + (len(garbage) - bad)
    assert len(report.errors) == min(bad, report.max_errors)
    assert all(":" in err for err in report.errors)


def test_strict_read_raises_with_file_and_line_context(tmp_path):
    corpus = TraceCorpus(tmp_path / "corpus")
    corpus.append_trace(sample_trace())
    with (tmp_path / "corpus" / "traces.jsonl").open("a") as handle:
        handle.write("{torn")
    with pytest.raises(TraceCorpusError, match=r"traces\.jsonl:4"):
        list(corpus.iter_records(strict=True)[0])


def test_mixed_version_lines_are_version_gated(tmp_path):
    """Records stamped with a foreign version are refused, not misread."""
    corpus = TraceCorpus(tmp_path / "corpus")
    corpus.append_trace(sample_trace())
    path = tmp_path / "corpus" / "traces.jsonl"
    future = json.loads(encode_record("t1", 0, sample_trace()[0]))
    future["version"] = RECORD_VERSION + 1
    with path.open("a") as handle:
        handle.write(json.dumps(future) + "\n")
    with pytest.raises(TraceCorpusError, match="version"):
        corpus.read_traces(strict=True)
    traces, report = corpus.read_traces(strict=False)
    assert list(traces) == ["t0"]
    assert report.skipped == 1 and "version" in report.errors[0]


def test_error_sample_is_bounded(tmp_path):
    """A rotten file cannot balloon the report past max_errors."""
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "rotten.jsonl").write_text("\n".join(["{bad"] * 100) + "\n")
    report = CorpusReadReport(max_errors=5)
    _, live = TraceCorpus(root).iter_records(strict=False)
    assert live.max_errors == 32  # the default bound
    records, report = TraceCorpus(root).iter_records(strict=False)
    assert list(records) == []
    assert report.skipped == 100
    assert len(report.errors) == report.max_errors


def test_mine_corpus_carries_skip_accounting(tmp_path):
    """The miner's report surfaces the corpus's partial failures."""
    corpus = TraceCorpus(tmp_path / "corpus")
    corpus.append_trace(sample_trace())
    corpus.append_trace(sample_trace("other"))
    with (tmp_path / "corpus" / "traces.jsonl").open("a") as handle:
        handle.write("not json at all\n")
    report = mine_corpus(corpus, order=2)
    assert report.traces == 2
    assert report.records == 6
    assert report.skipped == 1 and len(report.errors) == 1
    assert report.model.traces_observed == 2
    assert report.model.predict("data", ["show-column", "slide"]) == "tap"
    with pytest.raises(TraceCorpusError):
        mine_corpus(corpus, strict=True)
