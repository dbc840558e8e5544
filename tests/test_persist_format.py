"""Unit tests for the on-disk chunked column format."""

import threading

import numpy as np
import pytest

from repro.errors import PersistFormatError
from repro.persist.format import (
    HEADER_SIZE,
    ColumnFormat,
    atomic_replace,
    chunk_min_max,
    read_format,
)


class TestColumnFormat:
    def test_header_round_trip(self):
        fmt = ColumnFormat(dtype_name="int64", num_rows=1000, chunk_rows=128)
        raw = fmt.to_header()
        assert len(raw) == HEADER_SIZE
        assert ColumnFormat.from_header(raw) == fmt

    def test_layout_arithmetic(self):
        fmt = ColumnFormat(dtype_name="int64", num_rows=1000, chunk_rows=128)
        assert fmt.num_chunks == 8
        assert fmt.data_offset == HEADER_SIZE
        assert fmt.stats_offset == HEADER_SIZE + 1000 * 8
        assert fmt.file_size == fmt.stats_offset + 2 * 8 * 8

    def test_string_dtype_round_trip(self):
        fmt = ColumnFormat(dtype_name="str12", num_rows=10, chunk_rows=4)
        assert ColumnFormat.from_header(fmt.to_header()).dtype.name == "str12"

    def test_invalid_parameters(self):
        with pytest.raises(PersistFormatError):
            ColumnFormat(dtype_name="int64", num_rows=-1, chunk_rows=4)
        with pytest.raises(PersistFormatError):
            ColumnFormat(dtype_name="int64", num_rows=4, chunk_rows=0)

    def test_bad_magic_rejected(self):
        raw = bytearray(ColumnFormat("int64", 10, 4).to_header())
        raw[:8] = b"NOTMAGIC"
        with pytest.raises(PersistFormatError, match="bad magic"):
            ColumnFormat.from_header(bytes(raw))

    def test_foreign_version_rejected(self):
        raw = bytearray(ColumnFormat("int64", 10, 4).to_header())
        raw[8] = 99
        with pytest.raises(PersistFormatError, match="version"):
            ColumnFormat.from_header(bytes(raw))

    def test_truncated_header_rejected(self):
        with pytest.raises(PersistFormatError, match="truncated"):
            ColumnFormat.from_header(b"DBTCOL01")

    def test_unknown_dtype_rejected(self):
        raw = bytearray(ColumnFormat("int64", 10, 4).to_header())
        raw[48:80] = b"martian".ljust(32, b"\0")  # the 32s name field
        with pytest.raises(PersistFormatError):
            ColumnFormat.from_header(bytes(raw))


class TestFileValidation:
    def test_read_format_detects_truncation(self, tmp_path):
        fmt = ColumnFormat(dtype_name="int64", num_rows=100, chunk_rows=32)
        path = tmp_path / "col.dbtc"
        path.write_bytes(fmt.to_header() + b"\0" * 16)  # data region missing
        with pytest.raises(PersistFormatError, match="truncated"):
            read_format(path)

    def test_read_format_missing_file(self, tmp_path):
        with pytest.raises(PersistFormatError, match="cannot read"):
            read_format(tmp_path / "absent.dbtc")


class TestZonemap:
    def test_chunk_min_max_handles_strings(self):
        low, high = chunk_min_max(np.asarray(["pear", "apple", "plum"]))
        assert (low, high) == ("apple", "plum")


class TestAtomicReplace:
    def test_two_writers_of_one_target_each_leave_a_complete_file(self, tmp_path):
        """Two writers with both temp files open at once (a shared temp name —
        the manifest's old ``catalog.json.tmp`` — interleaved them): each
        commit is a complete file, and the last one is what stays."""
        target = tmp_path / "catalog.json"
        payloads = [b"a" * 200_000, b"b" * 200_000]
        both_open = threading.Barrier(2)
        committed: list[bytes] = []

        def write(payload: bytes) -> None:
            with atomic_replace(target) as handle:
                both_open.wait(timeout=10)
                for offset in range(0, len(payload), 4_096):
                    handle.write(payload[offset : offset + 4_096])
            committed.append(target.read_bytes())

        writers = [threading.Thread(target=write, args=(payload,)) for payload in payloads]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=10)
            assert not writer.is_alive()
        assert len(committed) == 2 and all(data in payloads for data in committed)
        assert target.read_bytes() in payloads
        assert list(tmp_path.iterdir()) == [target]  # no temp file left behind

    def test_a_failed_write_leaves_the_target_untouched(self, tmp_path):
        target = tmp_path / "model.json"
        target.write_text("complete")
        with pytest.raises(RuntimeError):
            with atomic_replace(target, "w") as handle:
                handle.write("half")
                raise RuntimeError("writer died")
        assert target.read_text() == "complete"
        assert list(tmp_path.iterdir()) == [target]
