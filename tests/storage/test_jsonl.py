"""Unit tests for the JSON-lines storage primitives."""

import json

import pytest

from repro.storage.jsonl import StorageFormatError, read_records, write_records


class TestRoundTrip:
    def test_plain_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        records = [{"a": 1}, {"b": [1, 2]}, {"c": {"x": "y"}}]
        assert write_records(path, "test", records) == 3
        assert list(read_records(path, "test")) == records

    def test_gzip_file(self, tmp_path):
        path = tmp_path / "data.jsonl.gz"
        write_records(path, "test", [{"n": i} for i in range(100)])
        loaded = list(read_records(path, "test"))
        assert loaded == [{"n": i} for i in range(100)]
        # really compressed
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"

    def test_empty_record_list(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert write_records(path, "test", []) == 0
        assert list(read_records(path, "test")) == []

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "f.jsonl"
        write_records(path, "test", [{"x": 1}])
        assert path.exists()

    def test_unicode_roundtrip(self, tmp_path):
        path = tmp_path / "u.jsonl"
        write_records(path, "test", [{"text": "caffè ☕ milano"}])
        assert next(iter(read_records(path, "test")))["text"] == "caffè ☕ milano"


class TestValidation:
    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "k.jsonl"
        write_records(path, "alpha", [])
        with pytest.raises(StorageFormatError, match="expected kind"):
            list(read_records(path, "beta"))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        with pytest.raises(StorageFormatError, match="empty"):
            list(read_records(path, "x"))

    def test_non_storage_file_rejected(self, tmp_path):
        path = tmp_path / "n.jsonl"
        path.write_text('{"something": "else"}\n')
        with pytest.raises(StorageFormatError, match="not a repro storage file"):
            list(read_records(path, "x"))

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("not json\n")
        with pytest.raises(StorageFormatError, match="malformed header"):
            list(read_records(path, "x"))

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "r.jsonl"
        header = json.dumps({"format": "repro-jsonl", "version": 1, "kind": "x"})
        path.write_text(header + "\n{broken\n")
        with pytest.raises(StorageFormatError, match="malformed record"):
            list(read_records(path, "x"))

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "v.jsonl"
        header = json.dumps({"format": "repro-jsonl", "version": 99, "kind": "x"})
        path.write_text(header + "\n")
        with pytest.raises(StorageFormatError, match="unsupported version"):
            list(read_records(path, "x"))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "b.jsonl"
        header = json.dumps({"format": "repro-jsonl", "version": 1, "kind": "x"})
        path.write_text(header + "\n\n{\"a\": 1}\n\n")
        assert list(read_records(path, "x")) == [{"a": 1}]
