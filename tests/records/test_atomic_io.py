"""Atomic write protocol and reader error handling for records I/O."""

import numpy as np
import pytest

from repro.errors import RecordError
from repro.records import (
    DetectionRecord,
    ImpressionBuilder,
    read_impressions_csv,
    read_records_jsonl,
    write_impressions_csv,
    write_records_jsonl,
)
from repro.records.atomic import (
    atomic_write_bytes,
    atomic_write_text,
    sha256_bytes,
    sha256_file,
)


def _tiny_table(rows: int = 3):
    builder = ImpressionBuilder()
    i = np.arange(rows)
    builder.add_batch(
        day=0.5 + i,
        advertiser_id=i + 1,
        ad_id=10 + i,
        vertical=np.full(rows, 1),
        country=np.full(rows, 2),
        match_type=np.zeros(rows),
        position=i,
        mainline=i % 2 == 0,
        weight=np.full(rows, 100.0),
        clicks=i.astype(float),
        spend=0.5 * i,
        price=np.full(rows, 0.25),
        n_shown=np.full(rows, 3),
        n_fraud_shown=np.ones(rows),
        fraud_labeled=i % 2 == 1,
    )
    return builder.build()


class TestAtomicWriter:
    def test_success_leaves_no_tmp(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_failure_preserves_old_content(self, tmp_path):
        # An export that fails part-way (here the second record cannot
        # render) writes nothing: the old file stays, no tmp appears.
        class Broken:
            def to_dict(self):
                raise RuntimeError("boom")

        target = tmp_path / "out.jsonl"
        target.write_text("original")
        records = [TestJsonlRoundTripAndErrors.RECORDS[0], Broken()]
        with pytest.raises(RuntimeError, match="boom"):
            write_records_jsonl(records, target)
        assert target.read_text() == "original"
        assert list(tmp_path.iterdir()) == [target]

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        target = tmp_path / "data.bin"
        atomic_write_bytes(target, b"v1")
        atomic_write_bytes(target, b"v2-longer")
        assert target.read_bytes() == b"v2-longer"

    def test_sha_helpers_agree(self, tmp_path):
        payload = b"checksum me"
        target = tmp_path / "x.bin"
        atomic_write_bytes(target, payload)
        assert sha256_file(target) == sha256_bytes(payload)

    def test_failing_replace_leaves_no_tmp(self, tmp_path, monkeypatch):
        # Regression: when os.replace itself raises (EXDEV, EIO, a
        # vanished directory), the .tmp file must not survive -- the
        # contract is "old file or new file", never "plus a stray tmp".
        import os

        target = tmp_path / "out.txt"
        target.write_text("original")

        def failing_replace(src, dst):
            raise OSError("injected replace failure")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="injected replace failure"):
            atomic_write_text(target, "new content")
        monkeypatch.undo()
        assert target.read_text() == "original"
        assert list(tmp_path.iterdir()) == [target]

    def test_failing_replace_leaves_no_tmp_bytes_path(self, tmp_path, monkeypatch):
        import os

        target = tmp_path / "out.bin"

        def failing_replace(src, dst):
            raise OSError("injected replace failure")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"payload")
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []


class TestCsvRoundTripAndErrors:
    def test_round_trip_is_exact(self, tmp_path):
        table = _tiny_table()
        path = tmp_path / "impressions.csv"
        write_impressions_csv(table, path)
        assert not (tmp_path / "impressions.csv.tmp").exists()
        back = read_impressions_csv(path)
        for name in table.field_names():
            assert np.array_equal(getattr(back, name), getattr(table, name))

    def test_malformed_number_raises_record_error(self, tmp_path):
        path = tmp_path / "impressions.csv"
        write_impressions_csv(_tiny_table(), path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("0.5", "not-a-number", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordError, match="malformed column"):
            read_impressions_csv(path)

    def test_truncated_row_raises_record_error(self, tmp_path):
        path = tmp_path / "impressions.csv"
        write_impressions_csv(_tiny_table(), path)
        lines = path.read_text().splitlines()
        # Simulate a torn write: the last row loses its final fields.
        lines[-1] = ",".join(lines[-1].split(",")[:4])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordError, match="fields, expected"):
            read_impressions_csv(path)

    def test_malformed_boolean_raises_record_error(self, tmp_path):
        path = tmp_path / "impressions.csv"
        write_impressions_csv(_tiny_table(), path)
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[7] = "yes"  # the `mainline` column
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordError, match="malformed boolean"):
            read_impressions_csv(path)

    def test_empty_file_raises_record_error(self, tmp_path):
        path = tmp_path / "impressions.csv"
        path.write_text("")
        with pytest.raises(RecordError, match="empty"):
            read_impressions_csv(path)


class TestJsonlRoundTripAndErrors:
    RECORDS = [
        DetectionRecord(advertiser_id=1, time=2.5, stage="content_filter", labeled_fraud=True),
        DetectionRecord(advertiser_id=2, time=9.0, stage="payment_fraud", labeled_fraud=True),
    ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        assert write_records_jsonl(self.RECORDS, path) == 2
        assert not (tmp_path / "detections.jsonl.tmp").exists()
        assert read_records_jsonl(path, DetectionRecord) == self.RECORDS

    def test_truncated_line_raises_record_error(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        write_records_jsonl(self.RECORDS, path)
        # Chop the file mid-record, as a torn non-atomic write would.
        data = path.read_bytes()
        path.write_bytes(data[:-15])
        with pytest.raises(RecordError, match="not valid JSON"):
            read_records_jsonl(path, DetectionRecord)

    def test_non_object_line_raises_record_error(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        path.write_text('[1, 2, 3]\n')
        with pytest.raises(RecordError, match="not a JSON object"):
            read_records_jsonl(path, DetectionRecord)

    def test_schema_mismatch_raises_record_error(self, tmp_path):
        path = tmp_path / "detections.jsonl"
        path.write_text('{"advertiser_id": 1, "unexpected_field": true}\n')
        with pytest.raises(RecordError, match="does not match DetectionRecord"):
            read_records_jsonl(path, DetectionRecord)
