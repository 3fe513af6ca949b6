"""Tests for record schemas, codes and dataset I/O."""

import numpy as np
import pytest

from repro.entities.enums import AdvertiserKind, MatchType, ShutdownReason
from repro.errors import RecordError
from repro.records import (
    CustomerRecord,
    DetectionRecord,
    country_code,
    country_name,
    match_code,
    match_type_from_code,
    read_impressions_csv,
    read_records_jsonl,
    vertical_code,
    vertical_name,
    write_impressions_csv,
    write_records_jsonl,
)
from repro.records.impressions import ImpressionBuilder, ImpressionTable


class TestCodes:
    def test_vertical_roundtrip(self):
        for name in ("techsupport", "retail", "phishing"):
            assert vertical_name(vertical_code(name)) == name

    def test_country_roundtrip(self):
        for code in ("US", "BR", "JP"):
            assert country_name(country_code(code)) == code

    def test_match_roundtrip(self):
        for match_type in MatchType:
            assert match_type_from_code(match_code(match_type)) is match_type

    def test_match_codes_stable(self):
        # Codes are persisted in CSVs; they must never change.
        assert match_code(MatchType.EXACT) == 0
        assert match_code(MatchType.PHRASE) == 1
        assert match_code(MatchType.BROAD) == 2


class TestDetectionRecord:
    def test_make(self):
        record = DetectionRecord.make(7, 1.5, ShutdownReason.CONTENT_FILTER, True)
        assert record.stage == "content_filter"
        assert record.to_dict()["advertiser_id"] == 7


class TestCustomerRecord:
    def test_ground_truth_flag(self):
        record = CustomerRecord(
            advertiser_id=1,
            created_time=0.0,
            country="US",
            language="en",
            currency="USD",
            kind=AdvertiserKind.FRAUD_TYPICAL.value,
            labeled_fraud=False,
            shutdown_time=None,
            shutdown_reason=None,
            first_ad_time=None,
            n_ads=0,
            n_keywords=0,
        )
        # Evaded fraud: ground truth fraud, label non-fraud.
        assert record.is_fraud_ground_truth
        assert not record.labeled_fraud


class TestImpressionsCsv:
    def _table(self):
        rows = [
            (1.5, 1, 10, 0, 0, 1, 2, True, 100.0, 5.0, 2.5, 0.5, 3, 1, True),
            (2.0, 2, 11, 3, 2, 0, 1, False, 50.0, 0.0, 0.0, 0.1, 1, 0, False),
        ]
        builder = ImpressionBuilder()
        builder.add_batch(**dict(zip(ImpressionTable.field_names(), zip(*rows))))
        return builder.build()

    def test_roundtrip(self, tmp_path):
        table = self._table()
        path = tmp_path / "impressions.csv"
        write_impressions_csv(table, path)
        loaded = read_impressions_csv(path)
        assert len(loaded) == 2
        np.testing.assert_allclose(loaded.day, table.day)
        np.testing.assert_array_equal(loaded.mainline, table.mainline)
        np.testing.assert_array_equal(loaded.fraud_labeled, table.fraud_labeled)
        np.testing.assert_allclose(loaded.spend, table.spend)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(RecordError):
            read_impressions_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(RecordError):
            read_impressions_csv(path)


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        records = [
            DetectionRecord.make(1, 1.0, ShutdownReason.BEHAVIORAL, True),
            DetectionRecord.make(2, 2.0, ShutdownReason.PAYMENT_FRAUD, True),
        ]
        path = tmp_path / "detections.jsonl"
        assert write_records_jsonl(records, path) == 2
        loaded = read_records_jsonl(path, DetectionRecord)
        assert loaded == records
