"""Unit + invariant tests for the marketplace-health day ledger."""

from __future__ import annotations

import json
import logging
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import small_config
from repro.detection.policy import PolicyChange
from repro.obs.timeseries import (
    DayLedger,
    load_rows,
    policy_days,
    rows_to_series,
)
from repro.records.impressions import ImpressionBuilder
from repro.records.schemas import DetectionRecord
from repro.simulator import engine as engine_module
from repro.simulator.engine import SimulationEngine
from repro.simulator.market import MarketIndex

from .test_diff import stand_in_accounts


@pytest.fixture
def propagate_repro_logs(monkeypatch):
    # The ``repro`` logger tree runs with propagate=False once its
    # handler is attached; let records reach caplog's root handler.
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)


class TestDayLedgerRows:
    def test_every_day_serializes_even_without_feeds(self):
        ledger = DayLedger(3)
        rows = ledger.rows()
        assert [row["day"] for row in rows] == [0, 1, 2]
        assert all(row["registrations_legit"] == 0 for row in rows)
        # No market half was recorded, so no market/derived fields appear.
        assert "impressions" not in rows[0]

    def test_record_day_defaults_market_fields_to_zero(self):
        ledger = DayLedger(2)
        ledger.record_day(0)
        row = ledger.rows()[0]
        assert row["impressions"] == 0.0
        assert row["kernel_candidates"] == 0
        assert row["fraud_click_share"] == 0.0
        assert "impressions" not in ledger.rows()[1]

    def test_record_day_rejects_unknown_fields(self):
        with pytest.raises(TypeError, match="clickz"):
            DayLedger(1).record_day(0, clickz=1.0)

    def test_derived_fields_recomputed_from_sums(self):
        ledger = DayLedger(1)
        ledger.record_day(
            0,
            impressions=100.0,
            clicks=10.0,
            fraud_clicks=4.0,
            spend=5.0,
            fraud_spend=1.0,
            rows=20,
            auctions=8,
            mainline_slots=12,
        )
        row = ledger.rows()[0]
        assert row["fraud_click_share"] == pytest.approx(0.4)
        assert row["fraud_spend_share"] == pytest.approx(0.2)
        assert row["mean_cpc"] == pytest.approx(0.5)
        assert row["mainline_depth"] == pytest.approx(1.5)

    def test_registrations_bucketed_by_creation_day(self):
        ledger = DayLedger(3)
        ledger.record_phase1(stand_in_accounts([(2, 1), (0, 0), (1, 3)]), [], [])
        rows = ledger.rows()
        assert [row["registrations_legit"] for row in rows] == [2, 0, 1]
        assert [row["registrations_fraud"] for row in rows] == [1, 0, 3]

    def test_shutdowns_bucketed_by_record_day(self):
        ledger = DayLedger(5)
        ledger.record_phase1(
            [],
            [
                DetectionRecord(1, 1.25, "content_filter", True),
                DetectionRecord(2, 4.5, "behavioral", True),
                DetectionRecord(3, 1.99, "content_filter", True),
            ],
            [],
        )
        rows = ledger.rows()
        assert rows[1]["shutdowns"] == {"content_filter": 2}
        assert rows[4]["shutdowns"] == {"behavioral": 1}
        assert rows[0]["shutdowns"] == {}

    def test_policy_day_flag(self):
        ledger = DayLedger(3)
        ledger.record_phase1(
            [],
            [],
            [
                PolicyChange(1.0, "ban", "pharma"),
                PolicyChange(-0.5, "before the study", "pharma"),
                PolicyChange(3.0, "after the study", "pharma"),
            ],
        )
        rows = ledger.rows()
        assert rows[1]["policy_change"] is True
        assert "policy_change" not in rows[0]
        assert policy_days(rows) == [1]


class TestSerialization:
    PHASE1 = (
        stand_in_accounts([(7, 5)]),
        [DetectionRecord(1, 0.5, "registration_screen", True)],
        [PolicyChange(2.0, "ban", "pharma")],
    )

    def _populated(self) -> DayLedger:
        ledger = DayLedger(3)
        ledger.record_phase1(*self.PHASE1)
        for day in range(3):
            ledger.record_day(
                day,
                kernel_candidates=40 + day,
                kernel_shown=9,
                active_accounts=11 + day,
                impressions=1000.0 + day,
                clicks=10.5,
                fraud_clicks=0.5,
                spend=3.25,
                fraud_spend=0.125,
                rows=9,
                auctions=4,
                mainline_slots=6,
            )
        return ledger

    def test_jsonl_is_canonical_and_parseable(self, tmp_path):
        ledger = self._populated()
        path = tmp_path / "dayledger.jsonl"
        ledger.flush(path)
        rows = load_rows(path)
        assert len(rows) == 3
        # Canonical form: sorted keys, compact separators.
        line = path.read_text().splitlines()[0]
        assert line == json.dumps(
            rows[0], sort_keys=True, separators=(",", ":")
        )

    def test_flush_preload_flush_is_byte_identical(self, tmp_path):
        ledger = self._populated()
        path = tmp_path / "dayledger.jsonl"
        ledger.flush(path)
        original = path.read_bytes()

        reloaded = DayLedger(3)
        reloaded.record_phase1(*self.PHASE1)
        reloaded.preload(path, market_before=3)
        reloaded.flush(path)
        assert path.read_bytes() == original

    def test_preload_drops_market_fields_at_and_after_cutoff(self, tmp_path):
        ledger = self._populated()
        path = tmp_path / "dayledger.jsonl"
        ledger.flush(path)

        resumed = DayLedger(3)
        resumed.preload(path, market_before=2)
        rows = resumed.rows()
        # Only market fields reload -- the Phase-1 half is recomputed
        # from Phase 1's outputs, never read back...
        assert rows[0]["registrations_fraud"] == 0
        assert "policy_change" not in rows[2]
        # ...and only before the cutoff.
        assert rows[1]["impressions"] == pytest.approx(1001.0)
        assert "impressions" not in rows[2]

    def test_preload_of_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            DayLedger(2).preload(tmp_path / "absent.jsonl", market_before=2)

    @pytest.mark.parametrize(
        "damage",
        ["drop-row", "drop-field", "bad-value", "torn-tail", "torn-middle"],
    )
    def test_preload_refuses_a_ledger_lacking_a_day(self, tmp_path, damage):
        # Every day before the cutoff needs its whole market row; a
        # stale, partial or torn file cannot supply it.
        path = tmp_path / "dayledger.jsonl"
        self._populated().flush(path)
        lines = path.read_text().splitlines()
        if damage == "drop-row":
            del lines[1]
        elif damage == "drop-field":
            lines[1] = lines[1].replace('"clicks":10.5,', "")
        elif damage == "bad-value":
            lines[1] = lines[1].replace('"rows":9', '"rows":[9]')
        elif damage == "torn-tail":
            lines[1:] = [lines[1][:20]]
        else:
            lines[1] = lines[1][:20]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            DayLedger(3).preload(path, market_before=2)
        if damage != "torn-middle":  # a torn middle line fails the file
            DayLedger(3).preload(path, market_before=1)  # day 0 is whole

    def test_load_rows_rejects_interior_malformed_lines(self, tmp_path):
        # A malformed line *followed by* healthy rows cannot be a
        # rewrite-race tail: that is damage and must raise.
        path = tmp_path / "dayledger.jsonl"
        path.write_text('{"day":0}\nnot json\n{"day":2}\n')
        with pytest.raises(ValueError, match=":2:"):
            load_rows(path)
        path.write_text('[1,2]\n{"day":1}\n')
        with pytest.raises(ValueError, match="not a ledger row"):
            load_rows(path)

    def test_load_rows_skips_truncated_tail(
        self, tmp_path, caplog, propagate_repro_logs
    ):
        # A live reader racing the atomic whole-file rewrite can see a
        # torn final line; the healthy prefix loads with one notice.
        path = tmp_path / "dayledger.jsonl"
        path.write_text('{"day":0}\n{"day":1}\n{"day":2,"cli')
        with caplog.at_level("WARNING", logger="repro.obs.timeseries"):
            rows = load_rows(path)
        assert [row["day"] for row in rows] == [0, 1]
        notices = [r for r in caplog.records if "trailing" in r.getMessage()]
        assert len(notices) == 1
        assert "skipped 1 trailing line(s)" in notices[0].getMessage()

    def test_load_rows_skips_garbage_tail_lines(
        self, tmp_path, caplog, propagate_repro_logs
    ):
        # Several trailing bad lines (torn rewrite plus a partial row)
        # still yield the healthy prefix and exactly one notice.
        path = tmp_path / "dayledger.jsonl"
        path.write_text('{"day":0}\n[1,2]\nnot json\n')
        with caplog.at_level("WARNING", logger="repro.obs.timeseries"):
            rows = load_rows(path)
        assert [row["day"] for row in rows] == [0]
        notices = [r for r in caplog.records if "trailing" in r.getMessage()]
        assert len(notices) == 1
        assert "skipped 2 trailing line(s)" in notices[0].getMessage()

    def test_load_rows_all_garbage_returns_empty(
        self, tmp_path, caplog, propagate_repro_logs
    ):
        path = tmp_path / "dayledger.jsonl"
        path.write_text("not json\n")
        with caplog.at_level("WARNING", logger="repro.obs.timeseries"):
            assert load_rows(path) == []
        assert any("trailing" in r.getMessage() for r in caplog.records)

    def test_rows_to_series_flattens_shutdown_stages(self):
        rows = self._populated().rows()
        series = rows_to_series(rows)
        assert series["shutdowns.registration_screen"] == [1.0, 0.0, 0.0]
        assert series["clicks"] == [10.5, 10.5, 10.5]
        assert series["registrations_legit"][0] == 7.0


class TestEngineIntegration:
    """The hard invariant: a ledgered run is bit-identical to a bare one."""

    CONFIG = small_config(seed=7, days=30)

    def _run(self, with_ledger: bool):
        engine = SimulationEngine(self.CONFIG)
        summaries, records, market = engine.build_phase1()
        ledger = None
        if with_ledger:
            ledger = DayLedger(self.CONFIG.days)
            ledger.record_phase1(
                summaries, records, engine.pipeline.policy.changes
            )
        builder = ImpressionBuilder()
        engine.run_auctions(market, builder, ledger=ledger)
        result = SimpleNamespace(
            accounts=summaries, impressions=builder.build(), detections=records
        )
        return result, engine.rng_state(), ledger

    def test_ledgered_run_bit_identical_to_unledgered(self):
        bare, rng_bare, _ = self._run(with_ledger=False)
        ledgered, rng_led, ledger = self._run(with_ledger=True)

        for name in bare.impressions.field_names():
            assert np.array_equal(
                getattr(bare.impressions, name),
                getattr(ledgered.impressions, name),
            ), f"column {name} differs"
        assert bare.detections == ledgered.detections
        # Serialized RNG states: the ledger never draws randomness.
        assert rng_bare == rng_led

        # And the ledger's totals agree with the impression table.
        rows = ledger.rows()
        assert len(rows) == self.CONFIG.days
        total_clicks = sum(row.get("clicks", 0.0) for row in rows)
        assert total_clicks == pytest.approx(
            float(bare.impressions.clicks.sum())
        )
        total_spend = sum(row.get("spend", 0.0) for row in rows)
        assert total_spend == pytest.approx(
            float(bare.impressions.spend.sum())
        )
        total_rows = sum(row.get("rows", 0) for row in rows)
        assert total_rows == len(bare.impressions)

    def test_ledger_sees_registrations_and_shutdowns(self):
        _, _, ledger = self._run(with_ledger=True)
        rows = ledger.rows()
        registrations = sum(
            row["registrations_legit"] + row["registrations_fraud"]
            for row in rows
        )
        assert registrations > 0
        assert any(row["shutdowns"] for row in rows)
        # The kernel counts flow through the batched auction path.
        assert sum(row.get("kernel_shown", 0) for row in rows) > 0

    def test_registrations_match_the_daily_draws(self, monkeypatch):
        """Counting accounts by ``int(created_time)`` reproduces the
        per-day registration counts Phase 1 drew."""
        drawn = {}
        sample = engine_module.sample_daily_counts

        def recording(config, schedule, day, rng):
            drawn[day] = sample(config, schedule, day, rng)
            return drawn[day]

        monkeypatch.setattr(engine_module, "sample_daily_counts", recording)
        _, _, ledger = self._run(with_ledger=True)
        for row in ledger.rows():
            n_fraud, n_legit = drawn[row["day"]]
            assert row["registrations_fraud"] == n_fraud
            assert row["registrations_legit"] == n_legit

    def test_rows_match_accounts_and_detection_records(self):
        result, _, ledger = self._run(with_ledger=True)
        registrations = Counter(
            (int(account.created_time), account.kind.is_fraud)
            for account in result.accounts
        )
        shutdowns = Counter(
            (int(record.time), record.stage) for record in result.detections
        )
        rows = ledger.rows()
        for row in rows:
            day = row["day"]
            assert row["registrations_legit"] == registrations[day, False]
            assert row["registrations_fraud"] == registrations[day, True]
            assert row["shutdowns"] == {
                stage: n for (when, stage), n in shutdowns.items() if when == day
            }
        assert sum(
            row["registrations_legit"] + row["registrations_fraud"]
            for row in rows
        ) == len(result.accounts)
        assert sum(
            sum(row["shutdowns"].values()) for row in rows
        ) == len(result.detections)

    def test_engine_phase3_only_feeds_open_days(self):
        """Running auctions standalone (no Phase-1 half) still records
        every day, dead-market days included."""
        engine = SimulationEngine(self.CONFIG)
        accounts, _ = engine.generate_population()
        market = MarketIndex(accounts)
        ledger = DayLedger(self.CONFIG.days)
        engine.run_auctions(market, ImpressionBuilder(), ledger=ledger)
        rows = ledger.rows()
        assert all("impressions" in row for row in rows)
        partial = DayLedger(self.CONFIG.days)
        engine.run_auctions(
            market, ImpressionBuilder(), start_day=5, end_day=9, ledger=partial
        )
        assert [row["day"] for row in partial.rows() if "rows" in row] == [
            5, 6, 7, 8
        ]
