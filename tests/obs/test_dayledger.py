"""Unit + invariant tests for the marketplace-health day ledger."""

from __future__ import annotations

import json
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import small_config
from repro.detection.policy import PolicyChange
from repro.obs.timeseries import (
    MARKET_FIELDS,
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

    def test_market_rows_rebuild_is_byte_identical(self, tmp_path):
        # What resume does: the Phase-1 half from Phase 1's outputs,
        # the market rows as a run manifest carries them.
        ledger = self._populated()
        path = tmp_path / "dayledger.jsonl"
        original = ledger.flush(path)

        rebuilt = DayLedger(3)
        rebuilt.record_phase1(*self.PHASE1)
        carried = json.loads(json.dumps(ledger.market_rows(0, 3)))
        for day, fields in enumerate(carried):
            rebuilt.record_day(day, **fields)
        assert rebuilt.flush(path) == original

    def test_market_rows_cover_only_their_days(self):
        rows = self._populated().market_rows(1, 3)
        assert [row["active_accounts"] for row in rows] == [12, 13]
        # Only the market half: no day, Phase-1 or derived field.
        assert set(rows[0]) == set(MARKET_FIELDS)
        with pytest.raises(KeyError):
            DayLedger(3).market_rows(0, 1)  # day 0 was never recorded

    def _assert_load_rows_raises(self, tmp_path, text, match):
        path = tmp_path / "dayledger.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_rows(path)

    def test_load_rows_rejects_interior_malformed_lines(self, tmp_path):
        # The ledger is written once, whole: a malformed line anywhere
        # is damage and raises, naming the first one.
        for text, match in [
            ('{"day":0}\nnot json\n{"day":2}\n', ":2: malformed"),
            ('[1,2]\n{"day":1}\n', ":1: not a ledger row"),
            ("", "no ledger rows"),
        ]:
            self._assert_load_rows_raises(tmp_path, text, match)

    def test_load_rows_rejects_a_truncated_tail(self, tmp_path):
        # No reader races a rewrite, so a torn final line is damage too.
        self._assert_load_rows_raises(
            tmp_path, '{"day":0}\n{"day":1}\n{"day":2,"cli', ":3: malformed"
        )

    def test_load_rows_rejects_garbage_tail_lines(self, tmp_path):
        # Several trailing bad lines raise at the first of them.
        self._assert_load_rows_raises(
            tmp_path, '{"day":0}\n[1,2]\nnot json\n', ":2: not a ledger row"
        )

    def test_load_rows_rejects_an_all_garbage_ledger(self, tmp_path):
        # Nothing but garbage is no ledger, not an empty one.
        self._assert_load_rows_raises(tmp_path, "not json\n", ":1: malformed")

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
