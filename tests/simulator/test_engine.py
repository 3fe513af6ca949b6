"""Tests for the simulation engine and its outputs."""

import numpy as np
import pytest

from repro import run_simulation, small_config
from repro.entities.enums import AdvertiserKind


class TestDeterminism:
    def test_same_seed_same_result(self):
        config = small_config(seed=99, days=30)
        a = run_simulation(config)
        b = run_simulation(config)
        assert len(a.accounts) == len(b.accounts)
        assert len(a.impressions) == len(b.impressions)
        np.testing.assert_array_equal(a.impressions.clicks, b.impressions.clicks)
        np.testing.assert_array_equal(
            a.impressions.advertiser_id, b.impressions.advertiser_id
        )

    def test_different_seed_differs(self):
        a = run_simulation(small_config(seed=1, days=30))
        b = run_simulation(small_config(seed=2, days=30))
        assert len(a.accounts) != len(b.accounts) or len(a.impressions) != len(
            b.impressions
        )


class TestResultConsistency(object):
    def test_account_ids_unique(self, sim_result):
        ids = [a.advertiser_id for a in sim_result.accounts]
        assert len(ids) == len(set(ids))

    def test_impression_advertisers_exist(self, sim_result):
        known = {a.advertiser_id for a in sim_result.accounts}
        assert set(np.unique(sim_result.impressions.advertiser_id)) <= known

    def test_impressions_within_study(self, sim_result):
        days = sim_result.impressions.day
        assert (days >= 0).all()
        assert (days <= sim_result.config.days).all()

    def test_no_impressions_after_shutdown(self, sim_result):
        table = sim_result.impressions
        for account in sim_result.accounts:
            if account.shutdown_time is None:
                continue
            rows = table.advertiser_id == account.advertiser_id
            if rows.any():
                assert table.day[rows].max() <= account.shutdown_time + 1.0

    def test_no_impressions_before_first_ad(self, sim_result):
        table = sim_result.impressions
        for account in sim_result.accounts[:200]:
            rows = table.advertiser_id == account.advertiser_id
            if rows.any():
                assert account.first_ad_time is not None
                assert table.day[rows].min() >= account.first_ad_time - 1.0

    def test_detection_records_match_accounts(self, sim_result):
        by_id = {a.advertiser_id: a for a in sim_result.accounts}
        recorded = [record.advertiser_id for record in sim_result.detections]
        # An account is shut down at most once, never before it
        # registered, and under the label its summary carries.
        assert len(recorded) == len(set(recorded))
        for record in sim_result.detections:
            account = by_id[record.advertiser_id]
            assert account.shutdown_time == pytest.approx(record.time)
            assert account.shutdown_reason == record.stage
            assert record.time >= account.created_time
            assert record.labeled_fraud == account.labeled_fraud

    def test_labeled_fraud_has_shutdown(self, sim_result):
        for account in sim_result.fraud_accounts():
            assert account.shutdown_time is not None
            assert account.shutdown_time <= sim_result.config.days

    def test_ground_truth_fraud_may_evade(self, sim_result):
        evaded = [
            a
            for a in sim_result.accounts
            if a.is_fraud_ground_truth and not a.labeled_fraud
        ]
        # Evasion is possible (labels come from detection, not truth).
        # All evaded accounts must have no shutdown.
        for account in evaded:
            assert account.shutdown_time is None

    def test_spend_equals_clicks_times_price(self, sim_result):
        table = sim_result.impressions
        np.testing.assert_allclose(
            table.spend, table.clicks * table.price, rtol=1e-9
        )

    def test_positions_within_slots(self, sim_result):
        config = sim_result.config.auction
        positions = sim_result.impressions.position
        assert positions.min() >= 1
        assert positions.max() <= config.total_slots

    def test_n_fraud_never_exceeds_n_shown(self, sim_result):
        table = sim_result.impressions
        assert (table.n_fraud_shown <= table.n_shown).all()

    def test_customer_records_roundtrip(self, sim_result):
        records = sim_result.customer_records()
        assert len(records) == len(sim_result.accounts)
        fraud_labels = sum(r.labeled_fraud for r in records)
        assert fraud_labels == len(sim_result.fraud_accounts())

    def test_account_lookup(self, sim_result):
        first = sim_result.accounts[0]
        assert sim_result.account(first.advertiser_id) is first


class TestPopulationShape(object):
    def test_fraud_share_in_band(self, sim_result):
        fraud = [a for a in sim_result.accounts if a.is_fraud_ground_truth]
        share = len(fraud) / len(sim_result.accounts)
        assert 0.25 < share < 0.65

    def test_prolific_minority(self, sim_result):
        fraud = [a for a in sim_result.accounts if a.is_fraud_ground_truth]
        prolific = [a for a in fraud if a.kind is AdvertiserKind.FRAUD_PROLIFIC]
        assert 0.0 < len(prolific) / len(fraud) < 0.2

    def test_fraud_lifetimes_short(self, sim_result):
        lifetimes = [
            a.shutdown_time - a.created_time
            for a in sim_result.fraud_accounts()
            if a.shutdown_time is not None
        ]
        assert np.median(lifetimes) < 3.0

    def test_most_legit_survive(self, sim_result):
        legit = [a for a in sim_result.accounts if not a.is_fraud_ground_truth]
        shutdown = [a for a in legit if a.shutdown_time is not None]
        assert len(shutdown) / len(legit) < 0.01

    def test_window_activity_exists(self, sim_result, sim_window):
        table = sim_result.impressions.in_window(sim_window.start, sim_window.end)
        assert len(table) > 0
        assert table.total_clicks() > 0
