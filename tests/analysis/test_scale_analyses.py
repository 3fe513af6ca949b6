"""Tests for the Section-4 analyses: registration, lifetimes, activity,
concentration."""

import numpy as np
import pytest

from repro.analysis.activity import weekly_fraud_activity
from repro.analysis.concentration import fraud_concentration, top_share
from repro.analysis.lifetimes import fraud_lifetimes, preads_shutdown_share
from repro.analysis.registration import fraud_registration_share
from repro.errors import AnalysisError
from repro.timeline import DAYS_PER_WEEK


class TestRegistrationShare:
    def test_series_shape(self, sim_result):
        series = fraud_registration_share(sim_result)
        assert len(series.months) == len(series.fraud_share)
        assert (series.fraud_share >= 0).all()
        assert (series.fraud_share <= 1).all()

    def test_counts_sum_to_accounts(self, sim_result):
        series = fraud_registration_share(sim_result)
        assert series.registrations.sum() == len(sim_result.accounts)

    def test_share_in_paper_band(self, sim_result):
        series = fraud_registration_share(sim_result)
        populated = series.fraud_share[series.registrations > 0]
        assert 0.25 < populated.mean() < 0.65


class TestLifetimes:
    def test_curves_present(self, sim_result):
        curves = fraud_lifetimes(sim_result)
        assert "Year 1 (account)" in curves.keys()
        assert "Year 1 (ad)" in curves.keys()

    def test_lifetimes_nonnegative(self, sim_result):
        curves = fraud_lifetimes(sim_result)
        for key in curves.keys():
            curve = curves[key]
            if len(curve):
                assert (curve.x >= 0).all()

    def test_median_under_a_day(self, sim_result):
        curve = fraud_lifetimes(sim_result)["Year 1 (account)"]
        assert curve.median < 2.0

    def test_preads_share(self, sim_result):
        share = preads_shutdown_share(sim_result)
        assert 0.15 < share < 0.55


class TestWeeklyActivity:
    def test_lengths(self, sim_result):
        activity = weekly_fraud_activity(sim_result)
        expected = sim_result.config.days // DAYS_PER_WEEK + 1
        assert len(activity) == expected

    def test_spend_normalized(self, sim_result):
        activity = weekly_fraud_activity(sim_result)
        peak = max(
            activity.spend_in_window.max(), activity.spend_out_of_window.max()
        )
        assert peak == pytest.approx(1.0)

    def test_split_covers_all_fraud_spend(self, sim_result):
        activity = weekly_fraud_activity(sim_result)
        table = sim_result.impressions
        total = table.spend[table.fraud_labeled].sum()
        recovered = (
            activity.spend_in_window.sum() + activity.spend_out_of_window.sum()
        ) * activity.spend_norm
        assert recovered == pytest.approx(total, rel=1e-6)

    def test_nonnegative(self, sim_result):
        activity = weekly_fraud_activity(sim_result)
        for series in (
            activity.spend_in_window,
            activity.spend_out_of_window,
            activity.clicks_in_window,
            activity.clicks_out_of_window,
        ):
            assert (series >= 0).all()


class TestConcentration:
    def test_top_share_bounds(self):
        values = np.array([100.0] + [1.0] * 99)
        assert top_share(values, 0.1) > 0.5
        assert top_share(np.ones(100), 0.1) == pytest.approx(0.1)

    def test_top_share_validation(self):
        with pytest.raises(AnalysisError):
            top_share(np.ones(5), 0.0)

    def test_zero_mass_nan(self):
        assert np.isnan(top_share(np.zeros(5)))

    def test_curves(self, sim_result, sim_window):
        curves = fraud_concentration(sim_result, {"w": sim_window})
        assert "w" in curves.spend or "w" in curves.clicks
        for proportion, share in curves.spend.values():
            assert share[-1] == pytest.approx(1.0)
            assert (np.diff(share) >= -1e-12).all()

    def test_fraud_clicks_concentrated(self, sim_result, sim_window):
        curves = fraud_concentration(sim_result, {"w": sim_window})
        if "w" not in curves.clicks:
            pytest.skip("no fraud clicks in window")
        _, share = curves.clicks["w"]
        if len(share) < 30:
            pytest.skip("too few fraud advertisers for a stable decile")
        index = max(0, int(0.1 * len(share)) - 1)
        # Top 10% should hold far more than their 10% head count.
        assert share[index] > 0.25
