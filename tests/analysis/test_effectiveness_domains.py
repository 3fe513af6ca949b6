"""Tests for the Section 4.2 / 5.2.4 extension analyses."""

import numpy as np

from repro.analysis.domains import fraud_domain_usage
from repro.analysis.effectiveness import advertiser_effectiveness


class TestEffectiveness:
    def test_stats_populated(self, sim_result, sim_window):
        stats = advertiser_effectiveness(sim_result, sim_window)
        assert 0.0 <= stats.nonfraud_median_ctr <= 1.0
        if not np.isnan(stats.fraud_median_ctr):
            assert 0.0 <= stats.fraud_median_ctr <= 1.0

    def test_cpc_positive(self, sim_result, sim_window):
        stats = advertiser_effectiveness(sim_result, sim_window)
        if not np.isnan(stats.nonfraud_median_cpc):
            assert stats.nonfraud_median_cpc > 0

    def test_top_fraud_pays_more(self, sim_result, sim_window):
        """Sec 4.2: the top fraud spenders sit in the upper CPC range."""
        stats = advertiser_effectiveness(sim_result, sim_window)
        if not np.isnan(stats.top_fraud_median_cpc) and not np.isnan(
            stats.fraud_median_cpc
        ):
            assert stats.top_fraud_median_cpc >= stats.fraud_median_cpc

    def test_quantile_bounds(self, sim_result, sim_window):
        stats = advertiser_effectiveness(sim_result, sim_window)
        if not np.isnan(stats.top_fraud_cpc_quantile):
            assert 0.0 <= stats.top_fraud_cpc_quantile <= 1.0


class TestDomains:
    def test_stats(self, sim_result):
        stats = fraud_domain_usage(sim_result)
        assert stats.n_accounts > 0
        assert 0.0 <= stats.single_domain_share <= 1.0
        assert stats.three_or_fewer_share >= stats.single_domain_share

    def test_paper_bands(self, sim_result):
        """Sec 5.2.4: ~74% single domain, ~96% three or fewer."""
        stats = fraud_domain_usage(sim_result)
        assert stats.single_domain_share > 0.5
        assert stats.three_or_fewer_share > 0.85

    def test_multi_ad_rotation(self, sim_result):
        """Multi-ad fraud accounts rotate more domains."""
        stats = fraud_domain_usage(sim_result)
        if stats.n_multi_ad_accounts >= 20:
            assert stats.multi_ad_mean > 1.0
            assert stats.multi_ad_p90 >= stats.multi_ad_mean
