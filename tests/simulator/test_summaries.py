"""Tests for the engine's per-account summaries (bid statistics etc.)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import small_config
from repro.records.codes import MATCH_CODES
from repro.simulator import SimulationEngine


@pytest.fixture(scope="module")
def result_with_entities():
    """Phase 1's entities beside the summaries built from them."""
    config = small_config(seed=55, days=40)
    accounts, summaries = SimulationEngine(config).generate_population()
    return SimpleNamespace(
        config=config,
        accounts=summaries,
        advertisers=[account.advertiser for account in accounts],
    )


class TestBidStatistics:
    def test_counts_match_entities(self, result_with_entities):
        result = result_with_entities
        by_id = {a.advertiser_id: a for a in result.advertisers}
        checked = 0
        for summary in result.accounts:
            advertiser = by_id[summary.advertiser_id]
            bids = list(advertiser.all_bids())
            if not bids:
                continue
            checked += 1
            expected = np.zeros(3)
            expected_sum = np.zeros(3)
            for bid in bids:
                code = MATCH_CODES[bid.match_type]
                expected[code] += 1
                expected_sum[code] += bid.max_bid
            np.testing.assert_array_equal(summary.bid_count_by_match, expected)
            np.testing.assert_allclose(summary.bid_sum_by_match, expected_sum)
            if checked > 50:
                break
        assert checked > 10

    def test_above_default_consistent(self, result_with_entities):
        result = result_with_entities
        default = result.config.auction.default_max_bid
        by_id = {a.advertiser_id: a for a in result.advertisers}
        for summary in result.accounts[:200]:
            advertiser = by_id[summary.advertiser_id]
            expected = np.zeros(3)
            for bid in advertiser.all_bids():
                if bid.max_bid > default * 1.0001:
                    expected[MATCH_CODES[bid.match_type]] += 1
            np.testing.assert_array_equal(
                summary.bid_above_default_by_match, expected
            )

    def test_keyword_counts_match(self, result_with_entities):
        result = result_with_entities
        by_id = {a.advertiser_id: a for a in result.advertisers}
        for summary in result.accounts[:200]:
            advertiser = by_id[summary.advertiser_id]
            assert summary.n_keywords == sum(1 for _ in advertiser.all_bids())
            assert summary.n_ads == sum(1 for _ in advertiser.all_ads())

    def test_domains_counted(self, result_with_entities):
        result = result_with_entities
        by_id = {a.advertiser_id: a for a in result.advertisers}
        for summary in result.accounts[:200]:
            advertiser = by_id[summary.advertiser_id]
            domains = {ad.destination_domain for ad in advertiser.all_ads()}
            assert summary.n_domains == len(domains)


class TestPopulationOutput:
    def test_rows_align_with_entities(self, result_with_entities):
        result = result_with_entities
        assert len(result.advertisers) == len(result.accounts)
        for row, (advertiser, summary) in enumerate(
            zip(result.advertisers, result.accounts)
        ):
            assert summary.adv_row == row
            assert advertiser.advertiser_id == summary.advertiser_id

    def test_summaries_in_registration_order(self, result_with_entities):
        days = [int(summary.created_time) for summary in result_with_entities.accounts]
        assert days == sorted(days)
