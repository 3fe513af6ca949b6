"""Tests for the engine's per-account summaries (bid statistics etc.)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import small_config
from repro.simulator import SimulationEngine


@pytest.fixture(scope="module")
def result_with_entities():
    """Phase 1's account columns beside the summaries built from them."""
    config = small_config(seed=55, days=40)
    accounts, summaries = SimulationEngine(config).generate_population()
    return SimpleNamespace(config=config, accounts=summaries, columns=accounts)


def _bids(account):
    """``(match_code, max_bid)`` of every bid, campaign-major."""
    for mcodes, max_bids in zip(account.mcode_cols, account.max_bid_cols):
        yield from zip(mcodes, max_bids)


class TestBidStatistics:
    def test_counts_match_entities(self, result_with_entities):
        result = result_with_entities
        checked = 0
        for summary, account in zip(result.accounts, result.columns):
            if not account.kw_creation_times:
                continue
            checked += 1
            expected = np.zeros(3)
            expected_sum = np.zeros(3)
            for code, max_bid in _bids(account):
                expected[code] += 1
                expected_sum[code] += max_bid
            np.testing.assert_array_equal(summary.bid_count_by_match, expected)
            np.testing.assert_array_equal(summary.bid_sum_by_match, expected_sum)
            if checked > 50:
                break
        assert checked > 10

    def test_above_default_consistent(self, result_with_entities):
        result = result_with_entities
        default = result.config.auction.default_max_bid
        for summary, account in list(zip(result.accounts, result.columns))[:200]:
            expected = np.zeros(3)
            for code, max_bid in _bids(account):
                if max_bid > default * 1.0001:
                    expected[code] += 1
            np.testing.assert_array_equal(
                summary.bid_above_default_by_match, expected
            )

    def test_keyword_counts_match(self, result_with_entities):
        result = result_with_entities
        for summary, account in list(zip(result.accounts, result.columns))[:200]:
            assert summary.n_keywords == sum(1 for _ in _bids(account))
            assert summary.n_ads == len(account.ad_ids)

    def test_domains_counted(self, result_with_entities):
        result = result_with_entities
        for summary, account in list(zip(result.accounts, result.columns))[:200]:
            assert summary.n_domains == len(set(account.ad_domains))


class TestPopulationOutput:
    def test_rows_align_with_entities(self, result_with_entities):
        result = result_with_entities
        assert len(result.columns) == len(result.accounts)
        for row, (account, summary) in enumerate(
            zip(result.columns, result.accounts)
        ):
            assert summary.adv_row == row
            assert account.advertiser.advertiser_id == summary.advertiser_id

    def test_summaries_in_registration_order(self, result_with_entities):
        days = [int(summary.created_time) for summary in result_with_entities.accounts]
        assert days == sorted(days)
