"""Tests for the engine's per-account summaries (bid statistics etc.)."""

from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from repro import small_config
from repro.behavior import MaterializedAccount
from repro.simulator import SimulationEngine

#: The only fields of an account that outlive its turn in Phase 1: its
#: identity and outcome, and what ``MarketIndex`` reads.
KEPT_FIELDS = (
    "advertiser_id",
    "profile",
    "created_time",
    "first_ad_time",
    "shutdown_time",
    "shutdown_reason",
    "labeled_fraud",
    "activity_end",
    "offers",
)


@pytest.fixture(scope="module")
def result_with_entities():
    """Phase 1's returned accounts beside their summaries."""
    config = small_config(seed=55, days=40)
    accounts, summaries = SimulationEngine(config).generate_population()
    return SimpleNamespace(config=config, accounts=summaries, columns=accounts)


@pytest.fixture(scope="module")
def drawn_columns():
    """Every account's trimmed columns beside its summary.

    Phase 1 frees an account's columns once ``_finish_account`` has
    trimmed and summarized it.  With that last step patched out, each
    returned account holds exactly the columns its summary counted.
    """
    config = small_config(seed=55, days=40)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MaterializedAccount, "free_inventory", lambda self: None)
        accounts, summaries = SimulationEngine(config).generate_population()
    pairs = list(zip(summaries, accounts))
    assert sum(bool(account.ad_ids) for account in accounts) > 100
    return SimpleNamespace(config=config, pairs=pairs)


def _bids(account):
    """``(match_code, max_bid)`` of every bid, campaign-major."""
    for mcodes, max_bids in zip(account.mcode_cols, account.max_bid_cols):
        yield from zip(mcodes, max_bids)


class TestBidStatistics:
    def test_counts_match_entities(self, drawn_columns):
        checked = 0
        for summary, account in drawn_columns.pairs:
            expected = np.zeros(3)
            expected_sum = np.zeros(3)
            for code, max_bid in _bids(account):
                expected[code] += 1
                expected_sum[code] += max_bid
            np.testing.assert_array_equal(summary.bid_count_by_match, expected)
            np.testing.assert_array_equal(summary.bid_sum_by_match, expected_sum)
            checked += bool(account.kw_creation_times)
        assert checked > 100

    def test_above_default_consistent(self, drawn_columns):
        default = drawn_columns.config.auction.default_max_bid
        for summary, account in drawn_columns.pairs:
            expected = np.zeros(3)
            for code, max_bid in _bids(account):
                if max_bid > default * 1.0001:
                    expected[code] += 1
            np.testing.assert_array_equal(
                summary.bid_above_default_by_match, expected
            )

    def test_keyword_counts_match(self, drawn_columns):
        for summary, account in drawn_columns.pairs:
            assert summary.n_keywords == sum(1 for _ in _bids(account))
            assert summary.n_keywords == len(account.kw_creation_times)
            assert summary.n_ads == len(account.ad_ids)

    def test_domains_counted(self, drawn_columns):
        for summary, account in drawn_columns.pairs:
            assert summary.n_domains == len(set(account.ad_domains))


class TestPopulationOutput:
    def test_rows_align_with_entities(self, result_with_entities):
        result = result_with_entities
        assert len(result.columns) == len(result.accounts)
        for row, (account, summary) in enumerate(
            zip(result.columns, result.accounts)
        ):
            assert summary.adv_row == row
            assert account.advertiser_id == summary.advertiser_id
            assert account.created_time == summary.created_time
            assert account.first_ad_time == summary.first_ad_time
            assert account.shutdown_time == summary.shutdown_time
            assert account.labeled_fraud == summary.labeled_fraud

    def test_summaries_in_registration_order(self, result_with_entities):
        days = [int(summary.created_time) for summary in result_with_entities.accounts]
        assert days == sorted(days)

    def test_accounts_keep_only_what_the_market_reads(self, result_with_entities):
        """Per-ad and per-bid columns die with the account's turn."""
        result = result_with_entities
        dropped = [
            field.name
            for field in fields(MaterializedAccount)
            if field.name not in KEPT_FIELDS
        ]
        assert "kw_idx_cols" in dropped and "ad_ids" in dropped
        for account, summary in zip(result.columns, result.accounts):
            for name in dropped:
                assert not getattr(account, name), name
            assert account.activity_end == summary.activity_end
        offers = sum(len(account.offers) for account in result.columns)
        keywords = sum(summary.n_keywords for summary in result.accounts)
        assert keywords > offers > 0
