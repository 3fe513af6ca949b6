"""Tests for account materialization."""

import numpy as np
import pytest

from repro.behavior.factory import (
    IdAllocator,
    MaterializedAccount,
    materialize_account,
)
from repro.behavior.fraudulent import sample_fraud_profile
from repro.behavior.legitimate import sample_legitimate_profile
from repro.config import default_config
from repro.taxonomy.keywords import keyword_pool

CONFIG = default_config()


def _materialize(profile, first_ad=5.0, horizon=100.0, seed=5):
    rng = np.random.Generator(np.random.PCG64(seed))
    account = MaterializedAccount(
        advertiser_id=1, profile=profile, created_time=first_ad - 1.0
    )
    materialize_account(account, first_ad, horizon, CONFIG, IdAllocator(), rng)
    return account


@pytest.fixture(scope="module")
def legit_account():
    rng = np.random.Generator(np.random.PCG64(21))
    profile = sample_legitimate_profile(CONFIG, rng)
    return _materialize(profile)


class TestMaterialization:
    def test_counts_match_profile(self, legit_account):
        profile = legit_account.profile
        assert len(legit_account.ad_ids) == profile.n_ads
        assert len(legit_account.ad_creation_times) == profile.n_ads

    def test_first_ad_recorded(self, legit_account):
        assert legit_account.first_ad_time == 5.0
        assert min(legit_account.ad_creation_times) == 5.0

    def test_campaigns_match_verticals(self, legit_account):
        verticals = legit_account.profile.verticals
        for columns in (
            legit_account.kw_idx_cols,
            legit_account.mcode_cols,
            legit_account.max_bid_cols,
            legit_account.created_cols,
        ):
            assert len(columns) == len(verticals)
        for vertical, kw_idx_col in zip(verticals, legit_account.kw_idx_cols):
            assert all(0 <= i < len(keyword_pool(vertical)) for i in kw_idx_col)

    def test_offers_within_bounds(self, legit_account):
        for _, _, _, _, max_bid, quality, created in legit_account.offers:
            assert quality > 0
            assert max_bid > 0
            assert 5.0 <= created <= 100.0

    def test_bids_positive_and_typed(self, legit_account):
        for max_bids in legit_account.max_bid_cols:
            assert all(max_bid > 0 for max_bid in max_bids)

    def test_creation_times_sorted_and_bounded(self, legit_account):
        times = legit_account.ad_creation_times
        assert times == sorted(times)
        assert all(5.0 <= t <= 100.0 for t in times)


class TestTrim:
    def test_trim_drops_later_events(self):
        rng = np.random.Generator(np.random.PCG64(22))
        profile = sample_legitimate_profile(CONFIG, rng)
        account = _materialize(profile, first_ad=5.0, horizon=100.0)
        account.trim(10.0)
        assert all(t < 10.0 for t in account.ad_creation_times)
        assert all(t < 10.0 for t in account.kw_creation_times)
        assert all(t < 10.0 for t in account.ad_mod_times)
        assert all(offer[6] < 10.0 for offer in account.offers)
        for created in account.created_cols:
            assert all(t < 10.0 for t in created)

    def test_trim_keeps_first_ad(self):
        rng = np.random.Generator(np.random.PCG64(23))
        profile = sample_fraud_profile(CONFIG, rng, prolific=False)
        account = _materialize(profile, first_ad=5.0, horizon=100.0)
        account.trim(5.5)
        assert len(account.ad_creation_times) >= 1


class TestFraudMaterialization:
    def test_fraud_keyword_concentration(self):
        """Fraud chases head keywords harder than legit (Zipf 1.8 vs 1.1)."""
        rng = np.random.Generator(np.random.PCG64(31))
        fraud_heads, legit_heads = [], []
        for _ in range(60):
            fp = sample_fraud_profile(CONFIG, rng, prolific=True)
            account = _materialize(fp, seed=int(rng.integers(1e9)))
            fraud_heads.extend(offer[2] for offer in account.offers)
            lp = sample_legitimate_profile(CONFIG, rng)
            account = _materialize(lp, seed=int(rng.integers(1e9)))
            legit_heads.extend(offer[2] for offer in account.offers)
        assert np.mean(fraud_heads) < np.mean(legit_heads)

    def test_id_allocator_unique(self):
        ids = IdAllocator()
        assert len({ids.ad_id() for _ in range(100)}) == 100
