"""Tests for the vectorized market index."""

import numpy as np
import pytest

from repro.behavior.factory import IdAllocator, MaterializedAccount, materialize_account
from repro.behavior.legitimate import sample_legitimate_profile
from repro.config import default_config
from repro.simulator.market import MarketIndex

CONFIG = default_config()


def build_accounts(n=6, seed=13, first_ad=2.0, end=50.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    ids = IdAllocator()
    accounts = []
    for index in range(n):
        profile = sample_legitimate_profile(CONFIG, rng)
        account = MaterializedAccount(
            advertiser_id=index + 1, profile=profile, created_time=1.0
        )
        materialize_account(account, first_ad, 100.0, CONFIG, ids, rng)
        account.trim(end)
        account.activity_end = end
        accounts.append(account)
    return accounts


@pytest.fixture(scope="module")
def market():
    return MarketIndex(build_accounts())


class TestMarketIndex:
    def test_arrays_aligned(self, market):
        n = market.n_offers
        for name in ("cell", "kw", "match", "max_bid", "quality", "adv_row"):
            assert len(getattr(market, name)) == n

    def test_live_mask_respects_activity_window(self, market):
        rng = np.random.Generator(np.random.PCG64(0))
        # Before first ad: nothing live.
        assert not market.live_mask(0.5, rng).any()
        # After activity end: nothing live.
        assert not market.live_mask(60.0, rng).any()

    def test_live_mask_account_level(self):
        accounts = build_accounts(n=3)
        # Force full participation so liveness is deterministic.
        market = MarketIndex(accounts)
        market.participation[:] = 1.0
        rng = np.random.Generator(np.random.PCG64(0))
        live = market.live_mask(10.0, rng)
        active_from = market.active_from
        assert (live == (active_from <= 10.0)).all()

    def test_zero_participation_nothing_live(self):
        market = MarketIndex(build_accounts(n=3))
        market.participation[:] = 0.0
        rng = np.random.Generator(np.random.PCG64(0))
        assert not market.live_mask(10.0, rng).any()

    def test_day_buckets_partition_live_offers(self):
        market = MarketIndex(build_accounts(n=5))
        market.participation[:] = 1.0
        rng = np.random.Generator(np.random.PCG64(0))
        buckets = market.day_buckets(10.0, rng)
        total = sum(len(v) for v in buckets.buckets.values())
        live = int(market.live_mask(10.0, np.random.Generator(np.random.PCG64(0))).sum())
        assert total == live

    def test_bucket_members_homogeneous(self):
        market = MarketIndex(build_accounts(n=5))
        market.participation[:] = 1.0
        rng = np.random.Generator(np.random.PCG64(0))
        buckets = market.day_buckets(10.0, rng)
        for rows in buckets.buckets.values():
            keys = {
                (int(market.cell[i]), int(market.kw[i]), int(market.match[i]))
                for i in rows
            }
            assert len(keys) == 1

    def test_lookup_matches_buckets(self):
        market = MarketIndex(build_accounts(n=5))
        market.participation[:] = 1.0
        rng = np.random.Generator(np.random.PCG64(0))
        buckets = market.day_buckets(10.0, rng)
        for rows in buckets.buckets.values():
            i = rows[0]
            found = buckets.lookup(
                int(market.cell[i]), int(market.kw[i]), int(market.match[i])
            )
            assert found is not None
            assert set(found.tolist()) == set(rows.tolist())

    def test_empty_market(self):
        market = MarketIndex([])
        rng = np.random.Generator(np.random.PCG64(0))
        assert market.n_offers == 0
        assert not market.live_mask(1.0, rng).any()
        assert market.day_buckets(1.0, rng).buckets == {}

    def test_gather_matches_lookup(self):
        market = MarketIndex(build_accounts(n=5))
        market.participation[:] = 1.0
        rng = np.random.Generator(np.random.PCG64(0))
        buckets = market.day_buckets(10.0, rng)
        # Every real key, one missing key, in shuffled order.
        keys = np.concatenate([buckets.keys, [buckets.keys.max() + 1]])
        shuffle = np.random.Generator(np.random.PCG64(1)).permutation(len(keys))
        keys = keys[shuffle]
        rows, key_index = buckets.gather(keys)
        assert len(rows) == len(key_index)
        assert len(rows) == len(buckets.rows)  # missing key contributes nothing
        for position in np.unique(key_index):
            expected = buckets.buckets[int(keys[position])]
            got = rows[key_index == position]
            np.testing.assert_array_equal(got, expected)

    def test_gather_empty_inputs(self):
        market = MarketIndex(build_accounts(n=3))
        market.participation[:] = 1.0
        rng = np.random.Generator(np.random.PCG64(0))
        buckets = market.day_buckets(10.0, rng)
        rows, key_index = buckets.gather(np.zeros(0, dtype=np.int64))
        assert rows.size == 0 and key_index.size == 0
        empty = market.day_buckets(60.0, rng)  # after activity end
        rows, key_index = empty.gather(np.array([1, 2, 3], dtype=np.int64))
        assert rows.size == 0 and key_index.size == 0

    def test_gather_all_misses(self):
        market = MarketIndex(build_accounts(n=3))
        market.participation[:] = 1.0
        rng = np.random.Generator(np.random.PCG64(0))
        buckets = market.day_buckets(10.0, rng)
        missing = np.array(
            [buckets.keys.max() + 1, buckets.keys.max() + 2], dtype=np.int64
        )
        rows, key_index = buckets.gather(missing)
        assert rows.size == 0 and key_index.size == 0
