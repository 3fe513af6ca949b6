"""Differential tests: batched GSP kernel vs the scalar oracle.

The batched kernel (:func:`repro.auction.batch.run_auction_batch`) must
reproduce the scalar :func:`repro.auction.gsp.run_auction` *exactly* —
same ranking, same tie-breaking, same per-advertiser dedupe, same
layout, bit-equal prices — across randomized candidate sets, because
the simulation engine relies on the two paths being interchangeable.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.auction import Candidate, run_auction, run_auction_batch
from repro.config import AuctionConfig
from repro.entities.enums import MatchType

CONFIGS = {
    "cap1": AuctionConfig(
        mainline_slots=2,
        sidebar_slots=3,
        mainline_reserve=0.1,
        reserve_score=0.01,
        per_advertiser_cap=1,
    ),
    "cap3": AuctionConfig(per_advertiser_cap=3),
    "high_reserve": AuctionConfig(
        mainline_reserve=5.0, reserve_score=4.0, per_advertiser_cap=2
    ),
}

# Discrete bid/quality pools make rank-score ties (and below-reserve
# candidates) common, exercising the tie-break and layout edge cases.
_candidate = st.tuples(
    st.integers(1, 6),  # advertiser_id: few advertisers -> dedupe hits
    st.integers(1, 40),  # ad_id
    st.sampled_from([0.05, 0.5, 1.0, 1.0, 2.0, 7.0]),  # max_bid
    st.sampled_from([0.004, 0.01, 0.1, 0.1, 0.5, 1.0]),  # quality
    st.booleans(),  # fraud_labeled
)
_segments = st.lists(st.lists(_candidate, max_size=14), min_size=1, max_size=6)


def _to_arrays(segments):
    seg, adv, ad, bid, quality, fraud = [], [], [], [], [], []
    for index, candidates in enumerate(segments):
        for a, d, b, q, f in candidates:
            seg.append(index)
            adv.append(a)
            ad.append(d)
            bid.append(b)
            quality.append(q)
            fraud.append(f)
    return (
        np.asarray(seg, dtype=np.int64),
        np.asarray(adv, dtype=np.int64),
        np.asarray(ad, dtype=np.int64),
        np.asarray(bid, dtype=np.float64),
        np.asarray(quality, dtype=np.float64),
        np.asarray(fraud, dtype=bool),
    )


def _assert_equivalent(segments, config):
    seg, adv, ad, bid, quality, fraud = _to_arrays(segments)
    result = run_auction_batch(
        seg, adv, ad, bid, quality, fraud, config, len(segments)
    )
    flat = [c for candidates in segments for c in candidates]
    cursor = 0
    for index, raw in enumerate(segments):
        candidates = [
            Candidate(a, d, MatchType.EXACT, b, q, f)
            for a, d, b, q, f in raw
        ]
        outcome = run_auction(candidates, config)
        assert int(result.n_shown[index]) == outcome.n_shown
        assert int(result.n_fraud_shown[index]) == outcome.n_fraud_labeled()
        for shown in outcome.shown:
            assert int(result.segment[cursor]) == index
            batch_cand = flat[result.candidate_index[cursor]]
            scalar_cand = shown.candidate
            assert batch_cand[0] == scalar_cand.advertiser_id
            assert batch_cand[1] == scalar_cand.ad_id
            assert int(result.position[cursor]) == shown.position
            assert bool(result.mainline[cursor]) == shown.mainline
            # Bit-equal, not approximately equal: the kernel applies the
            # same float operations as the scalar pricing path.
            assert result.price[cursor] == shown.price_per_click
            cursor += 1
    assert cursor == len(result)


class TestRandomizedEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(segments=_segments)
    def test_cap_one(self, segments):
        _assert_equivalent(segments, CONFIGS["cap1"])

    @settings(max_examples=200, deadline=None)
    @given(segments=_segments)
    def test_cap_three(self, segments):
        _assert_equivalent(segments, CONFIGS["cap3"])

    @settings(max_examples=100, deadline=None)
    @given(segments=_segments)
    def test_high_reserve_filters(self, segments):
        _assert_equivalent(segments, CONFIGS["high_reserve"])


class TestEdgeCases:
    def test_empty_batch(self):
        result = run_auction_batch(
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
            np.zeros(0, dtype=np.float64),
            np.zeros(0, dtype=bool),
            CONFIGS["cap1"],
            4,
        )
        assert len(result) == 0
        assert result.n_shown.tolist() == [0, 0, 0, 0]
        assert result.n_fraud_shown.tolist() == [0, 0, 0, 0]

    def test_interleaved_empty_segments(self):
        segments = [
            [],
            [(1, 1, 2.0, 0.5, False)],
            [],
            [(2, 2, 1.0, 0.5, True), (3, 3, 0.5, 0.5, False)],
            [],
        ]
        _assert_equivalent(segments, CONFIGS["cap1"])

    def test_all_below_reserve(self):
        segments = [[(1, 1, 0.05, 0.004, False), (2, 2, 0.05, 0.004, True)]]
        _assert_equivalent(segments, CONFIGS["cap1"])
        seg, adv, ad, bid, quality, fraud = _to_arrays(segments)
        result = run_auction_batch(
            seg, adv, ad, bid, quality, fraud, CONFIGS["cap1"], 1
        )
        assert len(result) == 0
        assert result.n_shown.tolist() == [0]

    def test_per_advertiser_cap_keeps_best_ranked(self):
        # One advertiser floods the auction; only its `cap` best offers
        # survive and a competitor still makes the page.
        segments = [
            [
                (1, 10, 2.0, 0.5, False),
                (1, 11, 1.9, 0.5, False),
                (1, 12, 1.8, 0.5, False),
                (2, 20, 1.0, 0.5, False),
            ]
        ]
        _assert_equivalent(segments, CONFIGS["cap1"])
        seg, adv, ad, bid, quality, fraud = _to_arrays(segments)
        result = run_auction_batch(
            seg, adv, ad, bid, quality, fraud, CONFIGS["cap1"], 1
        )
        shown_ads = [segments[0][i][1] for i in result.candidate_index]
        assert shown_ads == [10, 20]

    def test_tie_break_by_advertiser_then_ad(self):
        # Identical rank scores: order must be (advertiser_id, ad_id).
        segments = [
            [
                (3, 1, 1.0, 0.5, False),
                (1, 9, 1.0, 0.5, False),
                (1, 2, 1.0, 0.5, False),
                (2, 5, 1.0, 0.5, False),
            ]
        ]
        _assert_equivalent(segments, CONFIGS["cap3"])
        seg, adv, ad, bid, quality, fraud = _to_arrays(segments)
        result = run_auction_batch(
            seg, adv, ad, bid, quality, fraud, CONFIGS["cap3"], 1
        )
        order = [(segments[0][i][0], segments[0][i][1]) for i in result.candidate_index]
        assert order == sorted(order)

    def test_reserve_floor_prices_last_ad(self):
        segments = [[(1, 1, 2.0, 0.2, False)]]
        seg, adv, ad, bid, quality, fraud = _to_arrays(segments)
        config = CONFIGS["cap1"]
        result = run_auction_batch(seg, adv, ad, bid, quality, fraud, config, 1)
        expected = config.reserve_score / 0.2 + config.price_increment
        assert result.price[0] == pytest.approx(expected)
        _assert_equivalent(segments, config)
