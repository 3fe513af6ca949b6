"""Tests for profile sampling (legitimate and fraudulent)."""

import numpy as np
import pytest

from repro.behavior.fraudulent import sample_fraud_profile
from repro.behavior.legitimate import sample_legitimate_profile
from repro.behavior.profiles import ACTIVITY_NORM, AdvertiserProfile
from repro.behavior.bidding import BidLevels, MatchMix
from repro.config import default_config
from repro.entities.enums import AdvertiserKind
from repro.taxonomy.verticals import vertical

CONFIG = default_config()


def _rng(seed=11):
    return np.random.Generator(np.random.PCG64(seed))


def _many_fraud(prolific, n=400, seed=11):
    rng = _rng(seed)
    return [sample_fraud_profile(CONFIG, rng, prolific) for _ in range(n)]


def _many_legit(n=400, seed=12):
    rng = _rng(seed)
    return [sample_legitimate_profile(CONFIG, rng) for _ in range(n)]


class TestProfileValidation:
    def _profile(self, **overrides):
        defaults = dict(
            kind=AdvertiserKind.LEGITIMATE,
            country="US",
            verticals=("retail",),
            target_countries=("US",),
            n_ads=5,
            kw_per_ad=3,
            activity_scale=1.0,
            quality=1.0,
            match_mix=MatchMix(0.3, 0.5, 0.2),
            bid_levels=BidLevels(1.0, 1.0, 1.0),
            evasion_skill=0.0,
            uses_stolen_payment=False,
            first_ad_delay=1.0,
            mod_rate_per_entity=0.01,
        )
        defaults.update(overrides)
        return AdvertiserProfile(**defaults)

    def test_alignment_required(self):
        with pytest.raises(ValueError):
            self._profile(verticals=("retail", "travel"), target_countries=("US",))

    def test_validation(self):
        with pytest.raises(ValueError):
            self._profile(activity_scale=0.0)
        with pytest.raises(ValueError):
            self._profile(quality=-1.0)
        with pytest.raises(ValueError):
            self._profile(evasion_skill=1.5)

    def test_fraud_flag(self):
        assert not self._profile().is_fraud
        assert self._profile(kind=AdvertiserKind.FRAUD_TYPICAL).is_fraud
        assert self._profile(kind=AdvertiserKind.FRAUD_PROLIFIC).is_fraud

    def test_participation_capped(self):
        profile = self._profile(activity_scale=ACTIVITY_NORM * 100)
        assert profile.participation_prob == 1.0

    def test_participation_proportional(self):
        profile = self._profile(activity_scale=ACTIVITY_NORM / 2)
        assert profile.participation_prob == pytest.approx(0.5)

    def test_primary_vertical(self):
        profile = self._profile(
            verticals=("luxury", "games"), target_countries=("US", "US")
        )
        assert profile.primary_vertical == "luxury"


class TestFraudProfiles:
    def test_fraud_only_dubious_verticals(self):
        for profile in _many_fraud(prolific=False, n=200):
            for name in profile.verticals:
                assert vertical(name).dubious

    def test_prolific_more_active(self):
        typical = np.median([p.activity_scale for p in _many_fraud(False)])
        prolific = np.median([p.activity_scale for p in _many_fraud(True)])
        assert prolific > typical

    def test_prolific_focuses(self):
        typical = np.mean([len(p.verticals) for p in _many_fraud(False)])
        prolific = np.mean([len(p.verticals) for p in _many_fraud(True)])
        assert prolific < typical

    def test_prolific_evasion_higher(self):
        typical = np.mean([p.evasion_skill for p in _many_fraud(False)])
        prolific = np.mean([p.evasion_skill for p in _many_fraud(True)])
        assert prolific > 0.6 > typical

    def test_prolific_mostly_pays_bills(self):
        # "The most prolific fraudulent advertisers even pay their (very
        # large) bills": stolen instruments are the exception.
        stolen = np.mean([p.uses_stolen_payment for p in _many_fraud(True)])
        assert stolen < 0.3

    def test_typical_often_stolen_payment(self):
        stolen = np.mean([p.uses_stolen_payment for p in _many_fraud(False)])
        assert stolen > 0.4

    def test_small_footprint(self):
        ads = np.median([p.n_ads for p in _many_fraud(False)])
        assert ads <= 4


class TestLegitimateProfiles:
    def test_larger_footprint_than_fraud(self):
        legit_ads = np.median([p.n_ads for p in _many_legit()])
        fraud_ads = np.median([p.n_ads for p in _many_fraud(False)])
        assert legit_ads >= 10 * fraud_ads / 2  # order-of-magnitude gap

    def test_no_evasion(self):
        for profile in _many_legit(n=50):
            assert profile.evasion_skill == 0.0
            assert not profile.uses_stolen_payment

    def test_kind(self):
        assert all(
            p.kind is AdvertiserKind.LEGITIMATE for p in _many_legit(n=20)
        )

    def test_targets_exist(self):
        from repro.taxonomy.geography import country

        for profile in _many_legit(n=100):
            for code in profile.target_countries:
                country(code)  # raises KeyError if invalid
