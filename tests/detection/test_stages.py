"""Tests for individual detection stages."""

import numpy as np
import pytest

from repro.behavior.bidding import BidLevels, MatchMix
from repro.behavior.profiles import AdvertiserProfile
from repro.config import DetectionConfig, QueryConfig
from repro.detection.hazards import hardening_multiplier, sample_exponential_delay
from repro.detection.payment import sample_payment_detection
from repro.detection.rate_monitor import rate_hazard, sample_rate_detection
from repro.detection.registration import screen_registration
from repro.entities.enums import AdvertiserKind

DETECTION = DetectionConfig()
QUERY = QueryConfig()


def make_profile(kind=AdvertiserKind.FRAUD_TYPICAL, **overrides):
    defaults = dict(
        kind=kind,
        country="US",
        verticals=("downloads",),
        target_countries=("US",),
        n_ads=2,
        kw_per_ad=2,
        activity_scale=10.0,
        quality=1.0,
        match_mix=MatchMix(0.2, 0.5, 0.3),
        bid_levels=BidLevels(1.0, 1.0, 1.0),
        evasion_skill=0.2,
        uses_stolen_payment=True,
        first_ad_delay=0.5,
        mod_rate_per_entity=0.004,
    )
    defaults.update(overrides)
    return AdvertiserProfile(**defaults)


class TestHazards:
    def test_hardening_ramp(self):
        assert hardening_multiplier(0, 100, 2.0) == pytest.approx(1.0)
        assert hardening_multiplier(100, 100, 2.0) == pytest.approx(2.0)
        assert hardening_multiplier(50, 100, 2.0) == pytest.approx(1.5)
        assert hardening_multiplier(200, 100, 2.0) == pytest.approx(2.0)

    def test_exponential_delay_mean(self, rng):
        samples = [sample_exponential_delay(2.0, rng) for _ in range(3000)]
        assert np.mean(samples) == pytest.approx(2.0, rel=0.1)

    def test_bad_mean_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_exponential_delay(0.0, rng)

    def test_bad_total_days(self):
        with pytest.raises(ValueError):
            hardening_multiplier(1, 0, 2.0)


class TestRegistrationScreen:
    def test_legit_never_screened(self, rng):
        profile = make_profile(
            kind=AdvertiserKind.LEGITIMATE,
            evasion_skill=0.0,
            uses_stolen_payment=False,
        )
        assert all(
            screen_registration(profile, 0.0, DETECTION, rng) is None
            for _ in range(200)
        )

    def test_fraud_screen_rate(self, rng):
        profile = make_profile(evasion_skill=0.0, uses_stolen_payment=False)
        caught = sum(
            screen_registration(profile, 0.0, DETECTION, rng) is not None
            for _ in range(3000)
        )
        assert 0.25 < caught / 3000 < 0.45

    def test_evasion_lowers_screen_rate(self, rng):
        naive = make_profile(evasion_skill=0.0)
        skilled = make_profile(evasion_skill=1.0)
        naive_caught = sum(
            screen_registration(naive, 0.0, DETECTION, rng) is not None
            for _ in range(2000)
        )
        skilled_caught = sum(
            screen_registration(skilled, 0.0, DETECTION, rng) is not None
            for _ in range(2000)
        )
        assert skilled_caught < naive_caught

    def test_screen_time_after_creation(self, rng):
        profile = make_profile(evasion_skill=0.0)
        for _ in range(200):
            time = screen_registration(profile, 10.0, DETECTION, rng)
            if time is not None:
                assert time > 10.0


class TestRateMonitor:
    def test_legit_no_hazard(self):
        profile = make_profile(kind=AdvertiserKind.LEGITIMATE)
        assert rate_hazard(profile, QUERY, DETECTION) == 0.0

    def test_low_rate_no_hazard(self):
        profile = make_profile(activity_scale=0.001)
        assert rate_hazard(profile, QUERY, DETECTION) == 0.0

    def test_high_rate_hazard_grows(self):
        slow = make_profile(activity_scale=30.0)
        fast = make_profile(activity_scale=3000.0)
        assert rate_hazard(fast, QUERY, DETECTION) > rate_hazard(
            slow, QUERY, DETECTION
        )

    def test_prolific_dampened(self):
        typical = make_profile(activity_scale=3000.0)
        prolific = make_profile(
            kind=AdvertiserKind.FRAUD_PROLIFIC, activity_scale=3000.0
        )
        assert rate_hazard(prolific, QUERY, DETECTION) < rate_hazard(
            typical, QUERY, DETECTION
        )

    def test_detection_time_after_first_ad(self, rng):
        profile = make_profile(activity_scale=3000.0)
        time = sample_rate_detection(profile, 7.0, QUERY, DETECTION, 1.0, rng)
        assert time is None or time > 7.0


class TestPayment:
    def test_clean_payment_never_detected(self, rng):
        profile = make_profile(uses_stolen_payment=False)
        assert (
            sample_payment_detection(profile, 0.0, DETECTION, 1.0, rng) is None
        )

    def test_stolen_payment_detected_with_delay(self, rng):
        profile = make_profile(uses_stolen_payment=True)
        times = [
            sample_payment_detection(profile, 5.0, DETECTION, 1.0, rng)
            for _ in range(500)
        ]
        assert all(t is not None and t > 5.0 for t in times)
        # Median delay ~ exp(chargeback_mu) days.
        delays = np.asarray([t - 5.0 for t in times])
        assert np.median(delays) == pytest.approx(
            np.exp(DETECTION.chargeback_mu), rel=0.35
        )

    def test_hardening_shortens_delay(self, rng):
        profile = make_profile(uses_stolen_payment=True)
        slow = np.median(
            [
                sample_payment_detection(profile, 0.0, DETECTION, 1.0, rng)
                for _ in range(400)
            ]
        )
        fast = np.median(
            [
                sample_payment_detection(profile, 0.0, DETECTION, 2.0, rng)
                for _ in range(400)
            ]
        )
        assert fast < slow
