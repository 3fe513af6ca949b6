"""Tests for the Advertiser entity."""

import pytest

from repro.entities import (
    AccountStatus,
    Advertiser,
    AdvertiserKind,
    ShutdownReason,
)


def make_advertiser(**overrides):
    defaults = dict(
        advertiser_id=1,
        kind=AdvertiserKind.FRAUD_TYPICAL,
        created_time=10.0,
        country="US",
        language="en",
        currency="USD",
        activity_scale=1.0,
        quality=1.0,
    )
    defaults.update(overrides)
    return Advertiser(**defaults)


class TestLifecycle:
    def test_fraud_flag(self):
        assert make_advertiser().is_fraud
        assert not make_advertiser(kind=AdvertiserKind.LEGITIMATE).is_fraud
        assert make_advertiser(kind=AdvertiserKind.FRAUD_PROLIFIC).is_fraud

    def test_shutdown(self):
        adv = make_advertiser()
        adv.shutdown(12.5, ShutdownReason.CONTENT_FILTER, as_fraud=True)
        assert adv.status is AccountStatus.SHUTDOWN
        assert adv.shutdown_time == 12.5
        assert adv.labeled_fraud

    def test_double_shutdown_rejected(self):
        adv = make_advertiser()
        adv.shutdown(12.5, ShutdownReason.BEHAVIORAL, as_fraud=True)
        with pytest.raises(ValueError):
            adv.shutdown(13.0, ShutdownReason.BEHAVIORAL, as_fraud=True)

    def test_shutdown_before_creation_rejected(self):
        adv = make_advertiser()
        with pytest.raises(ValueError):
            adv.shutdown(5.0, ShutdownReason.BEHAVIORAL, as_fraud=True)

    def test_record_first_ad_keeps_earliest(self):
        adv = make_advertiser()
        adv.record_first_ad(15.0)
        adv.record_first_ad(20.0)
        assert adv.first_ad_time == 15.0
        adv.record_first_ad(12.0)
        assert adv.first_ad_time == 12.0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_advertiser(activity_scale=0.0)
        with pytest.raises(ValueError):
            make_advertiser(quality=-1.0)
        with pytest.raises(ValueError):
            make_advertiser(evasion_skill=1.5)
