"""Tests for the policy engine and the full detection pipeline."""

import numpy as np

from repro.behavior.factory import IdAllocator, MaterializedAccount, materialize_account
from repro.behavior.fraudulent import sample_fraud_profile
from repro.config import DetectionConfig, default_config
from repro.detection.content_filter import content_filter_catch_prob
from repro.detection.pipeline import DetectionPipeline
from repro.detection.policy import PolicyEngine
from repro.matching.blacklist import Blacklist

CONFIG = default_config()


def build_account(profile, first_ad=5.0, horizon=200.0, seed=5):
    rng = np.random.Generator(np.random.PCG64(seed))
    account = MaterializedAccount(
        advertiser_id=1, profile=profile, created_time=first_ad - 1.0
    )
    materialize_account(account, first_ad, horizon, CONFIG, IdAllocator(), rng)
    return account


def fraud_profile(seed=1, prolific=False, vertical=None):
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(500):
        profile = sample_fraud_profile(CONFIG, rng, prolific)
        if vertical is None or profile.primary_vertical == vertical:
            return profile
    raise AssertionError(f"could not sample a profile in {vertical}")


class TestPolicyEngine:
    def test_no_ban_no_sweep(self, rng):
        engine = PolicyEngine.from_config(
            DetectionConfig(techsupport_ban_day=None)
        )
        assert engine.sweep_time(("techsupport",), 0.0, 1.0, rng) is None

    def test_ban_sweeps_existing_accounts(self, rng):
        engine = PolicyEngine.from_config(
            DetectionConfig(techsupport_ban_day=100.0)
        )
        times = [
            engine.sweep_time(("techsupport",), 0.0, 1.0, rng)
            for _ in range(100)
        ]
        assert all(t is not None and t >= 100.0 for t in times)

    def test_post_ban_entrants_caught_fast(self, rng):
        engine = PolicyEngine.from_config(
            DetectionConfig(techsupport_ban_day=100.0)
        )
        times = [
            engine.sweep_time(("techsupport",), 150.0, 151.0, rng)
            for _ in range(200)
        ]
        caught = [t for t in times if t is not None]
        assert len(caught) > 150
        assert np.median([t - 151.0 for t in caught]) < 2.0

    def test_other_verticals_untouched(self, rng):
        engine = PolicyEngine.from_config(
            DetectionConfig(techsupport_ban_day=100.0)
        )
        assert engine.sweep_time(("downloads",), 0.0, 1.0, rng) is None

    def test_vertical_banned_at(self):
        engine = PolicyEngine.from_config(
            DetectionConfig(techsupport_ban_day=100.0)
        )
        assert not engine.vertical_banned_at("techsupport", 99.0)
        assert engine.vertical_banned_at("techsupport", 100.0)
        assert not engine.vertical_banned_at("downloads", 200.0)

    def test_blacklist_enactment(self):
        engine = PolicyEngine.from_config(
            DetectionConfig(techsupport_ban_day=100.0)
        )
        blacklist = Blacklist.default()
        engine.apply_to_blacklist(blacklist, 50.0)
        assert not blacklist.term_hits("call our helpline")
        engine.apply_to_blacklist(blacklist, 100.0)
        assert blacklist.term_hits("call our helpline")


class TestContentFilter:
    def test_branded_copy_raises_catch_prob(self):
        blacklist = Blacklist.default()
        risky = build_account(fraud_profile(seed=3, vertical="impersonation"))
        # Typical impersonation fraud uses branded copy and keywords.
        prob = content_filter_catch_prob(
            risky, blacklist, CONFIG.detection, 1.0
        )
        assert prob > CONFIG.detection.content_filter_prob

    def test_prolific_evasive_low_catch(self):
        blacklist = Blacklist.default()
        probs = []
        for seed in range(12):
            account = build_account(
                fraud_profile(seed=seed, prolific=True, vertical="weightloss"),
                seed=seed,
            )
            probs.append(
                content_filter_catch_prob(
                    account, blacklist, CONFIG.detection, 1.0
                )
            )
        assert np.median(probs) < 0.2


class TestPipeline:
    def _pipeline(self, **overrides):
        detection = DetectionConfig(**overrides) if overrides else CONFIG.detection
        return DetectionPipeline(detection, CONFIG.query, 728.0)

    def test_fraud_eventually_detected(self):
        pipeline = self._pipeline(evade_study_prob=0.0)
        rng = np.random.Generator(np.random.PCG64(9))
        outcomes = []
        for seed in range(30):
            account = build_account(fraud_profile(seed=seed), seed=seed)
            outcomes.append(
                pipeline.evaluate_fraud_account(account, 5.0, rng)
            )
        assert all(o.detected for o in outcomes)
        assert all(o.shutdown_time > 5.0 for o in outcomes)
        assert all(o.labeled_fraud for o in outcomes)

    def test_evade_study(self):
        pipeline = self._pipeline(evade_study_prob=1.0)
        rng = np.random.Generator(np.random.PCG64(9))
        account = build_account(fraud_profile(seed=2))
        outcome = pipeline.evaluate_fraud_account(account, 5.0, rng)
        assert not outcome.detected
        assert not outcome.labeled_fraud

    def test_legit_rarely_hit(self):
        pipeline = self._pipeline()
        rng = np.random.Generator(np.random.PCG64(10))
        hits = sum(
            pipeline.evaluate_legitimate_account(0.0, rng, 728.0).detected
            for _ in range(4000)
        )
        assert hits / 4000 < 0.01

    def test_commit_records_and_blacklists(self):
        pipeline = self._pipeline()
        rng = np.random.Generator(np.random.PCG64(11))
        account = build_account(fraud_profile(seed=4))
        outcome = pipeline.evaluate_fraud_account(account, 5.0, rng)
        pipeline.commit(1, outcome, ["badsite123.biz"])
        assert len(pipeline.records) == 1
        assert pipeline.records[0].advertiser_id == 1
        assert pipeline.blacklist.is_domain_blacklisted("badsite123.biz")

    def test_commit_ignores_undetected(self):
        pipeline = self._pipeline()
        from repro.detection.pipeline import DetectionOutcome

        pipeline.commit(1, DetectionOutcome(None, None, False))
        assert pipeline.records == []

    def test_prolific_lives_longer(self):
        pipeline = self._pipeline(evade_study_prob=0.0, payment_fraud_prob=0.0)
        rng = np.random.Generator(np.random.PCG64(12))
        typical_lifetimes, prolific_lifetimes = [], []
        for seed in range(40):
            t_account = build_account(
                fraud_profile(seed=seed, vertical="weightloss"), seed=seed
            )
            outcome = pipeline.evaluate_fraud_account(t_account, 5.0, rng)
            if outcome.detected:
                typical_lifetimes.append(outcome.shutdown_time - 5.0)
            p_account = build_account(
                fraud_profile(seed=seed + 500, prolific=True, vertical="weightloss"),
                seed=seed,
            )
            outcome = pipeline.evaluate_fraud_account(p_account, 5.0, rng)
            if outcome.detected:
                prolific_lifetimes.append(outcome.shutdown_time - 5.0)
        assert np.median(prolific_lifetimes) > 5 * np.median(typical_lifetimes)
