"""The end-to-end anti-fraud pipeline.

Stages (Sections 2-4): registration screening, content filtering at ad
posting, rate monitoring, payment-network signals, behavioural
detection backed by manual review, and policy sweeps.  The account's
shutdown time is the earliest firing stage; a small share of fraud
evades the study entirely and a (low) friendly-fire rate hits
legitimate accounts.

The pipeline evaluates an account once its ads are materialized, which
lets the content filter scan the *actual* ad copy and keywords the
account created (including evasive copy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..behavior.factory import MaterializedAccount
from ..behavior.profiles import AdvertiserProfile
from ..config import DetectionConfig, QueryConfig
from ..entities.enums import AdvertiserKind, ShutdownReason
from ..matching.blacklist import Blacklist
from ..records.schemas import DetectionRecord
from .content_filter import evaluate_content
from .hazards import hardening_multiplier
from .payment import sample_payment_detection
from .policy import PolicyEngine
from .rate_monitor import sample_rate_detection
from .registration import screen_registration

__all__ = ["DetectionOutcome", "DetectionPipeline"]

#: Share of behavioural detections attributed to manual review.
MANUAL_REVIEW_SHARE = 0.4


@dataclass(frozen=True)
class DetectionOutcome:
    """Final enforcement decision for one account."""

    shutdown_time: float | None
    reason: ShutdownReason | None
    labeled_fraud: bool

    @property
    def detected(self) -> bool:
        """Whether any stage fired within the study."""
        return self.shutdown_time is not None


class DetectionPipeline:
    """Stateful pipeline owning the blacklist and policy engine."""

    def __init__(
        self,
        config: DetectionConfig,
        query_config: QueryConfig,
        total_days: float,
    ) -> None:
        self.config = config
        self.query_config = query_config
        self.total_days = total_days
        self.blacklist = Blacklist.default()
        self.policy = PolicyEngine.from_config(config)
        self.records: list[DetectionRecord] = []

    def _hardening(self, time: float) -> float:
        return hardening_multiplier(time, self.total_days, self.config.hardening_factor)

    def screen_registration(
        self,
        profile: AdvertiserProfile,
        created_time: float,
        rng: np.random.Generator,
    ) -> float | None:
        """Registration-time screen; returns the shutdown time if caught."""
        return screen_registration(profile, created_time, self.config, rng)

    def _behavioral_time(
        self,
        profile: AdvertiserProfile,
        first_ad_time: float,
        rng: np.random.Generator,
    ) -> float:
        if profile.kind is AdvertiserKind.FRAUD_PROLIFIC:
            hazard = self.config.prolific_behavior_hazard
        else:
            hazard = self.config.behavior_hazard
        hazard *= self._hardening(first_ad_time)
        return first_ad_time + float(rng.exponential(1.0 / hazard))

    def evaluate_fraud_account(
        self,
        account: MaterializedAccount,
        first_ad_time: float,
        rng: np.random.Generator,
    ) -> DetectionOutcome:
        """Decide when (and by which stage) a posting fraud account dies."""
        profile = account.profile
        # Make sure any policy effective by now is on the blacklist, so
        # the content filter sees (for example) the tech-support terms.
        self.policy.apply_to_blacklist(self.blacklist, first_ad_time)
        if rng.random() < self.config.evade_study_prob:
            return DetectionOutcome(None, None, False)

        hardening = self._hardening(first_ad_time)
        candidates: list[tuple[float, ShutdownReason]] = []
        content_time = evaluate_content(
            account, first_ad_time, self.blacklist, self.config, hardening, rng
        )
        if content_time is not None:
            candidates.append((content_time, ShutdownReason.CONTENT_FILTER))
        rate_time = sample_rate_detection(
            profile, first_ad_time, self.query_config, self.config, hardening, rng
        )
        if rate_time is not None:
            candidates.append((rate_time, ShutdownReason.RATE_MONITOR))
        payment_time = sample_payment_detection(
            profile, first_ad_time, self.config, hardening, rng
        )
        if payment_time is not None:
            candidates.append((payment_time, ShutdownReason.PAYMENT_FRAUD))
        behavioral_time = self._behavioral_time(profile, first_ad_time, rng)
        behavioral_reason = (
            ShutdownReason.MANUAL_REVIEW
            if rng.random() < MANUAL_REVIEW_SHARE
            else ShutdownReason.BEHAVIORAL
        )
        candidates.append((behavioral_time, behavioral_reason))
        policy_time = self.policy.sweep_time(
            profile.verticals, account.created_time, first_ad_time, rng
        )
        if policy_time is not None:
            candidates.append((policy_time, ShutdownReason.POLICY_CHANGE))

        time, reason = min(candidates, key=lambda item: item[0])
        return DetectionOutcome(time, reason, True)

    def evaluate_legitimate_account(
        self,
        created_time: float,
        rng: np.random.Generator,
        horizon: float,
    ) -> DetectionOutcome:
        """Friendly fire: rare mistaken shutdown of a legitimate account."""
        if rng.random() >= self.config.friendly_fire_prob:
            return DetectionOutcome(None, None, False)
        time = float(rng.uniform(created_time, max(created_time + 1.0, horizon)))
        return DetectionOutcome(time, ShutdownReason.FRIENDLY_FIRE, True)

    def commit(
        self,
        advertiser_id: int,
        outcome: DetectionOutcome,
        domains: list[str] | None = None,
    ) -> None:
        """Record an enforcement action and grow the domain blacklist."""
        if outcome.shutdown_time is None or outcome.reason is None:
            return
        # Per-stage shutdown telemetry; a counter bump only -- the
        # pipeline's RNG draws happened before commit() is reached.
        obs.counter(f"detection.shutdowns.{outcome.reason.value}").inc()
        self.records.append(
            DetectionRecord.make(
                advertiser_id,
                outcome.shutdown_time,
                outcome.reason,
                outcome.labeled_fraud,
            )
        )
        if outcome.labeled_fraud and domains:
            for domain in domains:
                self.blacklist.add_domain(domain)
