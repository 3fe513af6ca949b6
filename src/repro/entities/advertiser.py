"""Advertiser account entity."""

from __future__ import annotations

from dataclasses import dataclass

from .enums import AccountStatus, AdvertiserKind, ShutdownReason

__all__ = ["Advertiser"]


@dataclass
class Advertiser:
    """An advertiser account -- the paper's unit of accountability.

    Ground truth (``kind``) and the platform's label (``labeled_fraud``)
    are deliberately separate: the analyses, like the paper's, work from
    what the detection pipeline *finds*, so fraud that evades detection
    for the whole study is analysed as non-fraudulent.

    Attributes:
        advertiser_id: Globally unique identifier.
        kind: Ground-truth population.
        created_time: Registration time (fractional days).
        country: Registration country code.
        language: Registration language.
        currency: Home currency.
        activity_scale: Per-account traffic multiplier (heavy-tailed).
        quality: Intrinsic targeting quality in [0, ~2]; enters the
            auction's quality score.
        evasion_skill: In [0, 1]; reduces blacklist/content detection.
        uses_stolen_payment: Whether payment-instrument fraud is in play
            (enables chargeback detection, removes spend discipline).
        status/shutdown_time/shutdown_reason: Lifecycle outcome.
        labeled_fraud: Whether the platform shut the account down as
            fraudulent by the end of the study.
        first_ad_time: When the account first posted an ad, if ever.
    """

    advertiser_id: int
    kind: AdvertiserKind
    created_time: float
    country: str
    language: str
    currency: str
    activity_scale: float
    quality: float
    evasion_skill: float = 0.0
    uses_stolen_payment: bool = False
    status: AccountStatus = AccountStatus.ACTIVE
    shutdown_time: float | None = None
    shutdown_reason: ShutdownReason | None = None
    labeled_fraud: bool = False
    first_ad_time: float | None = None

    def __post_init__(self) -> None:
        if self.activity_scale <= 0:
            raise ValueError("activity_scale must be > 0")
        if self.quality <= 0:
            raise ValueError("quality must be > 0")
        if not 0.0 <= self.evasion_skill <= 1.0:
            raise ValueError("evasion_skill must be in [0, 1]")

    @property
    def is_fraud(self) -> bool:
        """Ground-truth fraud flag."""
        return self.kind.is_fraud

    def shutdown(self, time: float, reason: ShutdownReason, as_fraud: bool) -> None:
        """Freeze the account at ``time``.

        Raises:
            ValueError: if the account is already shut down or the
                shutdown would predate registration.
        """
        if self.status is AccountStatus.SHUTDOWN:
            raise ValueError(f"advertiser {self.advertiser_id} already shut down")
        if time < self.created_time:
            raise ValueError("shutdown cannot predate registration")
        self.status = AccountStatus.SHUTDOWN
        self.shutdown_time = time
        self.shutdown_reason = reason
        self.labeled_fraud = as_fraud

    def record_first_ad(self, time: float) -> None:
        """Note the first ad posting (idempotent; keeps the earliest)."""
        if self.first_ad_time is None or time < self.first_ad_time:
            self.first_ad_time = time
