"""Typed record schemas for the paper's three datasets.

* Customer records -- :class:`CustomerRecord`.
* Ad impression and click records -- see
  :mod:`repro.records.impressions`.
* Fraud detection records -- :class:`DetectionRecord`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..entities.enums import AdvertiserKind, ShutdownReason

__all__ = ["CustomerRecord", "DetectionRecord"]


@dataclass(frozen=True)
class CustomerRecord:
    """One advertiser account, as the platform's customer dataset sees it.

    ``kind`` is simulation ground truth; it is exported for validation
    but the analyses only use ``labeled_fraud``, mirroring the paper's
    reliance on Bing's own shutdown labels.
    """

    advertiser_id: int
    created_time: float
    country: str
    language: str
    currency: str
    kind: str
    labeled_fraud: bool
    shutdown_time: float | None
    shutdown_reason: str | None
    first_ad_time: float | None
    n_ads: int
    n_keywords: int

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def is_fraud_ground_truth(self) -> bool:
        """Ground-truth fraud flag (not the platform label)."""
        return AdvertiserKind(self.kind).is_fraud


@dataclass(frozen=True)
class DetectionRecord:
    """One enforcement action: the platform froze an account."""

    advertiser_id: int
    time: float
    stage: str
    labeled_fraud: bool

    @classmethod
    def make(
        cls, advertiser_id: int, time: float, stage: ShutdownReason, labeled: bool
    ) -> "DetectionRecord":
        """Build a record from enum-typed arguments."""
        return cls(
            advertiser_id=advertiser_id,
            time=time,
            stage=stage.value,
            labeled_fraud=labeled,
        )

    def to_dict(self) -> dict:
        return asdict(self)
