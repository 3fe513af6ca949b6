"""Enumerations shared across the marketplace."""

from __future__ import annotations

import enum

__all__ = ["MatchType", "AdvertiserKind", "ShutdownReason"]


class MatchType(enum.Enum):
    """Bing's three keyword match types (Section 5.3)."""

    EXACT = "exact"
    PHRASE = "phrase"
    BROAD = "broad"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class AdvertiserKind(enum.Enum):
    """Ground-truth population an account belongs to.

    ``FRAUD_PROLIFIC`` models the small set of operators who dominate
    fraudulent spend/clicks (Figure 4): they invest in evasion, survive
    far longer, and focus on fewer, more lucrative verticals.
    """

    LEGITIMATE = "legitimate"
    FRAUD_TYPICAL = "fraud_typical"
    FRAUD_PROLIFIC = "fraud_prolific"

    @property
    def is_fraud(self) -> bool:
        """Whether the kind is a fraud population."""
        return self is not AdvertiserKind.LEGITIMATE

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ShutdownReason(enum.Enum):
    """Which detection stage shut the account down."""

    REGISTRATION_SCREEN = "registration_screen"
    CONTENT_FILTER = "content_filter"
    RATE_MONITOR = "rate_monitor"
    PAYMENT_FRAUD = "payment_fraud"
    BEHAVIORAL = "behavioral"
    MANUAL_REVIEW = "manual_review"
    POLICY_CHANGE = "policy_change"
    FRIENDLY_FIRE = "friendly_fire"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value
