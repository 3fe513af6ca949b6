"""Marketplace entities: the advertiser account, enums and domains.

Ads and keyword bids are not objects: Phase 1 records them as plain
columns of :class:`repro.behavior.factory.MaterializedAccount`.
"""

from .advertiser import Advertiser
from .domains import (
    AFFILIATE_DOMAINS,
    SHORTENER_DOMAINS,
    sample_domain_count,
    shared_domains,
    unique_domain,
)
from .enums import AccountStatus, AdvertiserKind, MatchType, ShutdownReason

__all__ = [
    "Advertiser",
    "AccountStatus",
    "AdvertiserKind",
    "MatchType",
    "ShutdownReason",
    "AFFILIATE_DOMAINS",
    "SHORTENER_DOMAINS",
    "sample_domain_count",
    "shared_domains",
    "unique_domain",
]
