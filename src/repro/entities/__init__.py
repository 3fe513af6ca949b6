"""Marketplace vocabulary: the shared enums and destination domains.

Phase 1 builds no entity object.  An account, with its ads and keyword
bids as plain columns and its detection outcome as plain fields, is one
:class:`repro.behavior.factory.MaterializedAccount`.
"""

from .domains import (
    AFFILIATE_DOMAINS,
    SHORTENER_DOMAINS,
    sample_domain_count,
    shared_domains,
    unique_domain,
)
from .enums import AdvertiserKind, MatchType, ShutdownReason

__all__ = [
    "AdvertiserKind",
    "MatchType",
    "ShutdownReason",
    "AFFILIATE_DOMAINS",
    "SHORTENER_DOMAINS",
    "sample_domain_count",
    "shared_domains",
    "unique_domain",
]
