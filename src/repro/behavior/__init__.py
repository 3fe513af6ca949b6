"""Behaviour models of advertisers: profiles, bidding styles, materialization."""

from .batch import materialize_account_batch
from .bidding import BidLevels, MatchMix, sample_bid_levels, sample_match_mix
from .factory import IdAllocator, MaterializedAccount, materialize_account
from .fraudulent import sample_fraud_profile
from .legitimate import sample_legitimate_profile
from .profiles import ACTIVITY_NORM, AdvertiserProfile

__all__ = [
    "AdvertiserProfile",
    "ACTIVITY_NORM",
    "MatchMix",
    "BidLevels",
    "sample_match_mix",
    "sample_bid_levels",
    "sample_legitimate_profile",
    "sample_fraud_profile",
    "IdAllocator",
    "MaterializedAccount",
    "materialize_account",
    "materialize_account_batch",
]
