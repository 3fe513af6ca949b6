"""Behaviour profiles of advertisers.

A profile captures everything the simulator needs to know about how an
account *intends* to behave: which verticals and markets it targets,
how many ads and keywords it runs, its bidding style, activity level,
evasion investment, and churn rates.  Profiles are sampled by
:mod:`repro.behavior.legitimate` and :mod:`repro.behavior.fraudulent`
and materialized into account columns by :mod:`repro.behavior.factory`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..entities.enums import AdvertiserKind
from .bidding import BidLevels, MatchMix

__all__ = ["AdvertiserProfile"]

#: Activity scale at which an account participates in every matching
#: auction; smaller scales participate proportionally less often
#: (budget/dayparting abstraction).
ACTIVITY_NORM = 60.0


@dataclass(frozen=True)
class AdvertiserProfile:
    """Sampled behavioural plan for one account.

    Attributes:
        kind: Population (legitimate / typical fraud / prolific fraud).
        country: Registration country code.
        verticals: Vertical names the account runs campaigns in; fraud
            accounts in easy affiliate programs often advertise several
            programs at once, prolific operators focus on one or two.
        target_countries: Market per campaign, parallel to ``verticals``.
        n_ads: Total ads the account will create over its life.
        kw_per_ad: Keyword bids created per ad.
        activity_scale: Traffic multiplier; see ``participation_prob``.
        quality: Intrinsic targeting quality (enters quality score).
        match_mix: Match-type mix for keyword bids.
        bid_levels: Bid multipliers relative to the platform default.
        evasion_skill: [0, 1] investment in blacklist evasion.
        uses_stolen_payment: Payment-instrument fraud flag.
        first_ad_delay: Days between registration and first ad.
        mod_rate_per_entity: Daily modification rate per ad/keyword
            ("fraudulent advertisers appear to maintain their ads and
            keyword sets at rates similar to other advertisers").
    """

    kind: AdvertiserKind
    country: str
    verticals: tuple[str, ...]
    target_countries: tuple[str, ...]
    n_ads: int
    kw_per_ad: int
    activity_scale: float
    quality: float
    match_mix: MatchMix
    bid_levels: BidLevels
    evasion_skill: float
    uses_stolen_payment: bool
    first_ad_delay: float
    mod_rate_per_entity: float
    #: Multiplier on this account's ad quality, which ranks, prices and
    #: (through the click model) draws clicks: fraud's clickbait copy.
    rank_gaming: float = 1.0

    def __post_init__(self) -> None:
        if len(self.verticals) != len(self.target_countries):
            raise ValueError("verticals and target_countries must align")
        if not self.verticals:
            raise ValueError("profile needs at least one vertical")
        if self.n_ads < 1:
            raise ValueError("n_ads must be >= 1")
        if self.kw_per_ad < 1:
            raise ValueError("kw_per_ad must be >= 1")
        if self.activity_scale <= 0 or self.quality <= 0:
            raise ValueError("activity_scale and quality must be > 0")
        if not 0.0 <= self.evasion_skill <= 1.0:
            raise ValueError("evasion_skill must be in [0, 1]")
        if self.first_ad_delay < 0:
            raise ValueError("first_ad_delay must be >= 0")
        if self.mod_rate_per_entity < 0:
            raise ValueError("mod_rate_per_entity must be >= 0")
        if self.rank_gaming <= 0:
            raise ValueError("rank_gaming must be > 0")

    @property
    def is_fraud(self) -> bool:
        """Ground-truth fraud flag."""
        return self.kind.is_fraud

    @property
    def primary_vertical(self) -> str:
        """The account's first (main) vertical."""
        return self.verticals[0]

    @property
    def participation_prob(self) -> float:
        """Probability the account competes in any given matching auction."""
        return min(1.0, self.activity_scale / ACTIVITY_NORM)
