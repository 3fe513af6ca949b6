"""Generalized second-price auction with quality scores.

Candidates are ranked by ``rank_score = max_bid x quality``; each shown
ad pays, per click, the minimum bid that would have kept its position:
``next_rank_score / own_quality`` plus a fixed increment, clamped to
its own maximum bid and floored at the reserve (see
:mod:`repro.auction.pricing`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import AuctionConfig
from ..entities.enums import MatchType
from .pricing import gsp_price
from .slots import SlotPlacement, layout

__all__ = ["Candidate", "ShownAd", "AuctionOutcome", "run_auction"]


@dataclass(frozen=True)
class Candidate:
    """An eligible (advertiser, ad, keyword-offer) triple for one query.

    Attributes:
        advertiser_id: Owning account.
        ad_id: The ad that would be shown.
        match_type: The match type that made the offer eligible.
        max_bid: The offer's maximum CPC, USD.
        quality: The ad's click probability given examination, used
            for ranking, pricing and the click draw (see
            :func:`repro.auction.quality.quality_score`).
        fraud_labeled: Whether the platform *eventually* labels the
            advertiser fraudulent.  Never used for ranking or pricing --
            it is carried through so impression records can be analysed
            the way the paper analyses Bing's logs.
    """

    advertiser_id: int
    ad_id: int
    match_type: MatchType
    max_bid: float
    quality: float
    fraud_labeled: bool = False

    def __post_init__(self) -> None:
        if self.max_bid <= 0:
            raise ValueError("max_bid must be > 0")
        if self.quality <= 0:
            raise ValueError("quality must be > 0")

    @property
    def rank_score(self) -> float:
        """Auction rank: max bid x quality."""
        return self.max_bid * self.quality


@dataclass(frozen=True)
class ShownAd:
    """One ad shown on the results page."""

    candidate: Candidate
    placement: SlotPlacement
    price_per_click: float

    @property
    def position(self) -> int:
        """1-based ad position on the page."""
        return self.placement.position

    @property
    def mainline(self) -> bool:
        """Whether the ad landed in the mainline."""
        return self.placement.mainline


@dataclass(frozen=True)
class AuctionOutcome:
    """Result of one auction: the ranked list of shown ads."""

    shown: tuple[ShownAd, ...]

    @property
    def n_shown(self) -> int:
        """Number of ads shown on the page."""
        return len(self.shown)

    def n_fraud_labeled(self) -> int:
        """How many shown ads belong to eventually-labeled-fraud accounts."""
        return sum(1 for ad in self.shown if ad.candidate.fraud_labeled)


def _dedupe_per_advertiser(
    candidates: list[Candidate], cap: int
) -> list[Candidate]:
    """Keep at most ``cap`` best candidates per advertiser."""
    kept: list[Candidate] = []
    counts: dict[int, int] = {}
    for candidate in candidates:
        used = counts.get(candidate.advertiser_id, 0)
        if used < cap:
            counts[candidate.advertiser_id] = used + 1
            kept.append(candidate)
    return kept


def run_auction(
    candidates: list[Candidate], config: AuctionConfig
) -> AuctionOutcome:
    """Run one GSP auction over the eligible candidates.

    Candidates are sorted by rank score (ties broken by advertiser id
    for determinism), deduplicated per advertiser, laid out on the page,
    and priced against the next-ranked competitor.
    """
    if not candidates:
        return AuctionOutcome(shown=())
    ranked = sorted(
        candidates, key=lambda c: (-c.rank_score, c.advertiser_id, c.ad_id)
    )
    ranked = _dedupe_per_advertiser(ranked, config.per_advertiser_cap)
    placements = layout([c.rank_score for c in ranked], config)
    shown: list[ShownAd] = []
    for index, placement in enumerate(placements):
        candidate = ranked[index]
        next_score = (
            ranked[index + 1].rank_score if index + 1 < len(ranked) else None
        )
        price = gsp_price(candidate, next_score, config)
        shown.append(ShownAd(candidate, placement, price))
    return AuctionOutcome(shown=tuple(shown))
