"""Campaign entities."""

from __future__ import annotations

from dataclasses import dataclass, field

from .ad import Ad
from .keyword import KeywordBid

__all__ = ["Campaign"]


@dataclass
class Campaign:
    """A campaign groups ads and keyword bids under one vertical/market.

    Attributes:
        campaign_id: Globally unique identifier.
        advertiser_id: Owning account.
        vertical: Vertical name the campaign targets.
        target_country: Market the campaign's ads run in.
        created_day: Simulation time of creation.
        ads: Advertisements in the campaign.
        bids: Keyword bids in the campaign.
    """

    campaign_id: int
    advertiser_id: int
    vertical: str
    target_country: str
    created_day: float
    ads: list[Ad] = field(default_factory=list)
    bids: list[KeywordBid] = field(default_factory=list)

    def add_ad(self, ad: Ad) -> None:
        """Attach an ad; it must carry this campaign's id."""
        if ad.campaign_id != self.campaign_id:
            raise ValueError("ad belongs to a different campaign")
        self.ads.append(ad)

    def add_bid(self, bid: KeywordBid) -> None:
        """Attach a keyword bid."""
        self.bids.append(bid)

    @classmethod
    def bulk(
        cls,
        campaign_ids: list[int],
        advertiser_id: int,
        verticals: list[str],
        target_countries: list[str],
        created_day: float,
    ) -> list[Campaign]:
        """One campaign per (vertical, target country) pair."""
        return [
            cls(
                campaign_id=campaign_id,
                advertiser_id=advertiser_id,
                vertical=vertical,
                target_country=target,
                created_day=created_day,
            )
            for campaign_id, vertical, target in zip(
                campaign_ids, verticals, target_countries
            )
        ]
