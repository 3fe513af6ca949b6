"""Materialize behaviour profiles into account columns.

Given an :class:`AdvertiserProfile`, the factory draws the account's
ads and keyword bids, with creation timestamps staggered over the
account's life, and pre-samples maintenance (modification) events.
Every draw lands in a plain column of one :class:`MaterializedAccount`;
no per-ad or per-bid object is built.  After the detection pipeline
fixes the account's end time, the account is trimmed so nothing is
"created" after shutdown.

Performance note: only a bounded number of keyword offers per campaign
enter the auction *index* (``MAX_INDEXED_OFFERS_PER_CAMPAIGN``); very
large legitimate accounts have their full ad/keyword inventory drawn
and counted into their summary for the behavioural analyses (Figure 7)
while competing in auctions through a representative sample.  Activity
scaling compensates for volume.  Phase 1 frees the inventory columns
as soon as the account is summarized; only the offers are kept.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from ..auction.quality import quality_score
from ..config import SimulationConfig
from ..entities.domains import (
    AFFILIATE_DOMAINS,
    SHORTENER_DOMAINS,
    sample_domain_count,
    unique_domain,
)
from ..entities.enums import ShutdownReason
from ..records.codes import match_code
from ..taxonomy.adcopy import AdCopy, render_ad
from ..taxonomy.geography import country as country_info
from ..taxonomy.keywords import keyword_pool, keyword_weights, risky_keyword_mask
from ..taxonomy.verticals import vertical as vertical_info
from .profiles import AdvertiserProfile

__all__ = [
    "MaterializedAccount",
    "IdAllocator",
    "materialize_account",
]

MAX_INDEXED_OFFERS_PER_CAMPAIGN = 40
#: Share of an account's ads posted immediately at first-ad time.
UPFRONT_AD_FRACTION = 0.7

_offer_created = itemgetter(6)


class IdAllocator:
    """Monotonic id source for ads."""

    def __init__(self) -> None:
        self._next_ad = 0

    def ad_id(self) -> int:
        """Next unique ad id."""
        self._next_ad += 1
        return self._next_ad


@dataclass
class MaterializedAccount:
    """One advertiser account: its identity, outcome and Phase-1 draws.

    The engine builds exactly one per registration, with its
    ``advertiser_id``, ``profile`` and ``created_time`` (registration,
    fractional days), and each Phase-1 step fills it in place.  The
    materializer sets ``first_ad_time`` (``None`` if the account never
    posts) and the columns below.  A detection within the study sets
    ``shutdown_time``, ``shutdown_reason`` and ``labeled_fraud``; that
    label, not ground truth (``profile.kind``), is what the analyses
    read, as the paper's do, so fraud that evades detection for the
    whole study is analysed as non-fraudulent.  ``activity_end``, when
    the account stops competing, follows from detection or dormancy.

    Campaign ``c`` is ``(profile.verticals[c],
    profile.target_countries[c])`` and owns ads ``c, c+n, c+2n, ...``
    of the account's ``n`` campaigns.  Every list is in creation order.

    * Per ad: ``ad_ids``, ``ad_copies`` (:class:`AdCopy`),
      ``ad_domains`` (destination domain) and ``ad_creation_times``.
    * Per bid, one list per campaign, campaign-major: ``kw_idx_cols``
      (position in the vertical's keyword pool), ``mcode_cols`` (match
      code, :data:`repro.records.codes.MATCH_CODES`), ``max_bid_cols``
      and ``created_cols``.  ``kw_creation_times`` holds the same
      creation times in ad order.
    * ``offers``: the auction-eligible (ad, bid) pairs, at most
      ``MAX_INDEXED_OFFERS_PER_CAMPAIGN`` per campaign, in ad order.
      Each is the tuple ``(ad_id, campaign, kw_index, match_code,
      max_bid, quality, created)``; quality is precomputed, as it
      depends only on static account/ad/vertical/match-type
      attributes.
    * ``ad_mod_times`` / ``kw_mod_times``: maintenance event times.

    The per-ad and per-bid columns live only for the account's turn in
    Phase 1: the engine trims and summarizes the account as soon as its
    draws are done, then :meth:`free_inventory` empties them.  The
    scalar fields, the profile and the trimmed offers stay;
    :class:`~repro.simulator.market.MarketIndex` reads them.
    """

    advertiser_id: int
    profile: AdvertiserProfile
    created_time: float
    first_ad_time: float | None = None
    shutdown_time: float | None = None
    shutdown_reason: ShutdownReason | None = None
    labeled_fraud: bool = False
    activity_end: float = float("inf")
    ad_ids: list[int] = field(default_factory=list)
    ad_copies: list[AdCopy] = field(default_factory=list)
    ad_domains: list[str] = field(default_factory=list)
    ad_creation_times: list[float] = field(default_factory=list)
    kw_idx_cols: list[list[int]] = field(default_factory=list)
    mcode_cols: list[list[int]] = field(default_factory=list)
    max_bid_cols: list[list[float]] = field(default_factory=list)
    created_cols: list[list[float]] = field(default_factory=list)
    kw_creation_times: list[float] = field(default_factory=list)
    offers: list[tuple] = field(default_factory=list)
    ad_mod_times: list[float] = field(default_factory=list)
    kw_mod_times: list[float] = field(default_factory=list)

    def trim(self, end_time: float) -> None:
        """Drop everything created at or after the account's end time."""
        n_ads = bisect_left(self.ad_creation_times, end_time)
        for column in (
            self.ad_ids,
            self.ad_copies,
            self.ad_domains,
            self.ad_creation_times,
        ):
            del column[n_ads:]
        for columns in zip(
            self.kw_idx_cols, self.mcode_cols, self.max_bid_cols, self.created_cols
        ):
            keep = bisect_left(columns[3], end_time)
            for column in columns:
                del column[keep:]
        del self.kw_creation_times[bisect_left(self.kw_creation_times, end_time) :]
        del self.offers[bisect_left(self.offers, end_time, key=_offer_created) :]
        self.ad_mod_times = [t for t in self.ad_mod_times if t < end_time]
        self.kw_mod_times = [t for t in self.kw_mod_times if t < end_time]

    def free_inventory(self) -> None:
        """Empty every per-ad and per-bid column; the offers stay."""
        for column in (
            self.ad_ids, self.ad_copies, self.ad_domains, self.ad_creation_times,
            self.kw_idx_cols, self.mcode_cols, self.max_bid_cols, self.created_cols,
            self.kw_creation_times, self.ad_mod_times, self.kw_mod_times,
        ):
            column.clear()


def _creation_times(
    n_ads: int, first_ad_time: float, horizon: float, rng: np.random.Generator
) -> list[float]:
    """Stagger ad creation: a burst up front, the rest over the life."""
    times = [first_ad_time]
    for _ in range(n_ads - 1):
        if rng.random() < UPFRONT_AD_FRACTION:
            times.append(first_ad_time + float(rng.exponential(0.3)))
        else:
            times.append(float(rng.uniform(first_ad_time, max(first_ad_time + 0.5, horizon))))
    return sorted(min(t, horizon) for t in times)


def _destination_domains(
    profile: AdvertiserProfile, n_ads: int, rng: np.random.Generator
) -> list[str]:
    count = sample_domain_count(rng, n_ads, profile.is_fraud)
    domains = [unique_domain(rng) for _ in range(count)]
    if profile.is_fraud and rng.random() < 0.15:
        shared = SHORTENER_DOMAINS + AFFILIATE_DOMAINS
        domains[int(rng.integers(len(domains)))] = shared[
            int(rng.integers(len(shared)))
        ]
    return domains


#: Zipf exponent for fraud keyword choice: fraudsters chase the head of
#: the demand curve harder (maximum traffic per keyword, Section 5.2),
#: which also concentrates them onto the same few phrases.
FRAUD_KEYWORD_ZIPF = 1.8


def _sample_keywords(
    vertical_name: str,
    count: int,
    is_fraud: bool,
    evasion_skill: float,
    rng: np.random.Generator,
) -> list[int]:
    """Sample keyword pool indices by Zipf popularity.

    Skilled fraudsters re-draw keywords containing blacklisted brand
    tokens (with probability ``evasion_skill`` per draw) -- except in
    impersonation/phishing, where naming the brand is the business.
    """
    pool = keyword_pool(vertical_name)
    exponent = FRAUD_KEYWORD_ZIPF if is_fraud else 1.1
    weights = keyword_weights(vertical_name, exponent=exponent)
    avoid_brands = (
        is_fraud
        and evasion_skill > 0
        and vertical_name not in ("impersonation", "phishing")
    )
    risky = risky_keyword_mask(vertical_name) if avoid_brands else None
    picks: list[int] = []
    for _ in range(count):
        index = int(rng.choice(len(pool), p=weights))
        if risky is not None and risky[index] and rng.random() < evasion_skill:
            safe = [i for i in range(len(pool)) if not risky[i]]
            if safe:
                safe_weights = weights[safe] / weights[safe].sum()
                index = int(safe[int(rng.choice(len(safe), p=safe_weights))])
        picks.append(index)
    return picks


def _mod_events(
    created: float, horizon: float, rate: float, rng: np.random.Generator
) -> list[float]:
    span = max(0.0, horizon - created)
    if span <= 0 or rate <= 0:
        return []
    count = int(rng.poisson(rate * span))
    if count == 0:
        return []
    return [float(t) for t in rng.uniform(created, horizon, size=count)]


def materialize_account(
    account: MaterializedAccount,
    first_ad_time: float,
    horizon: float,
    config: SimulationConfig,
    ids: IdAllocator,
    rng: np.random.Generator,
) -> None:
    """Draw an account's ads and keyword bids, one draw at a time.

    The scalar oracle of
    :func:`~repro.behavior.batch.materialize_account_batch`.  Fills the
    freshly registered ``account`` in place: ``first_ad_time`` and
    every column.  Ads are split round-robin across the profile's
    campaigns; keyword bids attach to their ad's campaign.  Call
    :meth:`MaterializedAccount.trim` once the detection pipeline fixes
    the account's true end time.
    """
    profile = account.profile
    n_campaigns = len(profile.verticals)
    account.first_ad_time = first_ad_time
    account.kw_idx_cols = [[] for _ in range(n_campaigns)]
    account.mcode_cols = [[] for _ in range(n_campaigns)]
    account.max_bid_cols = [[] for _ in range(n_campaigns)]
    account.created_cols = [[] for _ in range(n_campaigns)]

    domains = _destination_domains(profile, profile.n_ads, rng)
    ad_times = _creation_times(profile.n_ads, first_ad_time, horizon, rng)
    match_types, match_probs = profile.match_mix.as_probs()
    indexed_per_campaign = [0] * n_campaigns
    # Evasion is an operator *style*, decided once per account: either
    # the fraudster works blacklist-safe or they do not.
    evasive = profile.is_fraud and rng.random() < profile.evasion_skill

    for ad_index, created in enumerate(ad_times):
        campaign = ad_index % n_campaigns
        vertical_name = profile.verticals[campaign]
        base_ctr = vertical_info(vertical_name).base_ctr
        ad_id = ids.ad_id()
        account.ad_ids.append(ad_id)
        account.ad_copies.append(render_ad(vertical_name, rng, evasive=evasive))
        account.ad_domains.append(domains[ad_index % len(domains)])
        account.ad_creation_times.append(created)
        engagement = float(rng.lognormal(0.0, 0.25))
        account.ad_mod_times.extend(
            _mod_events(created, horizon, profile.mod_rate_per_entity, rng)
        )

        keywords = _sample_keywords(
            vertical_name,
            profile.kw_per_ad,
            profile.is_fraud,
            profile.evasion_skill,
            rng,
        )
        seen: set[tuple[int, int]] = set()
        for kw_index in keywords:
            match_type = match_types[int(rng.choice(len(match_types), p=match_probs))]
            code = match_code(match_type)
            if (kw_index, code) in seen:
                continue
            seen.add((kw_index, code))
            multiplier = profile.bid_levels.multiplier(match_type)
            if multiplier == 1.0:
                # Advertisers who keep the platform default keep it
                # exactly -- the median max bid *is* the default.
                max_bid = config.auction.default_max_bid
            else:
                max_bid = (
                    config.auction.default_max_bid
                    * multiplier
                    * float(np.exp(rng.normal(0.0, 0.15)))
                )
            max_bid = max(0.05, max_bid)
            account.kw_idx_cols[campaign].append(kw_index)
            account.mcode_cols[campaign].append(code)
            account.max_bid_cols[campaign].append(max_bid)
            account.created_cols[campaign].append(created)
            account.kw_creation_times.append(created)
            account.kw_mod_times.extend(
                _mod_events(created, horizon, profile.mod_rate_per_entity, rng)
            )
            if indexed_per_campaign[campaign] < MAX_INDEXED_OFFERS_PER_CAMPAIGN:
                indexed_per_campaign[campaign] += 1
                account.offers.append(
                    (
                        ad_id,
                        campaign,
                        kw_index,
                        code,
                        max_bid,
                        quality_score(
                            profile.quality * profile.rank_gaming,
                            engagement,
                            base_ctr,
                            match_type,
                        ),
                        created,
                    )
                )

    # Sanity: country info must exist for every campaign target.
    for target in profile.target_countries:
        country_info(target)
