"""Fraudulent advertiser profile sampling.

Two populations (Section 4.2, Figure 4): the *typical* fraud account --
short-lived, few ads, affiliate-program monetization, often running on
stolen payment instruments -- and the *prolific* operator, who invests
in evasion, focuses on one or two lucrative verticals (third-party tech
support above all), pays very large bills over long periods, and
dominates fraudulent spend and clicks.
"""

from __future__ import annotations

import numpy as np

from ..config import SimulationConfig
from ..entities.enums import AdvertiserKind
from ..rng import draw_index
from ..taxonomy.geography import (
    fraud_registration_cdf,
    home_targeting_prob,
    market_attractiveness_cdf,
)
from ..taxonomy.verticals import (
    fraud_vertical_weights,
    prolific_vertical_weights,
    vertical,
)
from .bidding import sample_bid_levels, sample_match_mix
from .profiles import AdvertiserProfile

__all__ = ["sample_fraud_profile"]


def _sample_country(rng: np.random.Generator) -> str:
    codes, cdf = fraud_registration_cdf()
    return codes[draw_index(rng, cdf)]


def _sample_verticals(
    kind: AdvertiserKind,
    rng: np.random.Generator,
    banned: tuple[str, ...] = (),
) -> list[str]:
    if kind is AdvertiserKind.FRAUD_PROLIFIC:
        names, probs = prolific_vertical_weights()
        count = 1 + int(rng.random() < 0.3)
    else:
        names, probs = fraud_vertical_weights()
        # Easy affiliate programs: often several campaigns at once.
        count = 1 + int(rng.random() < 0.45) + int(rng.random() < 0.2)
    if banned:
        keep = [i for i, name in enumerate(names) if name not in banned]
        names = [names[i] for i in keep]
        probs = probs[keep] / probs[keep].sum()
    picks = rng.choice(len(names), size=min(count, len(names)), replace=False, p=probs)
    return [names[int(i)] for i in picks]


def _target_country(home: str, rng: np.random.Generator) -> str:
    if rng.random() < home_targeting_prob(home):
        return home
    codes, cdf = market_attractiveness_cdf()
    return codes[draw_index(rng, cdf)]


def sample_fraud_profile(
    config: SimulationConfig,
    rng: np.random.Generator,
    prolific: bool,
    banned_verticals: tuple[str, ...] = (),
) -> AdvertiserProfile:
    """Draw a fraudulent account's behavioural plan.

    ``banned_verticals`` models fraudster adaptation to policy: once a
    vertical's ban is common knowledge, new entrants avoid it (the
    paper's Figure 8 shows the tech-support collapse is persistent, not
    a transient purge).
    """
    behavior = config.behavior
    kind = AdvertiserKind.FRAUD_PROLIFIC if prolific else AdvertiserKind.FRAUD_TYPICAL
    country = _sample_country(rng)
    verticals = _sample_verticals(kind, rng, banned_verticals)
    targets = tuple(_target_country(country, rng) for _ in verticals)

    if prolific:
        n_ads = max(2, int(rng.lognormal(1.8, 0.9)))
        kw_per_ad = max(1, int(rng.lognormal(1.1, 0.6)))
        activity = (
            float(rng.lognormal(0.2, 1.5))
            * behavior.fraud_activity_boost
            * behavior.prolific_activity_boost
        )
        quality = float(rng.lognormal(0.26, 0.40))
        evasion = float(rng.beta(8.0, 2.0))
        stolen = rng.random() < 0.15
        first_ad_delay = float(rng.exponential(1.0))
    else:
        n_ads = max(1, int(rng.lognormal(behavior.fraud_ads_mu, behavior.fraud_ads_sigma)))
        kw_per_ad = max(
            1,
            int(rng.lognormal(behavior.fraud_kw_per_ad_mu, behavior.fraud_kw_per_ad_sigma)),
        )
        activity = (
            float(rng.lognormal(0.0, behavior.activity_sigma))
            * behavior.fraud_activity_boost
        )
        quality = float(rng.lognormal(-0.16, 0.35))
        evasion = float(rng.beta(2.0, 5.0))
        stolen = rng.random() < config.detection.payment_fraud_prob
        first_ad_delay = float(rng.exponential(0.5))

    value = vertical(verticals[0]).value_per_click
    rank_gaming = 1.70 if prolific else 1.60
    return AdvertiserProfile(
        kind=kind,
        country=country,
        verticals=tuple(verticals),
        target_countries=targets,
        n_ads=n_ads,
        kw_per_ad=kw_per_ad,
        activity_scale=activity,
        quality=quality,
        match_mix=sample_match_mix(kind, rng),
        bid_levels=sample_bid_levels(kind, value, rng, config.auction),
        evasion_skill=evasion,
        uses_stolen_payment=stolen,
        first_ad_delay=first_ad_delay,
        mod_rate_per_entity=0.004 * float(rng.lognormal(0.0, 0.5)),
        rank_gaming=rank_gaming,
    )
