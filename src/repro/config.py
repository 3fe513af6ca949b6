"""Simulation configuration.

Every stochastic knob in the marketplace simulator lives here, grouped
by subsystem.  Two presets are provided:

* :func:`default_config` -- the scale used by the experiment and
  benchmark harnesses (104 simulated weeks, ~20k advertiser accounts).
* :func:`small_config` -- a fast configuration for unit tests.

All configs validate themselves on construction and raise
:class:`repro.errors.ConfigError` for out-of-range values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .timeline import DAYS_PER_YEAR, TOTAL_DAYS

__all__ = [
    "PopulationConfig",
    "QueryConfig",
    "AuctionConfig",
    "ClickConfig",
    "BehaviorConfig",
    "DetectionConfig",
    "SimulationConfig",
    "config_from_dict",
    "default_config",
    "small_config",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class PopulationConfig:
    """Account arrival process.

    ``fraud_share_start``/``fraud_share_end`` drive Figure 1: the share
    of each day's registrations that are eventually labeled fraudulent
    ramps between them (with weekly noise) over the two years.
    """

    registrations_per_day: float = 30.0
    fraud_share_start: float = 0.36
    fraud_share_end: float = 0.54
    fraud_share_noise: float = 0.04
    #: Fraction of fraudulent accounts run by "prolific" operators who
    #: invest in evasion and survive far longer than the typical account.
    prolific_fraud_fraction: float = 0.11

    def __post_init__(self) -> None:
        _require(self.registrations_per_day > 0, "registrations_per_day must be > 0")
        for name in ("fraud_share_start", "fraud_share_end"):
            value = getattr(self, name)
            _require(0.0 < value < 1.0, f"{name} must be in (0, 1)")
        _require(0.0 <= self.fraud_share_noise < 0.5, "fraud_share_noise must be in [0, 0.5)")
        _require(
            0.0 < self.prolific_fraud_fraction < 1.0,
            "prolific_fraud_fraction must be in (0, 1)",
        )


@dataclass(frozen=True)
class QueryConfig:
    """Sampled query stream.

    The simulator does not simulate every search; it samples query
    *instances*, each carrying ``volume_weight`` real queries.  Aggregate
    impression/click/spend magnitudes therefore scale with the weight
    while auction dynamics are exercised per sample.
    """

    auctions_per_day: int = 260
    volume_weight: float = 2500.0
    #: Probability that a sampled query adds decorator tokens around the
    #: seed keyword phrase (exercising phrase/broad matching).
    decorate_prob: float = 0.40
    #: Probability that a decorated query shuffles token order (only
    #: broad matches survive a reorder).
    shuffle_prob: float = 0.15
    #: Volume multiplier for undecorated (head) queries: the head of the
    #: demand curve carries far more traffic per distinct query than the
    #: decorated long tail.
    head_weight_factor: float = 1.6
    #: Volume multiplier for decorated (tail) queries.
    tail_weight_factor: float = 0.5

    def __post_init__(self) -> None:
        _require(self.auctions_per_day > 0, "auctions_per_day must be > 0")
        _require(self.volume_weight > 0, "volume_weight must be > 0")
        _require(0.0 <= self.decorate_prob <= 1.0, "decorate_prob must be in [0, 1]")
        _require(0.0 <= self.shuffle_prob <= 1.0, "shuffle_prob must be in [0, 1]")
        _require(self.head_weight_factor > 0, "head_weight_factor must be > 0")
        _require(self.tail_weight_factor > 0, "tail_weight_factor must be > 0")


@dataclass(frozen=True)
class AuctionConfig:
    """Generalized second-price auction with quality scores.

    ``default_max_bid`` is the platform's default maximum bid in USD; the
    paper reports the median maximum bid for both populations equals this
    default, and Figure 9(d-f) normalizes bids by it.
    """

    mainline_slots: int = 4
    sidebar_slots: int = 6
    #: Minimum rank score (bid x quality) to enter the mainline.
    mainline_reserve: float = 0.12
    #: Minimum rank score to be shown at all.
    reserve_score: float = 0.008
    default_max_bid: float = 0.50
    price_increment: float = 0.01
    #: Maximum number of candidate ads per advertiser entering one auction.
    per_advertiser_cap: int = 1

    def __post_init__(self) -> None:
        _require(self.mainline_slots >= 1, "mainline_slots must be >= 1")
        _require(self.sidebar_slots >= 0, "sidebar_slots must be >= 0")
        _require(self.reserve_score > 0, "reserve_score must be > 0")
        _require(
            self.mainline_reserve >= self.reserve_score,
            "mainline_reserve must be >= reserve_score",
        )
        _require(self.default_max_bid > 0, "default_max_bid must be > 0")
        _require(self.price_increment >= 0, "price_increment must be >= 0")
        _require(self.per_advertiser_cap >= 1, "per_advertiser_cap must be >= 1")

    @property
    def total_slots(self) -> int:
        """Mainline plus sidebar capacity."""
        return self.mainline_slots + self.sidebar_slots


@dataclass(frozen=True)
class ClickConfig:
    """Position-bias cascade click model."""

    #: Probability a user examines the top mainline slot.
    top_examination: float = 0.34
    #: Multiplicative decay of examination probability per mainline position.
    mainline_decay: float = 0.62
    #: Examination probability of the first sidebar slot.
    sidebar_examination: float = 0.035
    #: Multiplicative decay per sidebar position.
    sidebar_decay: float = 0.72

    def __post_init__(self) -> None:
        for name in (
            "top_examination",
            "mainline_decay",
            "sidebar_examination",
            "sidebar_decay",
        ):
            value = getattr(self, name)
            _require(0.0 < value <= 1.0, f"{name} must be in (0, 1]")


@dataclass(frozen=True)
class BehaviorConfig:
    """Behaviour distributions of advertisers (see :mod:`repro.behavior`)."""

    #: Lognormal (mu, sigma) of a non-fraudulent account's ad count.
    nonfraud_ads_mu: float = 3.4
    nonfraud_ads_sigma: float = 1.5
    #: Lognormal (mu, sigma) of a fraudulent account's ad count; the
    #: paper finds fraud accounts keep >10x fewer ads and keywords.
    fraud_ads_mu: float = 0.55
    fraud_ads_sigma: float = 1.0
    #: Keywords bid on per ad (lognormal), per population.
    nonfraud_kw_per_ad_mu: float = 1.6
    nonfraud_kw_per_ad_sigma: float = 1.0
    fraud_kw_per_ad_mu: float = 0.9
    fraud_kw_per_ad_sigma: float = 0.8
    #: Lognormal sigma of per-account activity scale (drives the
    #: heavy-tailed impression-rate distribution of Figure 5).
    activity_sigma: float = 1.6
    #: Mean activity scale multiplier for fraudulent accounts: fraud
    #: pushes traffic faster than the typical legitimate account.
    fraud_activity_boost: float = 13.0
    #: Extra activity multiplier for prolific fraud operators.
    prolific_activity_boost: float = 5.0

    def __post_init__(self) -> None:
        for name in (
            "nonfraud_ads_sigma",
            "fraud_ads_sigma",
            "nonfraud_kw_per_ad_sigma",
            "fraud_kw_per_ad_sigma",
            "activity_sigma",
        ):
            _require(getattr(self, name) > 0, f"{name} must be > 0")
        _require(self.fraud_activity_boost >= 1.0, "fraud_activity_boost must be >= 1")
        _require(
            self.prolific_activity_boost >= 1.0, "prolific_activity_boost must be >= 1"
        )


@dataclass(frozen=True)
class DetectionConfig:
    """The platform's anti-fraud pipeline.

    Stage parameters are hazards (per-day rates) or probabilities;
    account lifetimes (Figure 2) emerge from the combination.
    """

    #: Probability a fraudulent registration is screened out before it
    #: can post a single ad (the paper: 35% of shutdowns are pre-ad).
    registration_screen_prob: float = 0.35
    #: Mean of the exponential delay (days) before a screened account is
    #: actually frozen.
    registration_screen_mean_days: float = 0.4
    #: Probability per ad that the content filter flags a typical
    #: fraudulent ad at posting time.
    content_filter_prob: float = 0.30
    #: Same, for prolific operators who invest in evasion.
    prolific_content_filter_prob: float = 0.02
    #: Mean delay (days) from a content-filter flag to shutdown
    #: (most caught accounts die within eight hours of first ad).
    content_filter_mean_days: float = 0.25
    #: Base behavioural/manual-review hazard per active day for typical
    #: fraud accounts.
    behavior_hazard: float = 0.45
    #: Behavioural hazard for prolific operators.
    prolific_behavior_hazard: float = 0.009
    #: Hazard added per log10 of impressions/day above the rate threshold.
    rate_hazard_per_decade: float = 0.35
    rate_threshold: float = 1000.0
    #: Payment-fraud (chargeback) detection: probability the account uses
    #: a bad instrument, and the lognormal (mu, sigma) of signal delay.
    payment_fraud_prob: float = 0.55
    chargeback_mu: float = 1.8
    chargeback_sigma: float = 0.7
    #: Probability a fraud account evades detection entirely within the
    #: study (treated as non-fraudulent by the analyses, as at Bing).
    evade_study_prob: float = 0.01
    #: Probability a legitimate account is shut down by mistake
    #: ("friendly fire is rather low").
    friendly_fire_prob: float = 0.0005
    #: Day of the third-party tech-support policy ban (the paper's most
    #: dramatic intervention, early in Year 2); None disables it.
    techsupport_ban_day: float | None = DAYS_PER_YEAR + DAYS_PER_YEAR / 4.0
    #: Multiplier applied to detection hazards at the end of the study
    #: relative to the start (defenses improve; Figure 3's halving).
    hardening_factor: float = 1.9

    def __post_init__(self) -> None:
        _require(
            0.0 <= self.registration_screen_prob < 1.0,
            "registration_screen_prob must be in [0, 1)",
        )
        for name in (
            "registration_screen_mean_days",
            "content_filter_mean_days",
            "behavior_hazard",
            "prolific_behavior_hazard",
            "rate_hazard_per_decade",
            "rate_threshold",
            "chargeback_sigma",
        ):
            _require(getattr(self, name) > 0, f"{name} must be > 0")
        for name in (
            "content_filter_prob",
            "prolific_content_filter_prob",
            "payment_fraud_prob",
            "evade_study_prob",
            "friendly_fire_prob",
        ):
            _require(0.0 <= getattr(self, name) <= 1.0, f"{name} must be in [0, 1]")
        _require(self.hardening_factor > 0, "hardening_factor must be > 0")
        if self.techsupport_ban_day is not None:
            _require(self.techsupport_ban_day >= 0, "techsupport_ban_day must be >= 0")


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level simulation configuration."""

    seed: int = 20170101
    days: int = TOTAL_DAYS
    population: PopulationConfig = field(default_factory=PopulationConfig)
    query: QueryConfig = field(default_factory=QueryConfig)
    auction: AuctionConfig = field(default_factory=AuctionConfig)
    click: ClickConfig = field(default_factory=ClickConfig)
    behavior: BehaviorConfig = field(default_factory=BehaviorConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)

    def __post_init__(self) -> None:
        _require(self.days > 0, "days must be > 0")

    def with_detection(self, **kwargs: object) -> "SimulationConfig":
        """Return a copy with detection parameters overridden."""
        return replace(self, detection=replace(self.detection, **kwargs))

    def with_auction(self, **kwargs: object) -> "SimulationConfig":
        """Return a copy with auction parameters overridden."""
        return replace(self, auction=replace(self.auction, **kwargs))


#: Config-group field name -> dataclass, in declaration order.
_CONFIG_GROUPS: dict[str, type] = {
    "population": PopulationConfig,
    "query": QueryConfig,
    "auction": AuctionConfig,
    "click": ClickConfig,
    "behavior": BehaviorConfig,
    "detection": DetectionConfig,
}


def config_from_dict(payload: dict) -> SimulationConfig:
    """Rebuild a :class:`SimulationConfig` from ``dataclasses.asdict``.

    The checkpoint manifest embeds the full configuration this way so
    ``verify``/``doctor`` can re-simulate a run directory without the
    caller re-supplying every CLI flag.  Values are validated by the
    dataclass constructors exactly as a hand-built config would be;
    unknown keys raise :class:`~repro.errors.ConfigError` rather than
    being silently dropped (a config the round-trip cannot represent
    must never masquerade as the original).
    """
    if not isinstance(payload, dict):
        raise ConfigError("config payload is not a mapping")
    known = {"seed", "days", *_CONFIG_GROUPS}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    try:
        kwargs: dict[str, object] = {
            "seed": int(payload["seed"]),
            "days": int(payload["days"]),
        }
        for name, cls in _CONFIG_GROUPS.items():
            if name in payload:
                kwargs[name] = cls(**payload[name])
        return SimulationConfig(**kwargs)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config payload: {exc}") from None


def default_config(seed: int = 20170101) -> SimulationConfig:
    """The configuration used by experiments and benchmarks."""
    return SimulationConfig(seed=seed)


def small_config(seed: int = 7, days: int = 120) -> SimulationConfig:
    """A fast configuration for unit and integration tests."""
    return SimulationConfig(
        seed=seed,
        days=days,
        population=PopulationConfig(registrations_per_day=12.0),
        query=QueryConfig(auctions_per_day=60, volume_weight=800.0),
    )
