"""Simulation outputs.

:class:`AccountSummary` is the per-account analysis view (compact, no
entity graphs); :class:`SimulationResult` bundles the three datasets
the paper works from: customer/ad records (as account summaries), the
impression/click table, and the fraud detection records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SimulationConfig
from ..detection.policy import PolicyChange
from ..entities.enums import AdvertiserKind
from ..records.impressions import ImpressionTable
from ..records.schemas import CustomerRecord, DetectionRecord

__all__ = ["AccountSummary", "SimulationResult"]


@dataclass
class AccountSummary:
    """Everything the analyses need to know about one account.

    Attributes:
        advertiser_id / adv_row: Identifier and dense row index (the
            impression table references ``advertiser_id``).
        kind: Ground-truth population.
        labeled_fraud: The platform's eventual label -- what the
            paper's analyses condition on.
        created_time / first_ad_time / shutdown_time: Lifecycle times.
        shutdown_reason: Detection stage that fired, if any.
        activity_end: When activity stopped (shutdown, dormancy, or
            the study end), used for rate denominators (Section 3.3.1).
        country / language / currency: Registration attributes.
        verticals: Campaign verticals (primary first).
        n_ads / n_keywords: Totals created over the account's life.
        n_domains: Distinct destination domains across ads.
        ad_creation_times / kw_creation_times: Event times, for
            windowed creation counts (Figure 7a/7b).
        ad_mod_times / kw_mod_times: Modification events (Figure 7c/7d).
        bid_count_by_match / bid_sum_by_match: Length-3 arrays
            (exact, phrase, broad) of keyword-bid counts and summed max
            bids (Figure 9, Table 4 denominators).
        bid_above_default_by_match: Count of bids strictly above the
            platform default per match type (Section 5.3's 17%-vs-34%).
        activity_scale / participation / quality: Behavioural knobs
            (exported for validation and ablations).
    """

    advertiser_id: int
    adv_row: int
    kind: AdvertiserKind
    labeled_fraud: bool
    created_time: float
    first_ad_time: float | None
    shutdown_time: float | None
    shutdown_reason: str | None
    activity_end: float
    country: str
    language: str
    currency: str
    verticals: tuple[str, ...]
    n_ads: int
    n_keywords: int
    n_domains: int
    ad_creation_times: np.ndarray
    kw_creation_times: np.ndarray
    ad_mod_times: np.ndarray
    kw_mod_times: np.ndarray
    bid_count_by_match: np.ndarray
    bid_sum_by_match: np.ndarray
    bid_above_default_by_match: np.ndarray
    activity_scale: float
    participation: float
    quality: float

    @property
    def is_fraud_ground_truth(self) -> bool:
        """Ground-truth fraud flag (not the platform label)."""
        return self.kind.is_fraud

    @property
    def posted_ads(self) -> bool:
        """Whether the account ever posted an ad."""
        return self.first_ad_time is not None

    def alive_during(self, start: float, end: float) -> bool:
        """Account existed and was not yet shut down during [start, end)."""
        ended = self.shutdown_time if self.shutdown_time is not None else np.inf
        return self.created_time < end and ended > start

    def active_days_in(self, start: float, end: float) -> float:
        """Days the account could generate activity within [start, end).

        The paper's rate denominator: from the later of window start and
        account creation to the earlier of window end and freeze.
        """
        lo = max(start, self.created_time)
        hi = min(end, self.activity_end)
        return max(0.0, hi - lo)

    def to_customer_record(self) -> CustomerRecord:
        """Export as a customer-dataset record."""
        return CustomerRecord(
            advertiser_id=self.advertiser_id,
            created_time=self.created_time,
            country=self.country,
            language=self.language,
            currency=self.currency,
            kind=self.kind.value,
            labeled_fraud=self.labeled_fraud,
            shutdown_time=self.shutdown_time,
            shutdown_reason=self.shutdown_reason,
            first_ad_time=self.first_ad_time,
            n_ads=self.n_ads,
            n_keywords=self.n_keywords,
        )


@dataclass
class SimulationResult:
    """Everything a two-year simulation produced."""

    config: SimulationConfig
    accounts: list[AccountSummary]
    impressions: ImpressionTable
    detections: list[DetectionRecord]
    policy_changes: list[PolicyChange]

    def __post_init__(self) -> None:
        self._by_id = {a.advertiser_id: a for a in self.accounts}

    def account(self, advertiser_id: int) -> AccountSummary:
        """Look up one account summary by id."""
        return self._by_id[advertiser_id]

    def fraud_accounts(self) -> list[AccountSummary]:
        """Accounts the platform labeled fraudulent (the paper's 'fraud')."""
        return [a for a in self.accounts if a.labeled_fraud]

    def customer_records(self) -> list[CustomerRecord]:
        """The customer dataset for every account."""
        return [a.to_customer_record() for a in self.accounts]

    @property
    def total_days(self) -> int:
        """Length of the simulated study in days."""
        return self.config.days

    def labeled_fraud_ids(self) -> np.ndarray:
        """Sorted ids of accounts the platform labeled fraudulent."""
        return np.asarray(
            sorted(a.advertiser_id for a in self.accounts if a.labeled_fraud),
            dtype=np.int64,
        )
