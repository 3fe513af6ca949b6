"""Construction of advertiser subsets (Section 3.3).

Eleven subset types, each ~``target_size`` advertisers drawn from the
pool active during a measurement window:

Fraudulent: ``Fraud`` (uniform over alive), ``F with clicks``,
``F spend weight``, ``F volume weight``.

Non-fraudulent: ``Nonfraud``, ``NF with clicks``, ``NF spend weight``,
``NF volume weight`` plus three *matched* subsets that correct for the
demographic differences between populations: ``NF spend match`` (to
``F spend weight`` by money spent), ``NF volume match`` (to
``F volume weight`` by click volume) and ``NF rate match`` (to
``F volume weight`` by click *rate* -- clicks divided by the days the
account could have been active inside the window).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SubsetError
from ..records.impressions import ImpressionTable
from ..rng import stream
from ..simulator.results import AccountSummary, SimulationResult
from ..timeline import Window
from .aggregates import aggregate_by_advertiser

__all__ = [
    "Subset",
    "SubsetBuilder",
    "FRAUD_SUBSETS",
    "NONFRAUD_SUBSETS",
    "ALL_SUBSETS",
]

FRAUD_SUBSETS = ("Fraud", "F with clicks", "F spend weight", "F volume weight")
NONFRAUD_SUBSETS = (
    "Nonfraud",
    "NF with clicks",
    "NF spend weight",
    "NF volume weight",
    "NF spend match",
    "NF volume match",
    "NF rate match",
)
ALL_SUBSETS = FRAUD_SUBSETS + NONFRAUD_SUBSETS


@dataclass(frozen=True)
class Subset:
    """A named sample of advertiser accounts."""

    name: str
    accounts: tuple[AccountSummary, ...]

    def __len__(self) -> int:
        return len(self.accounts)

    def ids(self) -> np.ndarray:
        """Member advertiser ids as a sorted-free array."""
        return np.asarray(
            [a.advertiser_id for a in self.accounts], dtype=np.int64
        )


class SubsetBuilder:
    """Builds every subset type for one measurement window.

    The builder aggregates the window's impressions once and reuses the
    per-advertiser clicks/spend for all weighted and matched subsets.
    """

    def __init__(
        self,
        result: SimulationResult,
        window: Window,
        target_size: int = 10_000,
        seed: int | None = None,
    ) -> None:
        if target_size < 1:
            raise SubsetError("target_size must be >= 1")
        self.result = result
        self.window = window
        self.target_size = target_size
        self._root_seed = result.config.seed if seed is None else seed
        self._table: ImpressionTable = result.impressions.in_window(
            window.start, window.end
        )
        self._agg = aggregate_by_advertiser(self._table)
        self._imp, self._clicks, self._spend = self._agg.as_dicts()
        self._fraud_pool = [
            a
            for a in result.accounts
            if a.labeled_fraud and a.alive_during(window.start, window.end)
        ]
        self._nonfraud_pool = [
            a
            for a in result.accounts
            if not a.labeled_fraud and a.alive_during(window.start, window.end)
        ]

    # -- helpers -------------------------------------------------------

    def clicks_of(self, account: AccountSummary) -> float:
        """Window clicks for one account."""
        return self._clicks.get(account.advertiser_id, 0.0)

    def spend_of(self, account: AccountSummary) -> float:
        """Window spend for one account."""
        return self._spend.get(account.advertiser_id, 0.0)

    def impressions_of(self, account: AccountSummary) -> float:
        """Window impressions for one account."""
        return self._imp.get(account.advertiser_id, 0.0)

    def rate_of(self, account: AccountSummary) -> float:
        """Clicks per possible-active day within the window."""
        days = account.active_days_in(self.window.start, self.window.end)
        if days <= 0:
            return 0.0
        return self.clicks_of(account) / days

    def _stream(self, name: str) -> np.random.Generator:
        """A dedicated stream per subset name: ``build`` is idempotent
        and independent of call order."""
        return stream(
            self._root_seed,
            f"subsets:{self.window.label}:{self.window.start}:{name}",
        )

    def _uniform(self, pool: list[AccountSummary], name: str) -> Subset:
        if not pool:
            raise SubsetError(f"{name}: empty candidate pool")
        size = min(self.target_size, len(pool))
        picks = self._stream(name).choice(len(pool), size=size, replace=False)
        return Subset(name, tuple(pool[int(i)] for i in picks))

    def _weighted(
        self, pool: list[AccountSummary], metric, name: str
    ) -> Subset:
        values = np.asarray([metric(a) for a in pool], dtype=float)
        positive = values > 0
        if not positive.any():
            raise SubsetError(f"{name}: no accounts with positive weight")
        candidates = [a for a, keep in zip(pool, positive) if keep]
        weights = values[positive]
        weights = weights / weights.sum()
        size = min(self.target_size, len(candidates))
        picks = self._stream(name).choice(
            len(candidates), size=size, replace=False, p=weights
        )
        return Subset(name, tuple(candidates[int(i)] for i in picks))

    def _matched(
        self,
        reference: Subset,
        pool: list[AccountSummary],
        metric,
        name: str,
    ) -> Subset:
        """Greedy nearest-metric matching without replacement.

        Reference accounts are processed in decreasing metric order so
        the rare heavy accounts claim their closest counterparts first.
        """
        if not pool:
            raise SubsetError(f"{name}: empty candidate pool")
        candidates = sorted(pool, key=metric)
        values = np.asarray([metric(a) for a in candidates], dtype=float)
        used = np.zeros(len(candidates), dtype=bool)
        chosen: list[AccountSummary] = []
        targets = sorted(
            (metric(a) for a in reference.accounts), reverse=True
        )
        for target in targets:
            index = int(np.searchsorted(values, target))
            # The nearest unused candidate is the first unused entry on
            # either side of the insertion point (values are sorted).
            left = index - 1
            while left >= 0 and used[left]:
                left -= 1
            right = index
            while right < len(candidates) and used[right]:
                right += 1
            if left < 0 and right >= len(candidates):
                break  # pool exhausted
            if left < 0:
                best = right
            elif right >= len(candidates):
                best = left
            else:
                best = (
                    left
                    if abs(values[left] - target) <= abs(values[right] - target)
                    else right
                )
            used[best] = True
            chosen.append(candidates[best])
        if not chosen:
            raise SubsetError(f"{name}: matching produced no accounts")
        return Subset(name, tuple(chosen))

    # -- public API ----------------------------------------------------

    def build(self, name: str) -> Subset:
        """Build one subset by its paper label."""
        fraud, nonfraud = self._fraud_pool, self._nonfraud_pool
        if name == "Fraud":
            return self._uniform(fraud, name)
        if name == "Nonfraud":
            return self._uniform(nonfraud, name)
        if name == "F with clicks":
            return self._uniform(
                [a for a in fraud if self.clicks_of(a) > 0], name
            )
        if name == "NF with clicks":
            return self._uniform(
                [a for a in nonfraud if self.clicks_of(a) > 0], name
            )
        if name == "F spend weight":
            return self._weighted(fraud, self.spend_of, name)
        if name == "NF spend weight":
            return self._weighted(nonfraud, self.spend_of, name)
        if name == "F volume weight":
            return self._weighted(fraud, self.clicks_of, name)
        if name == "NF volume weight":
            return self._weighted(nonfraud, self.clicks_of, name)
        if name == "NF spend match":
            reference = self.build("F spend weight")
            return self._matched(reference, nonfraud, self.spend_of, name)
        if name == "NF volume match":
            reference = self.build("F volume weight")
            return self._matched(reference, nonfraud, self.clicks_of, name)
        if name == "NF rate match":
            reference = self.build("F volume weight")
            return self._matched(reference, nonfraud, self.rate_of, name)
        if name == "NF keyword overlap":
            return self._keyword_overlap(name)
        raise SubsetError(f"unknown subset: {name!r}")

    def _keyword_overlap(self, name: str) -> Subset:
        """Non-fraudulent advertisers sharing verticals with the most
        prolific fraud spenders (Section 6.1's overlap sample).

        Even these advertisers see only a small share of their
        impressions beside fraud (<2% in the paper's median case).
        """
        fraud_spenders = sorted(
            self._fraud_pool, key=self.spend_of, reverse=True
        )
        top = fraud_spenders[: max(1, len(fraud_spenders) // 10)]
        hot_verticals = {v for a in top for v in a.verticals}
        if not hot_verticals:
            raise SubsetError(f"{name}: no fraud spend in window")
        pool = [
            a
            for a in self._nonfraud_pool
            if set(a.verticals) & hot_verticals and self.impressions_of(a) > 0
        ]
        return self._uniform(pool, name)

    def build_many(self, names=ALL_SUBSETS) -> dict[str, Subset]:
        """Build several subsets keyed by name."""
        return {name: self.build(name) for name in names}
