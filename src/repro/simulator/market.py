"""Vectorized offer index.

All keyword offers in the marketplace are flattened into parallel numpy
arrays once the population is generated.  Each simulated day the index
computes which offers are live (account alive, ad created, account "on"
today under its activity budget) and groups them into buckets keyed by
``(cell, keyword, match type)`` so each query touches only the offers
that could possibly match it.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..behavior.factory import MaterializedAccount
from ..records.codes import country_code, vertical_code
from .querygen import CellSampler

__all__ = ["MarketIndex", "DayBuckets", "bucket_keys"]

#: Max keyword-pool size supported by the composite bucket key.
_MAX_KW = 128


def bucket_keys(
    cell: int | np.ndarray, kw_index: np.ndarray, match: np.ndarray
) -> np.ndarray:
    """Composite bucket key(s) for (cell, keyword, match) triples."""
    return (
        (np.asarray(cell, dtype=np.int64) * _MAX_KW + kw_index) * 3 + match
    )


class DayBuckets:
    """One day's live offers grouped by (cell, kw, match) key.

    Stored array-native: ``keys`` is the sorted array of distinct
    composite bucket keys, ``starts``/``counts`` delimit each bucket's
    slice of ``rows`` (live offer indices into the
    :class:`MarketIndex` columns, grouped by key).  Lookups are binary
    searches; :meth:`gather` resolves a whole array of keys at once for
    the batched auction path.
    """

    __slots__ = ("keys", "starts", "counts", "rows", "_dict")

    def __init__(
        self,
        keys: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        rows: np.ndarray,
    ) -> None:
        self.keys = keys
        self.starts = starts
        self.counts = counts
        self.rows = rows
        self._dict: dict[int, np.ndarray] | None = None

    @classmethod
    def empty(cls) -> "DayBuckets":
        return cls(
            keys=np.zeros(0, dtype=np.int64),
            starts=np.zeros(0, dtype=np.int64),
            counts=np.zeros(0, dtype=np.int64),
            rows=np.zeros(0, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def buckets(self) -> dict[int, np.ndarray]:
        """Key -> offer-row-array view (materialized lazily)."""
        if self._dict is None:
            self._dict = {
                int(key): self.rows[start : start + count]
                for key, start, count in zip(self.keys, self.starts, self.counts)
            }
        return self._dict

    def lookup(self, cell: int, kw_index: int, match: int) -> np.ndarray | None:
        """Offer rows for one (cell, keyword, match) bucket."""
        key = (cell * _MAX_KW + kw_index) * 3 + match
        pos = np.searchsorted(self.keys, key)
        if pos >= len(self.keys) or self.keys[pos] != key:
            return None
        start = self.starts[pos]
        return self.rows[start : start + self.counts[pos]]

    def gather(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Resolve many bucket keys in one vectorized pass.

        Args:
            keys: Composite bucket keys, any order, duplicates allowed.

        Returns:
            ``(rows, key_index)``: all offer rows of every key that has
            a bucket (concatenated in the order the keys were given)
            and, parallel to it, the index into ``keys`` each row came
            from — so callers can map rows back to per-key metadata
            such as the match code.  Keys with no bucket contribute
            nothing.
        """
        if len(self.keys) == 0 or len(keys) == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        pos = np.searchsorted(self.keys, keys)
        pos_clipped = np.minimum(pos, len(self.keys) - 1)
        hit = np.flatnonzero(self.keys[pos_clipped] == keys)
        if hit.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        bucket = pos[hit]
        counts = self.counts[bucket]
        total = int(counts.sum())
        # Concatenate `rows[start:start+count]` slices without a Python
        # loop: offsets of each slice within the output, then a running
        # index that resets at slice boundaries.
        out_offsets = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(out_offsets, counts)
        row_index = np.repeat(self.starts[bucket], counts) + within
        return self.rows[row_index], np.repeat(hit, counts)


class MarketIndex:
    """Static offer arrays plus per-day liveness computation."""

    def __init__(self, accounts: list[MaterializedAccount]) -> None:
        cells: list[int] = []
        kws: list[int] = []
        matches: list[int] = []
        max_bids: list[float] = []
        qualities: list[float] = []
        adv_rows: list[int] = []
        advertiser_ids: list[int] = []
        ad_ids: list[int] = []
        active_from: list[float] = []
        active_until: list[float] = []
        fraud_labeled: list[bool] = []
        participation: list[float] = []

        with obs.span("market.offers", accounts=len(accounts)):
            for row, account in enumerate(accounts):
                profile = account.profile
                participation.append(profile.participation_prob)
                if not account.offers:
                    continue
                ad, campaign, kw, match, bid, quality, created = zip(
                    *account.offers
                )
                n = len(ad)
                vert = [vertical_code(v) for v in profile.verticals]
                ctry = [country_code(c) for c in profile.target_countries]
                cells.extend(CellSampler.cell_of(vert[c], ctry[c]) for c in campaign)
                kws.extend(kw)
                matches.extend(match)
                max_bids.extend(bid)
                qualities.extend(quality)
                adv_rows.extend([row] * n)
                advertiser_ids.extend([account.advertiser_id] * n)
                ad_ids.extend(ad)
                active_from.extend(created)
                active_until.extend([account.activity_end] * n)
                fraud_labeled.extend([account.labeled_fraud] * n)

        with obs.span("market.columns", offers=len(cells)):
            self.n_offers = len(cells)
            self.n_accounts = len(accounts)
            self.cell = np.asarray(cells, dtype=np.int32)
            self.kw = np.asarray(kws, dtype=np.int16)
            self.match = np.asarray(matches, dtype=np.int8)
            self.max_bid = np.asarray(max_bids, dtype=np.float64)
            self.quality = np.asarray(qualities, dtype=np.float64)
            self.adv_row = np.asarray(adv_rows, dtype=np.int32)
            self.advertiser_id = np.asarray(advertiser_ids, dtype=np.int64)
            self.ad_id = np.asarray(ad_ids, dtype=np.int64)
            self.active_from = np.asarray(active_from, dtype=np.float64)
            self.active_until = np.asarray(active_until, dtype=np.float64)
            self.fraud_labeled = np.asarray(fraud_labeled, dtype=bool)
            self.participation = np.asarray(participation, dtype=np.float64)
            if self.n_offers and int(self.kw.max()) >= _MAX_KW:
                raise ValueError("keyword pool exceeds composite key capacity")
            self._key = bucket_keys(self.cell, self.kw, self.match)

    def live_mask(self, time: float, rng: np.random.Generator) -> np.ndarray:
        """Offers live at ``time``: active interval covers it, account on."""
        if self.n_offers == 0:
            return np.zeros(0, dtype=bool)
        account_on = rng.random(self.n_accounts) < self.participation
        return (
            (self.active_from <= time)
            & (time < self.active_until)
            & account_on[self.adv_row]
        )

    def day_buckets(self, time: float, rng: np.random.Generator) -> DayBuckets:
        """Group the day's live offers for O(log n) query lookup."""
        live = np.flatnonzero(self.live_mask(time, rng))
        if live.size == 0:
            return DayBuckets.empty()
        keys = self._key[live]
        order = np.argsort(keys, kind="stable")
        sorted_live = live[order]
        sorted_keys = keys[order]
        boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(sorted_keys)]))
        return DayBuckets(
            keys=sorted_keys[starts],
            starts=starts,
            counts=ends - starts,
            rows=sorted_live,
        )
