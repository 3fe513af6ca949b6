"""Batched GSP auction kernel.

Array-native formulation of :func:`repro.auction.gsp.run_auction` that
prices many auctions in one shot.  Candidates for a whole batch of
auctions arrive as flat parallel arrays tagged with a ``segment`` id
(the auction each candidate belongs to); the kernel ranks, dedupes,
lays out and prices every segment simultaneously with numpy primitives:

* ranking: one ``np.lexsort`` over ``(segment, -rank, advertiser, ad)``,
  matching the scalar sort key exactly (ties included);
* per-advertiser dedupe: a grouped cumulative count over
  ``(segment, advertiser)`` computed with a second stable lexsort,
  keeping the first ``per_advertiser_cap`` offers per advertiser in
  rank order — exactly what the scalar ``_dedupe_per_advertiser`` does;
* layout: closed-form prefix counts via
  :func:`repro.auction.slots.layout_counts` (valid because sorted rank
  scores make reserve crossings prefix boundaries);
* pricing: :func:`repro.auction.pricing.gsp_price_array`, which applies
  the scalar pricing arithmetic element-wise.

The scalar :func:`~repro.auction.gsp.run_auction` is retained as the
differential-testing oracle: for any candidate set the two paths agree
bit-for-bit on ranking, dedupe, placement and prices (see
``tests/auction/test_batch_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..config import AuctionConfig
from .pricing import gsp_price_array
from .slots import layout_counts

__all__ = ["BatchAuctionResult", "run_auction_batch"]

# Observability handles: pure Python counters/spans, no RNG contact
# (the kernel draws nothing anyway -- ranking and pricing are
# deterministic given the candidate arrays).
_KERNEL_CANDIDATES = obs.counter("auction.kernel_candidates")
_KERNEL_SHOWN = obs.counter("auction.kernel_shown")


@dataclass(frozen=True)
class BatchAuctionResult:
    """Shown ads for a batch of auctions, ordered by (segment, position).

    The first five arrays are parallel, one entry per shown ad.
    ``candidate_index`` points back into the *input* candidate arrays so
    callers can gather any per-candidate attribute (market row, match
    code, ...) without the kernel carrying it.
    ``n_shown``/``n_fraud_shown`` are per-segment competition context
    with one entry per auction, including auctions that showed nothing.
    """

    segment: np.ndarray
    candidate_index: np.ndarray
    position: np.ndarray
    mainline: np.ndarray
    price: np.ndarray
    n_shown: np.ndarray
    n_fraud_shown: np.ndarray

    def __len__(self) -> int:
        return len(self.segment)


def _empty_result(n_segments: int) -> BatchAuctionResult:
    return BatchAuctionResult(
        segment=np.zeros(0, dtype=np.int64),
        candidate_index=np.zeros(0, dtype=np.int64),
        position=np.zeros(0, dtype=np.int16),
        mainline=np.zeros(0, dtype=bool),
        price=np.zeros(0, dtype=np.float64),
        n_shown=np.zeros(n_segments, dtype=np.int16),
        n_fraud_shown=np.zeros(n_segments, dtype=np.int16),
    )


def _grouped_occurrence(segment: np.ndarray, advertiser: np.ndarray) -> np.ndarray:
    """Occurrence index of each row within its (segment, advertiser) group.

    Rows must already be in ranked order; the stable lexsort preserves
    that order within each group, so ``occurrence == 0`` marks an
    advertiser's best-ranked offer in its auction, ``1`` the second
    best, and so on.
    """
    n = len(segment)
    regroup = np.lexsort((advertiser, segment))
    seg_g = segment[regroup]
    adv_g = advertiser[regroup]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = (seg_g[1:] != seg_g[:-1]) | (adv_g[1:] != adv_g[:-1])
    group_start = np.flatnonzero(new_group)
    group_id = np.cumsum(new_group) - 1
    occurrence = np.empty(n, dtype=np.int64)
    occurrence[regroup] = np.arange(n) - group_start[group_id]
    return occurrence


def run_auction_batch(
    segment: np.ndarray,
    advertiser_id: np.ndarray,
    ad_id: np.ndarray,
    max_bid: np.ndarray,
    quality: np.ndarray,
    fraud_labeled: np.ndarray,
    config: AuctionConfig,
    n_segments: int,
) -> BatchAuctionResult:
    """Run GSP auctions for every segment of a flat candidate batch.

    Args:
        segment: Auction id per candidate, in ``[0, n_segments)``.
            Candidates of one auction need not be contiguous.
        advertiser_id: Owning account per candidate.
        ad_id: Ad per candidate (tie-break key after advertiser).
        max_bid: Maximum CPC per candidate, USD.
        quality: Estimated click probability per candidate.
        fraud_labeled: Eventual fraud label per candidate (competition
            context only; never used for ranking or pricing).
        config: Auction mechanics.
        n_segments: Number of auctions in the batch (segments with no
            candidates simply show nothing).

    Returns:
        A :class:`BatchAuctionResult`; rows are ordered by segment and,
        within a segment, by page position.
    """
    with obs.span(
        "auction.kernel", candidates=len(segment), segments=n_segments
    ):
        result = _run_auction_batch(
            segment,
            advertiser_id,
            ad_id,
            max_bid,
            quality,
            fraud_labeled,
            config,
            n_segments,
        )
    _KERNEL_CANDIDATES.inc(len(segment))
    _KERNEL_SHOWN.inc(len(result))
    return result


def _run_auction_batch(
    segment: np.ndarray,
    advertiser_id: np.ndarray,
    ad_id: np.ndarray,
    max_bid: np.ndarray,
    quality: np.ndarray,
    fraud_labeled: np.ndarray,
    config: AuctionConfig,
    n_segments: int,
) -> BatchAuctionResult:
    """The uninstrumented kernel body (see :func:`run_auction_batch`)."""
    n = len(segment)
    if n == 0:
        return _empty_result(n_segments)

    rank = max_bid * quality
    # Primary key last: sort by segment, then rank desc, then the
    # deterministic tie-break (advertiser_id, ad_id) — the exact scalar
    # sort key `(-rank_score, advertiser_id, ad_id)` per auction.
    order = np.lexsort((ad_id, advertiser_id, -rank, segment))
    seg_s = np.asarray(segment)[order]
    adv_s = np.asarray(advertiser_id)[order]
    rank_s = rank[order]

    keep = (
        _grouped_occurrence(seg_s, adv_s) < config.per_advertiser_cap
        if config.per_advertiser_cap < n
        else slice(None)
    )
    seg_k = seg_s[keep]
    rank_k = rank_s[keep]
    cand_k = order[keep]

    n_kept = len(seg_k)
    counts = np.bincount(seg_k, minlength=n_segments)
    seg_begin = np.cumsum(counts) - counts
    pos_in_seg = np.arange(n_kept) - seg_begin[seg_k]

    n_eligible = np.bincount(
        seg_k[rank_k >= config.reserve_score], minlength=n_segments
    )
    n_ml_eligible = np.bincount(
        seg_k[rank_k >= config.mainline_reserve], minlength=n_segments
    )
    n_mainline, n_shown = layout_counts(n_eligible, n_ml_eligible, config)

    shown = pos_in_seg < n_shown[seg_k]
    rows = np.flatnonzero(shown)
    if rows.size == 0:
        # A segment with n_shown > 0 always marks its top candidate
        # shown, so an empty `rows` implies all-zero counts.
        return _empty_result(n_segments)

    # Competitor directly below in the same segment (kept order), as in
    # the scalar path: the next entry of the deduped ranking, shown or
    # not.
    has_next = np.empty(n_kept, dtype=bool)
    has_next[:-1] = seg_k[1:] == seg_k[:-1]
    has_next[-1] = False
    next_rank = np.empty_like(rank_k)
    next_rank[:-1] = rank_k[1:]
    next_rank[-1] = 0.0

    max_bid = np.asarray(max_bid)
    quality = np.asarray(quality)
    price = gsp_price_array(
        max_bid[cand_k[rows]],
        quality[cand_k[rows]],
        next_rank[rows],
        has_next[rows],
        config,
    )

    fraud_labeled = np.asarray(fraud_labeled)
    shown_fraud = seg_k[rows[fraud_labeled[cand_k[rows]]]]
    n_fraud_shown = np.bincount(shown_fraud, minlength=n_segments)

    return BatchAuctionResult(
        segment=seg_k[rows],
        candidate_index=cand_k[rows],
        position=(pos_in_seg[rows] + 1).astype(np.int16),
        mainline=pos_in_seg[rows] < n_mainline[seg_k[rows]],
        price=price,
        n_shown=n_shown.astype(np.int16),
        n_fraud_shown=n_fraud_shown.astype(np.int16),
    )
