"""Ablation -- quality scores in ranking (DESIGN.md section 4).

Rank by bid x quality (the platform's design) versus bid alone
(``quality-blind``), approximated by flattening quality differences.
Without quality in the rank, low-quality broad-match ads buy their way
into the mainline and the marketplace's realized CTR drops.
"""

from dataclasses import replace

import numpy as np

from repro.auction import Candidate, run_auction
from repro.clickmodel import examination_probability
from repro.config import AuctionConfig, ClickConfig
from repro.entities.enums import MatchType
from repro.rng import stream

AUCTION = AuctionConfig()
CLICK = ClickConfig()


def _candidates(rng, n=12):
    out = []
    for i in range(n):
        quality = float(rng.lognormal(-3.2, 0.6))
        out.append(
            Candidate(
                advertiser_id=i,
                ad_id=i,
                match_type=MatchType.PHRASE,
                max_bid=float(rng.lognormal(-0.5, 0.8)),
                quality=quality,
            )
        )
    return out


def _realized_ctr(candidates, flatten_quality):
    # Users click on the ad's own quality, whatever the ranking saw.
    quality = {c.ad_id: c.quality for c in candidates}
    if flatten_quality:
        mean_quality = float(np.mean(list(quality.values())))
        ranked = [replace(c, quality=mean_quality) for c in candidates]
    else:
        ranked = candidates
    outcome = run_auction(ranked, AUCTION)
    return sum(
        min(
            1.0,
            examination_probability(s.placement, CLICK)
            * quality[s.candidate.ad_id],
        )
        for s in outcome.shown
    )


def _sweep(flatten_quality: bool) -> float:
    rng = stream(7, "ablation-quality")
    total = 0.0
    for _ in range(400):
        total += _realized_ctr(_candidates(rng), flatten_quality)
    return total


def test_ablation_quality_score(benchmark):
    with_quality = benchmark(_sweep, False)
    without_quality = _sweep(True)
    print(f"\nexpected clicks/auction: quality-ranked={with_quality:.1f} "
          f"bid-ranked={without_quality:.1f}")
    # Quality-aware ranking must deliver more realized clicks.
    assert with_quality > without_quality
