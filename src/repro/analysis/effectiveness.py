"""Effectiveness of advertisers (Section 4.2).

CTR and CPC comparisons between populations: fraud click-through rates
run slightly *below* their non-fraudulent counterparts except for the
highest-spending fraud accounts, and the top fraud spenders live in the
upper end of the CPC distribution ("CPCs regularly in the several tens
of dollars").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simulator.results import SimulationResult
from ..timeline import Window
from .aggregates import aggregate_by_advertiser

__all__ = ["EffectivenessStats", "advertiser_effectiveness"]


@dataclass(frozen=True)
class EffectivenessStats:
    """Per-population CTR/CPC summaries over one window."""

    fraud_median_ctr: float
    nonfraud_median_ctr: float
    top_fraud_median_ctr: float
    fraud_median_cpc: float
    nonfraud_median_cpc: float
    top_fraud_median_cpc: float
    #: Quantile of the top fraud spenders' median CPC within the
    #: non-fraud CPC distribution (the paper: "almost everyone else").
    top_fraud_cpc_quantile: float


def _medians(ctrs: np.ndarray, cpcs: np.ndarray) -> tuple[float, float]:
    ctr = float(np.median(ctrs)) if ctrs.size else float("nan")
    cpc = float(np.median(cpcs)) if cpcs.size else float("nan")
    return ctr, cpc


def advertiser_effectiveness(
    result: SimulationResult,
    window: Window,
    top_spend_fraction: float = 0.1,
) -> EffectivenessStats:
    """Section 4.2's CTR/CPC comparison.

    ``top_spend_fraction`` selects the highest-spending fraud accounts
    (by window spend) as the "most successful few".
    """
    table = result.impressions.in_window(window.start, window.end)
    agg = aggregate_by_advertiser(table)
    fraud_ids = set(int(i) for i in result.labeled_fraud_ids())

    rows = []
    for index, advertiser_id in enumerate(agg.advertiser_ids):
        impressions = agg.impressions[index]
        clicks = agg.clicks[index]
        spend = agg.spend[index]
        if impressions <= 0:
            continue
        ctr = clicks / impressions
        cpc = spend / clicks if clicks > 0 else np.nan
        rows.append((int(advertiser_id) in fraud_ids, ctr, cpc, spend))

    fraud = [(ctr, cpc, spend) for is_fraud, ctr, cpc, spend in rows if is_fraud]
    nonfraud = [(ctr, cpc, _) for is_fraud, ctr, cpc, _ in rows if not is_fraud]
    fraud_ctr = np.asarray([r[0] for r in fraud])
    fraud_cpc = np.asarray([r[1] for r in fraud if not np.isnan(r[1])])
    nonfraud_ctr = np.asarray([r[0] for r in nonfraud])
    nonfraud_cpc = np.asarray([r[1] for r in nonfraud if not np.isnan(r[1])])

    if fraud:
        spends = np.asarray([r[2] for r in fraud])
        cutoff = np.quantile(spends, 1.0 - top_spend_fraction)
        top = [(ctr, cpc) for ctr, cpc, spend in fraud if spend >= cutoff]
        top_ctr = np.asarray([t[0] for t in top])
        top_cpc = np.asarray([t[1] for t in top if not np.isnan(t[1])])
    else:
        top_ctr = top_cpc = np.empty(0)

    fraud_median_ctr, fraud_median_cpc = _medians(fraud_ctr, fraud_cpc)
    nonfraud_median_ctr, nonfraud_median_cpc = _medians(
        nonfraud_ctr, nonfraud_cpc
    )
    top_median_ctr, top_median_cpc = _medians(top_ctr, top_cpc)
    if nonfraud_cpc.size and not np.isnan(top_median_cpc):
        quantile = float(np.mean(nonfraud_cpc <= top_median_cpc))
    else:
        quantile = float("nan")
    return EffectivenessStats(
        fraud_median_ctr=fraud_median_ctr,
        nonfraud_median_ctr=nonfraud_median_ctr,
        top_fraud_median_ctr=top_median_ctr,
        fraud_median_cpc=fraud_median_cpc,
        nonfraud_median_cpc=nonfraud_median_cpc,
        top_fraud_median_cpc=top_median_cpc,
        top_fraud_cpc_quantile=quantile,
    )
