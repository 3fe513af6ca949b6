"""Vertical spend dynamics (Figure 8, Section 5.2.1).

Monthly fraudulent spend per vertical, normalized by the same value as
Figure 3's spend normalization.  The signature shape: ``techsupport``
dominates fraud spend until the Year-2 policy ban, then collapses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..records.codes import vertical_name
from ..simulator.results import SimulationResult
from ..taxonomy.verticals import dubious_vertical_names
from ..timeline import day_to_month, month_label
from .activity import weekly_fraud_activity

__all__ = ["VerticalSpendSeries", "vertical_spend_by_month"]


@dataclass(frozen=True)
class VerticalSpendSeries:
    """Per-vertical monthly fraud spend (normalized)."""

    months: list[str]
    #: vertical name -> normalized spend per month
    series: dict[str, np.ndarray]
    norm: float

    def top_verticals(self, count: int = 10) -> list[str]:
        """Vertical names ranked by total normalized spend."""
        totals = {name: float(values.sum()) for name, values in self.series.items()}
        return sorted(totals, key=totals.get, reverse=True)[:count]


def vertical_spend_by_month(
    result: SimulationResult,
    min_monthly_spend: float = 0.0,
) -> VerticalSpendSeries:
    """Figure 8's series.

    Args:
        result: Simulation output.
        min_monthly_spend: If positive, only count advertisers whose
            spend in a month exceeds this (the paper labels advertisers
            with >$2000 spend in a month); zero counts all fraud spend.
    """
    table = result.impressions
    fraud_rows = table.fraud_labeled
    n_months = day_to_month(result.total_days - 1) + 1
    months = np.asarray([day_to_month(d) for d in table.day[fraud_rows]])
    verticals = table.vertical[fraud_rows]
    spend = table.spend[fraud_rows]
    ids = table.advertiser_id[fraud_rows]

    if min_monthly_spend > 0:
        # Per (advertiser, month) spend filter.
        key = ids * n_months + months
        unique, inverse = np.unique(key, return_inverse=True)
        totals = np.bincount(inverse, weights=spend)
        keep = totals[inverse] >= min_monthly_spend
        months, verticals, spend = months[keep], verticals[keep], spend[keep]

    norm = weekly_fraud_activity(result).spend_norm
    series: dict[str, np.ndarray] = {}
    for name in dubious_vertical_names():
        series[name] = np.zeros(n_months)
    for month, vert, amount in zip(months, verticals, spend):
        name = vertical_name(int(vert))
        if name in series:
            series[name][int(month)] += amount
    for name in series:
        series[name] = series[name] / norm
    return VerticalSpendSeries(
        months=[month_label(m) for m in range(n_months)],
        series=series,
        norm=norm,
    )
