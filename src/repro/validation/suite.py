"""The validation suite: measure everything, check against the paper.

Usage::

    from repro import default_config, run_simulation
    from repro.validation import run_validation, render_report

    result = run_simulation(default_config())
    checks = run_validation(result)
    print(render_report(checks))

Bands are generous around the paper's reported values; a MISS flags
calibration drift worth investigating, not necessarily a bug.
"""

from __future__ import annotations

import numpy as np

from ..analysis import (
    CompetitionAnalyzer,
    SubsetBuilder,
    above_default_share,
    advertiser_effectiveness,
    clicks_by_match_type,
    fraud_clicks_by_country,
    fraud_domain_usage,
    fraud_lifetimes,
    impression_rates,
    preads_shutdown_share,
    top_position_probability,
    top_share,
    weekly_fraud_activity,
)
from ..analysis.aggregates import aggregate_by_advertiser
from ..simulator.results import SimulationResult
from ..timeline import primary_window
from .targets import CheckResult, TargetBand

__all__ = ["run_validation", "render_report", "checks_to_json", "measure_all"]


def measure_all(result: SimulationResult) -> dict[str, float]:
    """Compute every validated quantity from one simulation."""
    table = result.impressions
    window = primary_window(result.config.days)
    measures: dict[str, float] = {}

    # -- Section 4: scale --------------------------------------------
    fraud_accounts = result.fraud_accounts()
    measures["fraud_registration_share"] = len(fraud_accounts) / max(
        1, len(result.accounts)
    )
    measures["pre_ad_shutdown_share"] = preads_shutdown_share(result)
    lifetimes = fraud_lifetimes(result)
    year1 = lifetimes.curves.get("Year 1 (account)")
    if year1 is not None and len(year1):
        measures["median_lifetime_from_registration"] = year1.median
    year1_ad = lifetimes.curves.get("Year 1 (ad)")
    if year1_ad is not None and len(year1_ad):
        measures["p90_lifetime_from_first_ad"] = year1_ad.quantile(0.9)
    fraud_rows = table.fraud_labeled
    measures["fraud_click_share"] = float(
        table.clicks[fraud_rows].sum() / max(1.0, table.clicks.sum())
    )
    activity = weekly_fraud_activity(result)
    half = len(activity.spend_in_window) // 2
    if half > 4:
        early = float(activity.spend_in_window[2:half].mean())
        late = float(activity.spend_in_window[half:-2].mean())
        measures["late_over_early_fraud_spend"] = late / max(early, 1e-12)
    window_table = table.in_window(window.start, window.end)
    fraud_agg = aggregate_by_advertiser(window_table, window_table.fraud_labeled)
    if len(fraud_agg) >= 10:
        measures["top10pct_fraud_click_share"] = top_share(fraud_agg.clicks)
        measures["top10pct_fraud_spend_share"] = top_share(fraud_agg.spend)

    # -- Section 5: behaviour ----------------------------------------
    rates = impression_rates(result, window)
    if len(rates.fraud) and len(rates.nonfraud):
        measures["fraud_rate_ratio"] = rates.fraud.median / max(
            rates.nonfraud.median, 1e-12
        )
    builder = SubsetBuilder(result, window, target_size=10_000)
    f_clicks = builder.build("F with clicks")
    nf_clicks = builder.build("NF with clicks")
    f_kws = np.median([a.n_keywords for a in f_clicks.accounts])
    nf_kws = np.median([a.n_keywords for a in nf_clicks.accounts])
    measures["footprint_gap_keywords"] = nf_kws / max(f_kws, 1.0)
    measures["above_default_fraud"] = above_default_share(f_clicks)
    measures["above_default_nonfraud"] = above_default_share(nf_clicks)

    t3 = fraud_clicks_by_country(result, window)
    if t3:
        measures["top_country_fraud_click_share"] = t3[0].share_of_fraud
        measures["dirtiest_country_rate"] = max(
            r.share_of_country for r in t3
        )
    t4 = {r.match_type: r for r in clicks_by_match_type(result, window)}
    if "phrase" in t4 and not np.isnan(t4["phrase"].fraud_click_share):
        measures["fraud_phrase_click_share"] = t4["phrase"].fraud_click_share
        measures["nonfraud_exact_click_share"] = t4["exact"].nonfraud_click_share

    domains = fraud_domain_usage(result)
    measures["single_domain_share"] = domains.single_domain_share
    measures["three_or_fewer_domains_share"] = domains.three_or_fewer_share

    effectiveness = advertiser_effectiveness(result, window)
    if not np.isnan(effectiveness.top_fraud_cpc_quantile):
        measures["top_fraud_cpc_quantile"] = effectiveness.top_fraud_cpc_quantile

    # -- Section 6: competition --------------------------------------
    analyzer = CompetitionAnalyzer(result, window)
    nf_shares = [
        analyzer.affected_impression_share(a.advertiser_id)
        for a in nf_clicks.accounts
    ]
    nf_shares = [s for s in nf_shares if not np.isnan(s)]
    f_shares = [
        analyzer.affected_impression_share(a.advertiser_id)
        for a in f_clicks.accounts
    ]
    f_shares = [s for s in f_shares if not np.isnan(s)]
    if nf_shares:
        measures["nf_median_affected"] = float(np.median(nf_shares))
        measures["nf_p95_affected"] = float(np.percentile(nf_shares, 95))
    if f_shares:
        measures["f_median_affected"] = float(np.median(f_shares))
    organic = top_position_probability(analyzer, nf_clicks, influenced=False)
    influenced = top_position_probability(analyzer, nf_clicks, influenced=True)
    if organic == organic and influenced == influenced and organic > 0:
        measures["nf_top_position_drop"] = influenced / organic
    return measures


#: The acceptance bands, keyed by measure name.
TARGETS: tuple[TargetBand, ...] = (
    TargetBand("fraud_registration_share", "1/3 .. >1/2", 0.30, 0.60, "Fig 1"),
    TargetBand("pre_ad_shutdown_share", "0.35", 0.20, 0.50, "Sec 4.1"),
    TargetBand("median_lifetime_from_registration", "<1 day", None, 1.5, "Fig 2"),
    TargetBand("p90_lifetime_from_first_ad", "<=4 days", None, 6.0, "Fig 2"),
    TargetBand("fraud_click_share", "small (~1-3%)", 0.002, 0.06, "Sec 4.2"),
    TargetBand("late_over_early_fraud_spend", "~0.5 (halves)", 0.2, 0.9, "Fig 3"),
    TargetBand("top10pct_fraud_click_share", ">0.95", 0.60, None, "Fig 4"),
    TargetBand("top10pct_fraud_spend_share", "0.8-0.9", 0.65, 1.0, "Fig 4"),
    TargetBand("fraud_rate_ratio", "fraud faster", 1.5, None, "Fig 5"),
    TargetBand("footprint_gap_keywords", ">10x", 4.0, None, "Fig 7"),
    TargetBand("above_default_fraud", "0.17", 0.05, 0.35, "Sec 5.3"),
    TargetBand("above_default_nonfraud", "~0.34", 0.15, 0.55, "Sec 5.3"),
    TargetBand("top_country_fraud_click_share", "US 0.61", 0.45, None, "Tab 3"),
    TargetBand("dirtiest_country_rate", "BR <6% (tops ~1 in 20)", 0.01, 0.25, "Tab 3"),
    TargetBand("fraud_phrase_click_share", "0.311 over-represented", 0.15, 0.60, "Tab 4"),
    TargetBand("nonfraud_exact_click_share", "0.679", 0.45, 0.85, "Tab 4"),
    TargetBand("single_domain_share", "0.74", 0.5, 0.95, "Sec 5.2.4"),
    TargetBand("three_or_fewer_domains_share", "0.96", 0.85, 1.0, "Sec 5.2.4"),
    TargetBand("top_fraud_cpc_quantile", "upper end of CPC dist", 0.5, None, "Sec 4.2"),
    TargetBand("nf_median_affected", "<0.006", None, 0.05, "Fig 10"),
    TargetBand("nf_p95_affected", "<0.20", None, 0.30, "Fig 10"),
    TargetBand("f_median_affected", ">0.90", 0.5, None, "Fig 10"),
    TargetBand("nf_top_position_drop", "0.20 -> 0.10 (~0.5x)", 0.3, 1.0, "Fig 12"),
)


def run_validation(result: SimulationResult) -> list[CheckResult]:
    """Measure the simulation and check every paper target."""
    measures = measure_all(result)
    checks = []
    for target in TARGETS:
        if target.name in measures:
            checks.append(target.check(measures[target.name]))
    return checks


def render_report(checks: list[CheckResult]) -> str:
    """Human-readable validation report."""
    lines = [check.render() for check in checks]
    misses = sum(1 for check in checks if not check.ok)
    lines.append(f"-- {len(checks) - misses}/{len(checks)} targets in band")
    return "\n".join(lines)


def checks_to_json(checks: list[CheckResult]) -> dict:
    """Machine-readable validation outcome (``--json`` / ``obs diff``).

    NaN measurements serialize as ``null`` so the payload stays strict
    JSON (a NaN measure is always a MISS, so no information is lost).
    """
    rows = []
    for check in checks:
        target = check.target
        measured = float(check.measured)
        rows.append(
            {
                "name": target.name,
                "ok": bool(check.ok),
                "measured": measured if measured == measured else None,
                "low": target.low,
                "high": target.high,
                "paper": target.paper,
                "section": target.section,
            }
        )
    return {
        "schema": "repro.validation/v1",
        "passed": sum(1 for check in checks if check.ok),
        "total": len(checks),
        "checks": rows,
    }
