"""Generate EXPERIMENTS.md: paper-vs-measured for every figure/table.

Runs all 21 experiments against the full-scale simulation and renders a
markdown report.  Usage:

    python scripts/generate_experiments_md.py [--small] [-o EXPERIMENTS.md]

:func:`render` takes an :class:`ExperimentContext`, so a caller that
already holds the simulation result (``scripts/finalize.py``) renders
from it instead of simulating again.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro import default_config, small_config
from repro.experiments import ExperimentContext, experiment_ids, run_experiment
from repro.records.atomic import atomic_write_text

# Paper-reported values per headline metric (numbers or qualitative).
PAPER_TARGETS: dict[str, dict[str, str]] = {
    "fig1": {
        "mean_share_first_half": "~0.35-0.45 (\"more than a third\")",
        "mean_share_second_half": ">0.5 near the end",
    },
    "fig2": {
        "pre_ad_shutdown_share": "0.35",
        "median_lifetime_from_registration_y1": "<1 day",
        "median_lifetime_from_first_ad_y1": "~0.33 d (most within 8h)",
        "p90_lifetime_from_first_ad_y1": "<=4 days",
    },
    "fig3": {
        "late_over_early_spend": "~0.5 (activity nearly halves)",
        "out_of_window_share": "substantial (factor ~2 under-report)",
    },
    "fig4": {
        "top10pct_click_share": ">0.95",
        "top10pct_spend_share": "0.80-0.90",
    },
    "fig5": {"median_ratio": "fraud clearly faster (right-shifted CDF)"},
    "fig6": {
        "fraud_median_rate": "separated at low volume",
        "nonfraud_high_volume_median_rate": "blends with fraud at high volume",
    },
    "fig7": {
        "nf_over_f_median_ads": ">10x",
        "nf_over_f_median_keywords": ">10x",
    },
    "fig8": {
        "techsupport_collapse_ratio": "near-zero after the ban",
    },
    "fig9": {
        "above_default_both_fraud": "0.17",
        "above_default_both_nonfraud": "~0.34 (roughly double)",
        "fraud_share_with_no_exact": "0.60",
        "nonfraud_share_with_no_exact": "~0.50",
    },
    "fig10": {
        "nf_median_affected": "<0.006",
        "nf_p95_affected": "<0.20",
        "f_median_affected": ">0.90",
    },
    "fig11": {
        "f_median_spend_affected": "~0.99 of fraud spend affected",
        "nf_median_spend_affected": "small",
    },
    "fig12": {
        "nf_top_position_organic": "~0.20",
        "nf_top_position_influenced": "~0.10",
    },
    "fig13": {
        "f_top_position_organic": "~5% above NF organic",
        "f_top_position_influenced": "~10% drop",
    },
    "fig14": {
        "ctr_drop_factor": "~2x median drop; ~50% near-zero CTR",
    },
    "fig15": {
        "high_volume_cpc_increase": "~+30% (high volume); <5% random",
    },
    "fig16": {
        "f_near_zero_ctr_organic": "a few percent",
        "f_near_zero_ctr_influenced": "~a third",
    },
    "fig17": {"f_cpc_increase_factor": "~2x"},
    "tab1": {"top_country_share": "US 0.503 of fraud registrations"},
    "tab2": {"n_categories": "5 sample categories"},
    "tab3": {
        "top_country_share_of_fraud": "US 0.61",
        "dirtiest_country_fraud_share": "BR <0.06",
    },
    "tab4": {
        "fraud_exact_share": "0.616",
        "fraud_phrase_share": "0.311 (over-represented)",
        "nonfraud_exact_share": "0.679",
        "nonfraud_phrase_share": "0.233",
    },
}


def render(context: ExperimentContext) -> str:
    """EXPERIMENTS.md for the simulation behind ``context``."""
    config = context.config
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Every figure and table of the paper's evaluation, regenerated "
        "from the synthetic marketplace (see DESIGN.md for the "
        "substitution rationale). Absolute numbers are synthetic; the "
        "claim is that the *shape* — orderings, rough factors, regime "
        "changes — matches the paper.",
        "",
        f"Configuration: seed={config.seed}, days={config.days}, "
        f"registrations/day={config.population.registrations_per_day}, "
        f"sampled auctions/day={config.query.auctions_per_day}.",
        "",
        "Regenerate any row with `python -m repro.experiments <id>`.",
        "",
    ]
    for experiment_id in experiment_ids():
        output = run_experiment(experiment_id, context)
        lines.append(f"## {experiment_id}: {output.title}")
        lines.append("")
        targets = PAPER_TARGETS.get(experiment_id, {})
        lines.append("| metric | paper | measured |")
        lines.append("|---|---|---|")
        for key, value in output.metrics.items():
            paper = targets.get(key, "—")
            lines.append(f"| {key} | {paper} | {value:.4g} |")
        for key, paper in targets.items():
            if key not in output.metrics:
                lines.append(f"| {key} | {paper} | (see chart/table) |")
        lines.append("")
        for note in output.notes:
            lines.append(f"> {note}")
        lines.append("")
        print(f"{experiment_id}: ok ({len(output.metrics)} metrics)")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--small", action="store_true")
    parser.add_argument("-o", "--output", type=Path,
                        default=Path("EXPERIMENTS.md"))
    args = parser.parse_args(argv)
    config = small_config() if args.small else default_config()
    atomic_write_text(args.output, render(ExperimentContext(config)))
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
