"""Shape assertions per figure: the qualitative geometry each paper
figure communicates must hold on the shared test simulation.

These complement tests/experiments/test_experiments.py (which only
checks that everything runs): here each figure's *ordering* claims are
pinned.
"""

import numpy as np
import pytest

from repro.experiments import ExperimentContext, run_experiment


@pytest.fixture(scope="module")
def context(sim_config, sim_result):
    return ExperimentContext(sim_config, result=sim_result, subset_target=300)


def curves_of(output, chart_index=0):
    return output.charts[chart_index].cdfs


class TestFig1Shape:
    def test_share_rises_over_study(self, context):
        output = run_experiment("fig1", context)
        assert (
            output.metrics["mean_share_second_half"]
            > output.metrics["mean_share_first_half"]
        )


class TestFig2Shape:
    def test_ad_lifetimes_shorter_than_account(self, context):
        """Lifetime from first ad is never longer than from creation."""
        output = run_experiment("fig2", context)
        if (
            "median_lifetime_from_first_ad_y1" in output.metrics
            and "median_lifetime_from_registration_y1" in output.metrics
        ):
            assert (
                output.metrics["median_lifetime_from_first_ad_y1"]
                <= output.metrics["median_lifetime_from_registration_y1"] + 0.5
            )


class TestFig4Shape:
    def test_curves_monotone(self, context):
        output = run_experiment("fig4", context)
        for chart in output.charts:
            for x, y in chart.series.values():
                assert (np.diff(y) >= -1e-9).all()


class TestFig5Shape:
    def test_fraud_cdf_right_of_nonfraud(self, context):
        output = run_experiment("fig5", context)
        curves = curves_of(output)
        fraud, nonfraud = curves["Fraud"], curves["Nonfraud"]
        if len(fraud) and len(nonfraud):
            assert fraud.median > nonfraud.median


class TestFig7Shape:
    def test_fraud_left_of_nonfraud_in_creations(self, context):
        output = run_experiment("fig7", context)
        ads_panel = output.charts[0].cdfs
        fraud = ads_panel.get("F with clicks")
        nonfraud = ads_panel.get("NF with clicks")
        if fraud is not None and nonfraud is not None and len(fraud) and len(nonfraud):
            assert fraud.median < nonfraud.median

    def test_nf_with_clicks_normalized_median_near_one(self, context):
        output = run_experiment("fig7", context)
        nonfraud = output.charts[0].cdfs.get("NF with clicks")
        if nonfraud is not None and len(nonfraud):
            # Normalized by its own creation median.
            assert 0.4 < nonfraud.median < 2.5

    def test_nonfraud_targets_several_times_more_keywords(self, context):
        output = run_experiment("fig7", context)
        assert output.metrics["nf_over_f_median_keywords"] > 3


class TestFig9Shape:
    def test_fraud_heavier_on_broad(self, context):
        output = run_experiment("fig9", context)
        broad_panel = output.charts[0].cdfs  # panel (a): broad proportions
        fraud = broad_panel.get("F with clicks")
        nonfraud = broad_panel.get("NF with clicks")
        if fraud is not None and nonfraud is not None and len(fraud) and len(nonfraud):
            # NF CDF sits above (more mass at low broad shares).
            assert nonfraud.at(0.1) >= fraud.at(0.1) - 0.15


class TestFig10Fig11Shape:
    def test_fraud_curves_right_of_nonfraud(self, context):
        for experiment_id in ("fig10", "fig11"):
            output = run_experiment(experiment_id, context)
            curves = curves_of(output)
            fraud = curves.get("F with clicks")
            nonfraud = curves.get("NF with clicks")
            if (
                fraud is not None
                and nonfraud is not None
                and len(fraud)
                and len(nonfraud)
            ):
                # NF has far more mass at zero-affected.
                assert nonfraud.at(0.01) >= fraud.at(0.01)


class TestFig12Shape:
    def test_influence_pushes_positions_down(self, context):
        output = run_experiment("fig12", context)
        organic = output.metrics.get("nf_top_position_organic")
        influenced = output.metrics.get("nf_top_position_influenced")
        if organic and influenced and not np.isnan(organic):
            assert influenced <= organic + 0.1


class TestFig14Fig15Shape:
    def test_ctr_influenced_not_better(self, context):
        output = run_experiment("fig14", context)
        organic = output.metrics.get("nf_median_ctr_organic")
        influenced = output.metrics.get("nf_median_ctr_influenced")
        if organic and influenced:
            assert influenced <= organic * 1.3

    def test_cpc_influenced_not_cheaper(self, context):
        output = run_experiment("fig15", context)
        curves = curves_of(output)
        organic = curves.get("NF with clicks (organic)")
        influenced = curves.get("NF with clicks (influenced)")
        if (
            organic is not None
            and influenced is not None
            and len(organic) > 5
            and len(influenced) > 5
        ):
            assert influenced.median >= organic.median * 0.8


class TestFig17Shape:
    def test_fraud_cpc_rises_under_competition(self, context):
        output = run_experiment("fig17", context)
        factor = output.metrics.get("f_cpc_increase_factor")
        if factor is not None and not np.isnan(factor):
            assert factor > 1.0

    def test_cpc_curves_normalized_by_a_positive_price(self, context):
        for experiment_id in ("fig15", "fig17"):
            output = run_experiment(experiment_id, context)
            assert output.metrics["cpc_norm_usd"] > 0


class TestTab3Shape:
    def test_us_first(self, context):
        output = run_experiment("tab3", context)
        first_row = output.tables[0].rows[0]
        assert first_row[0] == "US"


class TestTab4Shape:
    def test_fraud_phrase_overrepresented(self, context):
        output = run_experiment("tab4", context)
        fraud_phrase = output.metrics.get("fraud_phrase_share")
        nonfraud_phrase = output.metrics.get("nonfraud_phrase_share")
        if fraud_phrase is not None and nonfraud_phrase is not None:
            assert fraud_phrase >= nonfraud_phrase * 0.8
