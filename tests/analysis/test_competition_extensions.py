"""Tests for the Section 6.1 prose extensions."""

import numpy as np
import pytest

from repro.analysis.competition import CompetitionAnalyzer
from repro.analysis.subsets import SubsetBuilder


@pytest.fixture(scope="module")
def builder(sim_result, sim_window):
    return SubsetBuilder(sim_result, sim_window, target_size=300)


class TestCoFraudCounts:
    def test_counts_positive_on_influenced_rows(
        self, sim_result, sim_window, builder
    ):
        analyzer = CompetitionAnalyzer(sim_result, sim_window)
        subset = builder.build("F with clicks")
        counts, weights = analyzer.co_fraud_counts(subset.ids())
        assert len(counts) == len(weights)
        # Influenced rows by definition have >= 1 co-fraud competitor.
        if counts.size:
            assert counts.min() >= 1

    def test_fraud_faces_more_co_fraud_than_nonfraud(
        self, sim_result, sim_window, builder
    ):
        analyzer = CompetitionAnalyzer(sim_result, sim_window)
        f_counts, f_weights = analyzer.co_fraud_counts(
            builder.build("F with clicks").ids()
        )
        nf_counts, nf_weights = analyzer.co_fraud_counts(
            builder.build("NF with clicks").ids()
        )
        if f_counts.size and nf_counts.size:
            f_mean = np.average(f_counts, weights=f_weights)
            nf_mean = np.average(nf_counts, weights=nf_weights)
            assert f_mean >= nf_mean - 0.2


class TestKeywordOverlapSubset:
    def test_builds(self, builder):
        subset = builder.build("NF keyword overlap")
        assert len(subset) > 0
        assert all(not a.labeled_fraud for a in subset.accounts)

    def test_members_share_verticals_with_fraud(self, builder):
        subset = builder.build("NF keyword overlap")
        fraud_verticals = {
            v
            for a in builder._fraud_pool  # noqa: SLF001 - test introspection
            for v in a.verticals
        }
        for account in subset.accounts:
            assert set(account.verticals) & fraud_verticals

    def test_overlap_subset_more_affected_than_random_nf(
        self, sim_result, sim_window, builder
    ):
        analyzer = CompetitionAnalyzer(sim_result, sim_window)

        def mean_affected(subset):
            values = [
                analyzer.affected_impression_share(a.advertiser_id)
                for a in subset.accounts
            ]
            values = [v for v in values if not np.isnan(v)]
            return np.mean(values) if values else 0.0

        overlap = mean_affected(builder.build("NF keyword overlap"))
        random_nf = mean_affected(builder.build("Nonfraud"))
        assert overlap >= random_nf
